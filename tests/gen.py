"""Shared generators for the randomized suites: a small event universe with
its predicate library, random expressions over it, exhaustive string
enumeration, an independent forward-reachability matcher used to cross-check
the derivation oracle, the oracle's derivations of every string by prefix
sharing, and a fixed order-2 Markov symbol source."""

from __future__ import annotations

import itertools
from random import Random

from cerf.algebra import (
    CURRENT,
    EMPTY_VALUATION,
    TRUE,
    And,
    Atom,
    Event,
    Not,
    Or,
    PredicateLibrary,
    Register,
    comparison_predicate,
    evaluate_condition,
    join_predicate,
)
from cerf.oracle import Oracle
from cerf.pattern import (
    Alt,
    Concat,
    Cond,
    CondWrite,
    EMPTY,
    EPSILON,
    Star,
    Window,
)

R1 = Register("r1")
R2 = Register("r2")


def universe_library() -> PredicateLibrary:
    lib = PredicateLibrary()
    lib.define(comparison_predicate("KindA", "kind", "==", "A"))
    lib.define(comparison_predicate("KindB", "kind", "==", "B"))
    lib.define(comparison_predicate("NumIs1", "num", "==", 1))
    lib.define(join_predicate("SameNum", "num", "==", "num"))
    lib.define(join_predicate("SameKind", "kind", "==", "kind"))
    return lib


UNIVERSE = tuple(
    Event.of(kind=kind, num=num) for kind in ("A", "B") for num in (1, 2)
)


def _atoms(lib: PredicateLibrary):
    return (
        Atom(lib.get("KindA"), (CURRENT,)),
        Atom(lib.get("KindB"), (CURRENT,)),
        Atom(lib.get("NumIs1"), (CURRENT,)),
        Atom(lib.get("SameNum"), (CURRENT, R1)),
        Atom(lib.get("SameNum"), (CURRENT, R2)),
        Atom(lib.get("SameKind"), (CURRENT, R1)),
    )


def random_condition(rng: Random, lib: PredicateLibrary):
    atoms = _atoms(lib)
    roll = rng.random()
    if roll < 0.10:
        return TRUE
    if roll < 0.55:
        return rng.choice(atoms)
    if roll < 0.70:
        return Not(rng.choice(atoms))
    if roll < 0.85:
        return And(rng.choice(atoms), rng.choice(atoms))
    return Or(rng.choice(atoms), rng.choice(atoms))


def _random_leaf(rng: Random, lib: PredicateLibrary):
    roll = rng.random()
    if roll < 0.08:
        return EPSILON
    if roll < 0.12:
        return EMPTY
    cond = random_condition(rng, lib)
    if rng.random() < 0.35:
        return CondWrite(cond, rng.choice((R1, R2)))
    return Cond(cond)


def random_expr(rng: Random, depth: int, lib: PredicateLibrary):
    if depth <= 0:
        return _random_leaf(rng, lib)
    roll = rng.random()
    if roll < 0.25:
        return _random_leaf(rng, lib)
    if roll < 0.55:
        return Concat(random_expr(rng, depth - 1, lib), random_expr(rng, depth - 1, lib))
    if roll < 0.85:
        return Alt(random_expr(rng, depth - 1, lib), random_expr(rng, depth - 1, lib))
    return Star(random_expr(rng, depth - 1, lib))


def all_strings(universe, max_len: int):
    for n in range(max_len + 1):
        yield from (list(s) for s in itertools.product(universe, repeat=n))


def reach(e, events, i, valuation):
    """Forward matcher: all (end index, valuation) pairs reachable by matching
    e against events starting at i. Used as an independent cross-check of the
    derivation oracle; deliberately a different algorithm."""
    if isinstance(e, Cond) or isinstance(e, CondWrite):
        if i >= len(events):
            return set()
        event = events[i]
        if not evaluate_condition(e.condition, event, valuation):
            return set()
        if isinstance(e, CondWrite):
            return {(i + 1, valuation.set(e.register, event))}
        return {(i + 1, valuation)}
    if isinstance(e, Concat):
        out = set()
        for mid, v1 in reach(e.left, events, i, valuation):
            out |= reach(e.right, events, mid, v1)
        return out
    if isinstance(e, Alt):
        return reach(e.left, events, i, valuation) | reach(e.right, events, i, valuation)
    if isinstance(e, Star):
        seen = {(i, valuation)}
        frontier = [(i, valuation)]
        while frontier:
            pos, v1 = frontier.pop()
            for nxt, v2 in reach(e.body, events, pos, v1):
                if nxt > pos and (nxt, v2) not in seen:
                    seen.add((nxt, v2))
                    frontier.append((nxt, v2))
        return seen
    if isinstance(e, Window):
        return {
            (end, v) for end, v in reach(e.body, events, i, valuation)
            if end - i <= e.width
        }
    if e is EPSILON or type(e).__name__ == "Epsilon":
        return {(i, valuation)}
    if e is EMPTY or type(e).__name__ == "Empty":
        return set()
    raise TypeError(f"unknown expression node {e!r}")


def reach_accepts(e, events) -> bool:
    return any(end == len(events) for end, _ in reach(e, events, 0, EMPTY_VALUATION))


def random_windowed(rng: Random, lib: PredicateLibrary, width: int = None):
    width = width if width is not None else rng.choice((1, 2, 3))
    return Window(random_expr(rng, 3, lib), width)


def acceptance_dfs(a, universe, max_len: int) -> dict:
    """Acceptance of every string over `universe` up to max_len, keyed by
    tuples of universe indexes. Shares prefix work across strings instead of
    rerunning the automaton from scratch per string."""
    from cerf.algebra import EMPTY_VALUATION, EvalScope

    def close(configs):
        closure = set(configs)
        stack = list(configs)
        while stack:
            state, v = stack.pop()
            for t in a.out(state):
                if t.is_epsilon and (t.target, v) not in closure:
                    closure.add((t.target, v))
                    stack.append((t.target, v))
        return closure

    def step(configs, event):
        advanced = set()
        for state, v in configs:
            scope = EvalScope(v)
            for t in a.out(state):
                if not t.is_epsilon and scope.evaluate(t.condition, event):
                    stored = v
                    for r in t.writes:
                        stored = stored.set(r, event)
                    advanced.add((t.target, stored))
        return close(advanced)

    results = {}

    def walk(key, configs):
        results[key] = any(state in a.finals for state, _ in configs)
        if len(key) == max_len:
            return
        for idx, event in enumerate(universe):
            walk(key + (idx,), step(configs, event) if configs else set())

    walk((), close({(a.start, EMPTY_VALUATION)}))
    return results


def oracle_dfs(e, universe, max_len: int) -> dict:
    """The valuations with which the expression derives every string over
    `universe` up to max_len, keyed by tuples of universe indexes. One
    oracle serves every string, and each string is stepped from its one
    shorter prefix."""
    oracle = Oracle(e)
    results = {}
    frontier = [((), oracle.start())]
    while frontier:
        key, pairs = frontier.pop()
        results[key] = Oracle.derived(pairs)
        if len(key) < max_len:
            frontier += ((key + (i,), oracle.step(pairs, ev)) for i, ev in enumerate(universe))
    return results


# Order-2 Markov source over {a, b}; values are P(next = "a" | last two).
ORDER2_TABLE = {
    ("a", "a"): 0.9,
    ("a", "b"): 0.3,
    ("b", "a"): 0.2,
    ("b", "b"): 0.6,
}


def markov2_symbols(rng: Random, length: int) -> list[str]:
    out = ["a", "b"]
    while len(out) < length:
        p = ORDER2_TABLE[(out[-2], out[-1])]
        out.append("a" if rng.random() < p else "b")
    return out[:length]
