"""Constructions no command but `to-srem` runs, so that only it and the
tests load them: the closure operations over automata (union,
concatenation, star, intersection) and the translation of an automaton
back to an expression."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

from .algebra import And, Register, substitute_registers
from .automaton import Sra, Transition
from .construct import Move, _fresh_state, _reachable, eliminate_epsilon, to_single_register
from .pattern import EMPTY, EPSILON, Alt, Concat, Cond, CondWrite, Empty, Epsilon, Expr, Star


# ---------------------------------------------------------------------------
# Closure operations


def rename_registers(a: Sra, mapping: dict[Register, Register]) -> Sra:
    if not mapping:
        return a
    new_transitions = tuple(
        Transition(
            t.source,
            t.target,
            None if t.condition is None else substitute_registers(t.condition, mapping),
            frozenset(mapping.get(r, r) for r in t.writes),
        )
        for t in a.transitions
    )
    return Sra(
        states=a.states,
        start=a.start,
        finals=a.finals,
        registers=frozenset(mapping.get(r, r) for r in a.registers),
        transitions=new_transitions,
        window=a.window,
        deterministic=a.deterministic,
    )


def _relabel_states(a: Sra, fn: Callable[[str], str]) -> Sra:
    return Sra(
        states=frozenset(fn(q) for q in a.states),
        start=fn(a.start),
        finals=frozenset(fn(q) for q in a.finals),
        registers=a.registers,
        transitions=tuple(
            Transition(fn(t.source), fn(t.target), t.condition, t.writes)
            for t in a.transitions
        ),
        window=a.window,
        deterministic=a.deterministic,
    )


def _disjoint_operands(a1: Sra, a2: Sra) -> tuple[Sra, Sra]:
    shared = a1.registers & a2.registers
    if shared:
        avoid = {r.name for r in a1.registers | a2.registers}
        mapping = {}
        for reg in sorted(shared):
            k = 2
            while f"{reg.name}_{k}" in avoid:
                k += 1
            fresh = f"{reg.name}_{k}"
            avoid.add(fresh)
            mapping[reg] = Register(fresh)
        a2 = rename_registers(a2, mapping)
    if a1.states & a2.states:
        used = set(a1.states)
        state_map = {}
        for q in sorted(a2.states):
            name = q
            k = 2
            while name in used:
                name = f"{q}~{k}"
                k += 1
            used.add(name)
            state_map[q] = name
        a2 = _relabel_states(a2, state_map.__getitem__)
    return a1, a2


def union_of(a1: Sra, a2: Sra) -> Sra:
    """Fresh start/final joined to both operands by ε-moves."""
    b1, b2 = _disjoint_operands(a1, a2)
    states = b1.states | b2.states
    start = _fresh_state("s", frozenset(states))
    final = _fresh_state("f", frozenset(states | {start}))
    eps = [Transition(start, b1.start, None), Transition(start, b2.start, None)]
    eps += [Transition(g, final, None) for g in sorted(b1.finals | b2.finals)]
    return Sra(
        states=states | {start, final},
        start=start,
        finals=frozenset((final,)),
        registers=b1.registers | b2.registers,
        transitions=b1.transitions + b2.transitions + tuple(eps),
    )


def concat_of(a1: Sra, a2: Sra) -> Sra:
    """ε-moves from every final of the first operand into the second."""
    b1, b2 = _disjoint_operands(a1, a2)
    eps = tuple(Transition(g, b2.start, None) for g in sorted(b1.finals))
    return Sra(
        states=b1.states | b2.states,
        start=b1.start,
        finals=b2.finals,
        registers=b1.registers | b2.registers,
        transitions=b1.transitions + eps + b2.transitions,
    )


def star_of(a: Sra) -> Sra:
    """Fresh start/final with skip and loop-back ε-moves."""
    start = _fresh_state("s", a.states)
    final = _fresh_state("f", frozenset(a.states | {start}))
    eps = [Transition(start, a.start, None), Transition(start, final, None)]
    for g in sorted(a.finals):
        eps.append(Transition(g, final, None))
        eps.append(Transition(g, a.start, None))
    return Sra(
        states=a.states | {start, final},
        start=start,
        finals=frozenset((final,)),
        registers=a.registers,
        transitions=a.transitions + tuple(eps),
    )


def intersect(a1: Sra, a2: Sra) -> Sra:
    """Product construction over ε-free operands (ε-elimination is applied
    first when needed): states are pairs of operand states, conditions
    conjoined, write sets unioned, and shared register names renamed apart
    in the second operand. The result may write several registers per
    transition; normalize with to_single_register when single-write form
    matters."""
    b1 = eliminate_epsilon(a1) if a1.has_epsilon else a1
    b2 = eliminate_epsilon(a2) if a2.has_epsilon else a2
    b1, b2 = _disjoint_operands(b1, b2)

    def step(pair: tuple[str, str]) -> Iterable[Move]:
        for t1 in b1.out(pair[0]):
            for t2 in b2.out(pair[1]):
                condition = And(t1.condition, t2.condition)
                yield condition, t1.writes | t2.writes, (t1.target, t2.target)

    return _reachable(
        (b1.start, b2.start),
        step,
        lambda pair: f"({pair[0]},{pair[1]})",
        lambda pair: pair[0] in b1.finals and pair[1] in b2.finals,
        registers=b1.registers | b2.registers,
    )


# ---------------------------------------------------------------------------
# Automaton -> expression (state elimination over expression-labeled edges)


def _smart_seq(x: Expr, y: Expr) -> Expr:
    if isinstance(x, Empty) or isinstance(y, Empty):
        return EMPTY
    if isinstance(x, Epsilon):
        return y
    if isinstance(y, Epsilon):
        return x
    return Concat(x, y)


def _smart_alt(x: Expr, y: Expr) -> Expr:
    if isinstance(x, Empty):
        return y
    if isinstance(y, Empty):
        return x
    if x == y:
        return x
    return Alt(x, y)


def _smart_star(x: Expr) -> Expr:
    if isinstance(x, (Empty, Epsilon)):
        return EPSILON
    return Star(x)


def sra_to_srem(a: Sra) -> Expr:
    """Translate an automaton back to an expression.

    The automaton is normalized (ε-free, single-write), lifted to a graph of
    expression-labeled edges with a fresh start and final, and states are
    eliminated one at a time - each detour through an eliminated state q
    rewrites the p→s label to (p→q) · (q→q)* · (q→s) joined by alternation
    with the direct label. Elimination removes the state with the fewest
    incident labeled edges first (ties to the lowest name), which keeps the
    final expression small."""
    b = eliminate_epsilon(a) if a.has_epsilon else a
    b = to_single_register(b)
    source = _fresh_state("gs", b.states)
    sink = _fresh_state("gf", frozenset(b.states | {source}))

    label: dict[tuple[str, str], Expr] = {}
    # How many labeled edges touch each state, a loop once: kept as edges
    # come and go, so choosing the next state does not scan every label.
    incident: Counter = Counter()

    def add(p: str, s: str, e: Expr) -> None:
        if isinstance(e, Empty):
            return
        if (p, s) not in label:
            incident.update({p, s})
        label[(p, s)] = _smart_alt(label.get((p, s), EMPTY), e)

    def drop(p: str, s: str) -> Expr:
        incident.subtract({p, s})
        return label.pop((p, s))

    add(source, b.start, EPSILON)
    for final in sorted(b.finals):
        add(final, sink, EPSILON)
    for t in b.transitions:
        if t.writes:
            add(t.source, t.target, CondWrite(t.condition, next(iter(t.writes))))
        else:
            add(t.source, t.target, Cond(t.condition))

    remaining = set(b.states)
    while remaining:
        q = min(remaining, key=lambda q: (incident[q], q))
        remaining.discard(q)
        loop = drop(q, q) if (q, q) in label else EMPTY
        ins = sorted(
            ((p, e) for (p, tq), e in label.items() if tq == q), key=lambda x: x[0]
        )
        outs = sorted(
            ((s, e) for (sq, s), e in label.items() if sq == q), key=lambda x: x[0]
        )
        for p, _ in ins:
            drop(p, q)
        for s, _ in outs:
            drop(q, s)
        for p, e_in in ins:
            for s, e_out in outs:
                add(p, s, _smart_seq(e_in, _smart_seq(_smart_star(loop), e_out)))
    return label.get((source, sink), EMPTY)
