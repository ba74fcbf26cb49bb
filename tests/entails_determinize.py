"""The entails-based determinization, kept as the reference that
`cerf.compiler.determinize` is checked against.

`determinize` here finds the transitions a minterm entails with one
`entails` call per (minterm, outgoing transition), and generates each
subset's minterms afresh with `minterms`, which cuts only negated TRUE and
literal-bound conflicts, not structural sign clashes. So wherever nothing
clashes structurally it builds the same automaton as the program's
determinize, and elsewhere it may keep more (unsatisfiable) transitions and
states, never fewer."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from cerf.algebra import (
    TRUE,
    And,
    Condition,
    Not,
    TrueCondition,
    _literal_bounds,
    _narrowed,
    entails,
)
from cerf.automaton import Sra
from cerf.compiler import Move, NotUnrolled, _reachable, _set_name


def minterms(conditions: Sequence[Condition]) -> tuple[Condition, ...]:
    """Maximal satisfiable sign combinations of the given conditions.

    Each input condition appears exactly once per minterm, positively or
    negated, with positive TRUE conjuncts dropped. Sign vectors are
    generated depth first, positive branch first, so kept minterms come out
    in `itertools.product((True, False), ...)` order. A prefix is cut, with
    everything below it, as soon as it negates TRUE or its positive
    literals conflict: they bound one attribute of one argument (`~` or a
    register) to constants of different kinds, to unequal `==` constants,
    or to an empty `== != < <= > >=` range. The check is sound and partial:
    negated literals, `Or`, attribute-against-attribute atoms and
    predicates without a declaration never cut, so a kept minterm may still
    be unsatisfiable. The minterms are pairwise mutually exclusive and
    exhaustive: exactly one holds for any (event, valuation). Minterms
    sharing a prefix share its conjunction node.
    """
    base = list(dict.fromkeys(conditions))
    if not base:
        return (TRUE,)
    bounds = [_literal_bounds(cond) for cond in base]
    negated = [Not(cond) for cond in base]
    out: list[Condition] = []
    # (depth, conjunction of the literals so far or None, bounds so far)
    stack: list[tuple[int, Optional[Condition], dict]] = [(0, None, {})]
    while stack:
        depth, prefix, groups = stack.pop()
        if depth == len(base):
            out.append(TRUE if prefix is None else prefix)
            continue
        cond = base[depth]
        if isinstance(cond, TrueCondition):
            stack.append((depth + 1, prefix, groups))  # a negated TRUE never holds
            continue
        for literal, kept in ((negated[depth], groups), (cond, _narrowed(groups, bounds[depth]))):
            if kept is not None:
                stack.append((depth + 1, literal if prefix is None else And(prefix, literal), kept))
    return tuple(out)


def determinize(a: Sra) -> Sra:
    """Powerset construction with minterm labels over an unrolled automaton.

    States are the sets of original states reachable from {start}. Per
    subset, the distinct outgoing conditions generate minterms, less those
    whose positive literals conflict (see `minterms`); each
    minterm that entails at least one original condition becomes one
    transition to the set of entailed targets, writing the union of their
    write registers. Exactly one minterm fires for any (event, valuation),
    so the result is deterministic."""
    if a.has_epsilon or not a.is_acyclic():
        raise NotUnrolled("determinize needs an acyclic epsilon-free automaton")

    def step(subset: frozenset[str]) -> Iterable[Move]:
        outgoing = [t for q in sorted(subset) for t in a.out(q)]
        conditions = list(dict.fromkeys(t.condition for t in outgoing))
        for mt in minterms(conditions):
            entailed = [t for t in outgoing if entails(mt, t.condition)]
            if entailed:
                writes = frozenset().union(*(t.writes for t in entailed))
                yield mt, writes, frozenset(t.target for t in entailed)

    return _reachable(
        frozenset((a.start,)),
        step,
        _set_name,
        lambda subset: bool(subset & a.finals),
        registers=a.registers,
        window=a.window,
        deterministic=True,
    )
