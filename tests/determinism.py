"""Syntactic determinism checking, kept as a reference for the tests: the
constructions assert determinism with `Sra.deterministic`, and the tests
check it with `is_deterministic`."""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from cerf.algebra import (
    EMPTY_VALUATION,
    And,
    Condition,
    Event,
    Not,
    Or,
    TrueCondition,
    Valuation,
    _walk,
)
from cerf.automaton import PreconditionFailed, Sra, _fire


class UnverifiableDeterminism(PreconditionFailed):
    """Determinism could not be decided syntactically and no test universe
    was supplied for exhaustive checking."""


def _literals(cond: Condition) -> Optional[list[tuple[Condition, bool]]]:
    """Flatten a conjunction into (base, sign) literals, or None when the
    shape is not a plain sign-conjunction."""
    conjuncts = [c for c in _walk(cond, (And,)) if not isinstance(c, (And, TrueCondition))]
    if any(isinstance(c, Or) for c in conjuncts):
        return None
    return [(c.operand, False) if isinstance(c, Not) else (c, True) for c in conjuncts]


def _syntactically_exclusive(c1: Condition, c2: Condition) -> Optional[bool]:
    l1 = _literals(c1)
    l2 = _literals(c2)
    if l1 is None or l2 is None:
        return None
    signs1 = dict(l1)
    for base, sign in l2:
        if base in signs1 and signs1[base] != sign:
            return True
    return None


def is_deterministic(
    a: Sra,
    universe: Optional[Iterable[Event]] = None,
    valuations: Optional[Iterable[Valuation]] = None,
) -> bool:
    """Whether at most one transition can fire at any state for any
    (event, valuation).

    Per state, each pair of outgoing conditions is first checked
    syntactically (two sign-conjunctions sharing a base condition with
    opposite signs cannot fire together). States with a pair the syntactic
    check cannot decide are run over the supplied universe and valuations,
    looking for more than one transition firing; without a universe such
    states raise UnverifiableDeterminism.
    """
    if a.has_epsilon:
        return False
    undecided = [
        state
        for state in a.states
        if any(
            _syntactically_exclusive(t1.condition, t2.condition) is None
            for t1, t2 in itertools.combinations(a.out(state), 2)
        )
    ]
    if not undecided:
        return True
    if universe is None:
        raise UnverifiableDeterminism(
            "outgoing conditions are not one minterm family; supply a test universe"
        )
    events = list(universe)
    if valuations is None:
        if a.registers:
            raise UnverifiableDeterminism(
                "registers present; supply sample valuations for exhaustive checking"
            )
        valuations = [EMPTY_VALUATION]
    slotted = [a._plan.slots(v) for v in valuations]
    for state in undecided:
        for event in events:
            for stored in slotted:
                if len(list(itertools.islice(_fire(a, [(state, stored)], event), 2))) > 1:
                    return False
    return True
