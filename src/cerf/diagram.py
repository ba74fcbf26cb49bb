"""Decision diagrams that give the sign vector of a set of conditions,
testing a conjunct that heads several of them once. A step walks a
diagram from its root: a `Branch` runs its test and goes on to `hi` or
`lo`, a list holds signs and closures still to call in order, and a tuple
is the sign vector. Only windowed recognition (`automaton.SubsetRunner`)
loads this module, so the commands that never step a subset machine do not
compile it."""

from __future__ import annotations

from typing import Callable

from .algebra import Condition, Holds


class Branch:
    """A node of a `diagram`: a compiled test, and what gives the sign
    vector when it holds (`hi`) and when it does not (`lo`)."""

    __slots__ = ("test", "hi", "lo")

    def __init__(self, test: Holds, hi, lo) -> None:
        self.test, self.hi, self.lo = test, hi, lo


def _leaf(signs: list):
    """What gives the sign vector from a list of signs and closures: the
    vector when every sign is decided, a `Branch` to the two vectors when
    one closure is left, else the list, whose closures are then called in
    order."""
    undecided = [i for i, s in enumerate(signs) if s.__class__ is not bool]
    if not undecided:
        return tuple(signs)
    if len(undecided) > 1:
        return signs
    (i,) = undecided
    return Branch(signs[i], tuple(signs[:i] + [True] + signs[i + 1:]),
                  tuple(signs[:i] + [False] + signs[i + 1:]))


def diagram(spines: list[tuple[Condition, ...]], conjunction: Callable[[tuple], Holds]):
    """The diagram of conditions given by their conjunction spines (empty
    for TRUE; equal conjuncts one object). The conjunct that heads the most
    of them, if it heads two or more (the first seen on a tie), is tested
    once in a `Branch`: where it holds the conditions it heads test their
    other conjuncts, and where it fails they are false. Every other
    condition is tested whole in the `_leaf` below, so each condition tests
    its conjuncts in order and stops at the first false one, as its own
    closure does. A diagram has at most three branches: the head's, and one
    in each leaf left with a single test."""
    counts: dict[int, int] = {}
    for spine in spines:
        if spine:
            counts[id(spine[0])] = counts.get(id(spine[0]), 0) + 1
    whole = [conjunction(spine) if spine else True for spine in spines]
    head = max(counts, key=counts.__getitem__, default=None)
    if head is None or counts[head] < 2:
        return _leaf(whole)
    hi, lo = list(whole), list(whole)
    for i, spine in enumerate(spines):
        if spine and id(spine[0]) == head:
            test = conjunction(spine[:1])
            hi[i], lo[i] = conjunction(spine[1:]) if spine[1:] else True, False
    return Branch(test, _leaf(hi), _leaf(lo))
