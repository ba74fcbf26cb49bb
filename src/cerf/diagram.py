"""Windowed recognition: the lazily built subset machine of a pattern's
unrolled tree (`SubsetRunner`), the rewrite of the tree's conditions to
read registers by lag (`lagged`), and the decision diagrams that give the
sign vector of a subset's conditions, testing a conjunct that heads several
of them once. Only windowed recognition loads this module, so the commands
that never step a subset machine do not compile it."""

from __future__ import annotations

from collections import deque
from typing import Callable

from .algebra import (
    And,
    Condition,
    Event,
    Holds,
    Register,
    TrueCondition,
    _all,
    _walk,
    compile_condition,
    registers_of,
    substitute_registers,
)
from .automaton import Sra, Transition, outgoing, successor
from .compiler import NotUnrolled


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
    for TRUE; equal conjuncts one object). A step walks it from its root: a
    `Branch` runs its test and goes on to `hi` or `lo`, a list holds signs
    and closures still to call in order, and a tuple is the sign vector.

    The conjunct that heads the most of the conditions, if it heads two or
    more (the first seen on a tie), is tested once in a `Branch`: where it
    holds the conditions it heads test their other conjuncts, and where it
    fails they are false. Every other condition is tested whole in the
    `_leaf` below, so each condition tests its conjuncts in order and stops
    at the first false one, as its own closure does. A diagram has at most
    three branches: the head's, and one in each leaf left with a single
    test."""
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


UNSET = Register("unset")  # a register its path never wrote: always empty


def lag(steps: int) -> Register:
    return Register(f"~{steps}")  # the event `steps` before the current one


def lagged(tree: Sra) -> tuple[Sra, int]:
    """`tree` with each condition rewritten to read registers by lag, and
    the tree's depth. A run at a state of depth d began d events ago on its
    one path from the root, so a register last written on that path by the
    transition into depth d_r holds the event `lag(d + 1 - d_r)` names, and
    one not written on it reads `UNSET`. The result writes no register, and
    equal rewritten conditions are one object."""
    if tree.has_epsilon:
        raise NotUnrolled("the subset runner needs an epsilon-free tree")
    conditions: dict[Condition, Condition] = {}
    transitions = []
    # (state, its depth, the depth of the last write of each register on
    # the path to it); each state is reached once, from its parent
    queue = deque(((tree.start, 0, {}),))
    reached = {tree.start}
    while queue:
        state, depth, written = queue.popleft()
        for t in tree.out(state):
            if t.target in reached:
                raise NotUnrolled(f"the subset runner needs a tree; {t.target} is reached twice")
            reached.add(t.target)
            reads = {r: lag(depth + 1 - written[r]) if r in written else UNSET
                     for r in registers_of(t.condition)}
            condition = substitute_registers(t.condition, reads) if reads else t.condition
            condition = conditions.setdefault(condition, condition)
            transitions.append(Transition(state, t.target, condition))
            queue.append((t.target, depth + 1, {**written, **dict.fromkeys(t.writes, depth + 1)}))
    registers = frozenset(r for c in conditions for r in registers_of(c))
    return Sra(frozenset(reached), tree.start, tree.finals & reached, registers,
               tuple(transitions), tree.window), depth


class _Subset:
    """One state of the lazily built subset machine, for a set of tree
    states: whether the set holds a final, its transitions grouped by
    condition (`outgoing`), the `diagram` that gives the sign vector of
    those conditions, and its table from each sign vector seen so far to
    the target subset."""

    __slots__ = ("final", "groups", "diagram", "table")

    def __init__(self, final: bool, groups: tuple, diagram) -> None:
        self.final, self.groups, self.diagram = final, groups, diagram
        self.table: dict[tuple[bool, ...], _Subset] = {}


class SubsetRunner:
    """Recognition of `TRUE* ; L(tree)` over an unbounded stream on the
    subset machine of an unrolled tree (`compiler.compile_windowed`), built
    only as far as the stream reaches it, as RE2 builds its lazy DFA.

    The run is one subset of tree states, to which every step adds the
    root, and one history tuple: slot 0 is always empty, and slot j holds
    the event j steps before the current one, for 0 < j < D, D the depth of
    the tree (at most its window). The conditions read registers by lag
    (`lagged`), at most D - 1 steps back, so the run writes no register.

    A step gets the sign vector of the current subset's distinct conditions
    through its diagram, and one lookup in the subset's table gives the
    target subset. On a miss, `successor` reads the targets off the asserted
    conditions, the rule `determinize` follows; no minterm is built and no
    subset is expanded beyond the sign vectors the stream shows."""

    def __init__(self, tree: Sra) -> None:
        self.automaton = tree
        self._lagged, depth = lagged(tree)
        self._slots = {UNSET: 0, **{lag(j): j for j in range(1, depth)}}
        self._root = frozenset((tree.start,))
        self.consumed = 0
        self._subsets: dict[frozenset[str], _Subset] = {}
        self._canonical: dict[Condition, Condition] = {}  # equal conjuncts one object
        # by the ids of lagged conditions and conjuncts, which stay alive
        self._spines: dict[int, tuple[Condition, ...]] = {}
        self._diagrams: dict[tuple[int, ...], object] = {}
        self._compiled: dict[int, Holds] = {}
        self._state = self._subset(self._root)
        # room for one event at least, so a step keeps the length
        self._history: tuple[Event | None, ...] = (None,) * max(depth, 2)

    @property
    def matched_at_start(self) -> bool:
        """Whether the empty suffix already matches (before any event)."""
        return self.automaton.start in self.automaton.finals

    @property
    def subsets(self) -> int:
        """How many subsets the run has reached."""
        return len(self._subsets)

    @property
    def entries(self) -> int:
        """How many (subset, sign vector) entries the tables hold."""
        return sum(len(s.table) for s in self._subsets.values())

    def step(self, event: Event) -> bool:
        """Consume one event; report whether a match completes at this index."""
        state, history = self._state, self._history
        signs = state.diagram  # a Branch, a list or the sign vector
        while signs.__class__ is not tuple:
            if signs.__class__ is list:
                signs = tuple([s if s.__class__ is bool else s(event, history) for s in signs])
            else:
                signs = signs.hi if signs.test(event, history) else signs.lo
        self._state = state = state.table.get(signs) or self._miss(state, signs)
        self._history = (None, event) + history[1:-1]
        self.consumed += 1
        return state.final

    def _subset(self, members: frozenset[str]) -> _Subset:
        subset = self._subsets.get(members)
        if subset is None:
            by_condition = outgoing(self._lagged, members)
            key = tuple([id(c) for c in by_condition])  # many subsets share it
            shape = self._diagrams.get(key)
            if shape is None:
                spines = [self._spine(c) for c in by_condition]
                shape = self._diagrams[key] = diagram(spines, self._conjunction)
            final = bool(members & self._lagged.finals)
            subset = self._subsets[members] = _Subset(final, tuple(by_condition.values()), shape)
        return subset

    def _spine(self, condition: Condition) -> tuple[Condition, ...]:
        spine = self._spines.get(id(condition))
        if spine is None:
            spine = self._spines[id(condition)] = tuple(
                self._canonical.setdefault(c, c)
                for c in _walk(condition, (And,)) if not isinstance(c, (And, TrueCondition))
            )
        return spine

    def _conjunction(self, conjuncts: tuple[Condition, ...]) -> Holds:
        return _all([compile_condition(c, self._slots, self._compiled) for c in conjuncts])

    def _miss(self, state: _Subset, signs: tuple[bool, ...]) -> _Subset:
        _, targets = successor(state.groups, [i for i, sign in enumerate(signs) if sign])
        state.table[signs] = target = self._subset(targets | self._root)
        return target
