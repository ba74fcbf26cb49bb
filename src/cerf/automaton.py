"""Symbolic register automata: data model, nondeterministic simulation,
the streaming recognition engine and the instrumented deterministic
runner. Windowed recognition's subset runner is in `cerf.diagram`."""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import (
    Atom,
    Condition,
    EvalCounters,
    Event,
    Holds,
    Register,
    Valuation,
    _Frozen,
    _set,
    _walk_distinct,
    compile_condition,
)


class ConfigurationCapExceeded(RuntimeError):
    """The live configuration set outgrew its cap (pathological
    nondeterminism)."""


class PreconditionFailed(ValueError):
    """The input does not have the form the operation needs: windowed or
    not, unrolled, deterministic or complete. The command line reports
    these, and only these, with exit code 3."""


class NotDeterministic(PreconditionFailed):
    """The operation needs a deterministic automaton."""


class NoTransition(PreconditionFailed, RuntimeError):
    """A deterministic run hit a state where no condition fires (the
    automaton is incomplete)."""


class Transition(_Frozen):
    """One SRA transition. condition None encodes an ε-move, which consumes
    nothing and therefore writes nothing."""

    __slots__ = ("source", "target", "condition", "writes")

    def __init__(
        self,
        source: str,
        target: str,
        condition: Optional[Condition],
        writes: frozenset[Register] = frozenset(),
    ) -> None:
        if condition is None and writes:
            raise ValueError("an ε-transition cannot write registers")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "condition", condition)
        _set(self, "writes", writes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.condition, self.writes) == (
            other.source, other.target, other.condition, other.writes
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.condition, self.writes))

    @property
    def is_epsilon(self) -> bool:
        return self.condition is None


class Sra(_Frozen):
    """A symbolic register automaton.

    Immutable; the outgoing-transition index is computed once at
    construction, while `is_acyclic()` walks the graph on every call.
    `deterministic` is a constructor-asserted flag, set by the constructions
    that guarantee it and not checked here. The instance `__dict__` holds
    only what `functools.cached_property` builds on first use.
    """

    __slots__ = (
        "states", "start", "finals", "registers", "transitions", "window", "deterministic",
        "_out", "__dict__",
    )

    def __init__(
        self,
        states: frozenset[str],
        start: str,
        finals: frozenset[str],
        registers: frozenset[Register],
        transitions: tuple[Transition, ...],
        window: Optional[int] = None,
        deterministic: bool = False,
    ) -> None:
        if start not in states:
            raise ValueError("start state is not a state")
        if not finals <= states:
            raise ValueError("final states must be states")
        out: dict[str, list[Transition]] = {q: [] for q in states}
        for t in transitions:
            if t.source not in states or t.target not in states:
                raise ValueError(f"transition endpoints must be states: {t}")
            if not t.writes <= registers:
                raise ValueError(f"transition writes unknown registers: {t.writes}")
            out[t.source].append(t)
        _set(self, "states", states)
        _set(self, "start", start)
        _set(self, "finals", finals)
        _set(self, "registers", registers)
        _set(self, "transitions", transitions)
        _set(self, "window", window)
        _set(self, "deterministic", deterministic)
        unknown = {
            arg
            for atom in self._atoms()
            for arg in atom.args
            if isinstance(arg, Register) and arg not in registers
        }
        if unknown:
            raise ValueError(f"condition reads unknown registers: {unknown}")
        _set(self, "_out", {q: tuple(ts) for q, ts in out.items()})

    def _fields(self) -> tuple:
        return (self.states, self.start, self.finals, self.registers, self.transitions,
                self.window, self.deterministic)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def _atoms(self) -> Iterator[Atom]:
        """Every distinct atom object of the transition conditions, once."""
        conditions = (t.condition for t in self.transitions if t.condition is not None)
        return (node for node in _walk_distinct(conditions) if isinstance(node, Atom))

    def out(self, state: str) -> tuple[Transition, ...]:
        return self._out[state]

    @functools.cached_property
    def observed_attributes(self) -> dict[Register, Optional[frozenset[str]]]:
        """Per register, the attribute names its readers can observe, or None
        when the register must keep whole events: some atom reads it through
        a predicate without a footprint, or nothing reads it at all. Built on
        first use, because most constructed automata are never run."""
        observed: dict[Register, Optional[frozenset[str]]] = {}
        for atom in self._atoms():
            footprint = atom.predicate.footprint
            for index, arg in enumerate(atom.args):
                if isinstance(arg, Register):
                    seen = observed.get(arg, frozenset())
                    opaque = footprint is None or seen is None
                    observed[arg] = None if opaque else seen | footprint[index]
        return {r: observed.get(r) for r in self.registers}

    @functools.cached_property
    def _plan(self) -> _RunPlan:
        """The compiled form the run kernel steps; made on the first step."""
        return _RunPlan(self)

    @functools.cached_property
    def _cut_names(self) -> tuple[Optional[frozenset[str]], ...]:
        """`observed_attributes` by slot; built on the first register write."""
        observed = self.observed_attributes
        return tuple(observed[r] for r in self._plan.registers)

    @property
    def has_epsilon(self) -> bool:
        return any(t.is_epsilon for t in self.transitions)

    @property
    def is_single_write(self) -> bool:
        return all(len(t.writes) <= 1 for t in self.transitions)

    def is_acyclic(self) -> bool:
        """Kahn-style check over the transition graph."""
        indegree = {q: 0 for q in self.states}
        for t in self.transitions:
            indegree[t.target] += 1
        queue = [q for q, d in indegree.items() if d == 0]
        seen = 0
        while queue:
            q = queue.pop()
            seen += 1
            for t in self.out(q):
                indegree[t.target] -= 1
                if indegree[t.target] == 0:
                    queue.append(t.target)
        return seen == len(self.states)

    def stats(self) -> dict:
        return {
            "states": len(self.states),
            "transitions": len(self.transitions),
            "registers": len(self.registers),
            "finals": len(self.finals),
            "window": self.window,
            "deterministic": self.deterministic,
        }


# A register valuation in slot form: slot i holds the event stored in the
# i-th register by name, or None when that register is empty.
Slots = tuple[Optional[Event], ...]


class _RunPlan(dict):
    """What the run kernel reads of one automaton: the registers in slot
    order, sorted by name, so slot tuples and `Valuation`s correspond one to
    one; and, mapped from each state, its non-ε transitions as (transition,
    compiled condition, slots written). A state's transitions are compiled
    on its first step, so a run pays only for the states it reaches."""

    __slots__ = ("registers", "_out", "_slots", "_compiled")

    def __init__(self, a: Sra) -> None:
        super().__init__()
        self.registers = tuple(sorted(a.registers))
        self._out = a.out
        self._slots = {r: i for i, r in enumerate(self.registers)}
        self._compiled: dict[int, Holds] = {}

    def __missing__(self, state: str) -> tuple[tuple[Transition, Holds, tuple[int, ...]], ...]:
        slots, steps = self._slots, []
        for t in self._out(state):
            if t.condition is not None:
                holds = compile_condition(t.condition, slots, self._compiled)
                steps.append((t, holds, tuple(sorted(slots[r] for r in t.writes))))
        self[state] = steps = tuple(steps)
        return steps

    def valuation(self, stored: Slots) -> Valuation:
        return Valuation(tuple((r, e) for r, e in zip(self.registers, stored) if e is not None))

    def slots(self, v: Valuation) -> Slots:
        return tuple(v.lookup(r) for r in self.registers)


class _CountedReads:
    """A slot tuple that counts, in `counters.register_reads`, each slot the
    first time a condition reads it."""

    __slots__ = ("stored", "counters", "seen")

    def __init__(self, stored: Slots, counters: EvalCounters) -> None:
        self.stored = stored
        self.counters = counters
        self.seen: set[int] = set()

    def __getitem__(self, slot: int) -> Optional[Event]:
        if slot not in self.seen:
            self.seen.add(slot)
            self.counters.register_reads += 1
        return self.stored[slot]


def _fire(
    a: Sra,
    configs: Iterable[tuple[str, Slots]],
    event: Event,
    counters: Optional[EvalCounters] = None,
) -> Iterator[tuple[Transition, Slots]]:
    """The run rule every stepping loop shares: for each (state, slots)
    configuration in turn, each non-ε outgoing transition whose condition
    holds on `event` (an atom reading an empty register does not hold),
    with the slots after its writes. Lazy, so a caller that stops early
    evaluates no more.

    Each distinct condition of the automaton is compiled once, on the first
    step from its state, into a closure over the event and the slot tuple
    (`algebra.compile_condition`), so a transition costs one call. A write
    (`_store`) copies the tuple and stores at the register's slot `event`
    cut down to the register's observed attributes
    (`Sra.observed_attributes`), so configurations that no condition can
    tell apart are equal and callers deduplicate them or expose them as
    valuations. Each cut is made once per call.

    With `counters`, each condition tried counts one `condition_evals`, and
    each register a configuration's conditions read counts one
    `register_reads`, once per configuration and call."""
    plan = a._plan
    cuts: dict[frozenset[str], Event] = {}
    for state, stored in configs:
        reads = stored if counters is None else _CountedReads(stored, counters)
        for t, holds, writes in plan[state]:
            if counters is not None:
                counters.condition_evals += 1
            if holds(event, reads):
                yield t, _store(a, stored, writes, event, cuts) if writes else stored


def _store(a: Sra, stored: Slots, writes: tuple[int, ...], event: Event, cuts: dict) -> Slots:
    """`stored` after writing `event` into the `writes` slots, each register
    keeping only its observed attributes; `cuts` holds the cuts of `event`
    made so far."""
    written = list(stored)
    for slot in writes:
        names = a._cut_names[slot]
        cut = event if names is None else cuts.get(names)
        if cut is None:
            cut = cuts[names] = event.project(names)
        written[slot] = cut
    return tuple(written)


def _check_cap(configs: set, cap: int) -> None:
    if len(configs) > cap:
        raise ConfigurationCapExceeded(
            f"{len(configs)} live configurations exceed the cap of {cap}"
        )


def epsilon_closure(a: Sra, state: str) -> frozenset[str]:
    """Every state reachable from `state` by ε-moves alone, itself included."""
    closure = {state}
    stack = [state]
    while stack:
        for t in a.out(stack.pop()):
            if t.is_epsilon and t.target not in closure:
                closure.add(t.target)
                stack.append(t.target)
    return frozenset(closure)


def outgoing(a: Sra, subset: Iterable[str]) -> dict[Condition, list[Transition]]:
    """The transitions leaving the members of a subset of `a`'s states,
    members in name order, grouped by condition in first-seen order."""
    by_condition: dict[Condition, list[Transition]] = {}
    for q in sorted(subset):
        for t in a.out(q):
            by_condition.setdefault(t.condition, []).append(t)
    return by_condition


def successor(
    groups: Sequence[Sequence[Transition]], positives: Iterable[int]
) -> tuple[frozenset[Register], frozenset[str]]:
    """Where a subset goes when exactly the conditions at `positives` hold,
    `groups` being its transitions grouped by condition (`outgoing`): the
    registers the transitions under those conditions write, and their
    targets. The subset construction's one successor rule."""
    taken = [t for i in positives for t in groups[i]]
    return frozenset().union(*(t.writes for t in taken)), frozenset(t.target for t in taken)


def run_accepts(a: Sra, events: Sequence[Event], cap: int = 100_000) -> bool:
    """Whether some run over exactly `events` ends in a final state.

    Breadth-wise configuration-set search with ε-closure interleaving and
    (state, slots) deduplication. ε-moves write nothing, so closing a
    configuration closes its state and keeps its slots."""
    empty = (None,) * len(a.registers)
    current = {(q, empty) for q in epsilon_closure(a, a.start)}
    _check_cap(current, cap)
    for event in events:
        fired = {(t.target, v) for t, v in _fire(a, current, event)}
        current = {(q, v) for state, v in fired for q in epsilon_closure(a, state)}
        _check_cap(current, cap)
        if not current:
            return False
    return any(state in a.finals for state, _ in current)


class StreamEngine:
    """Nondeterministic recognition over an unbounded stream.

    The automaton must be ε-free and should be a streaming automaton (a ⊤*
    prefix built in), so restarting at every index is the automaton's own
    job; the engine never re-seeds. One step advances the whole live
    configuration set through the shared run kernel `_fire`, and the result
    is deduplicated by (state, slots). Registers hold only the attributes
    their readers observe, so the set grows with the distinct values the
    pattern can tell apart, not with the distinct events seen; the cap
    bounds its size."""

    def __init__(self, automaton: Sra, cap: int = 100_000) -> None:
        if automaton.has_epsilon:
            raise ValueError("the streaming engine needs an epsilon-free automaton")
        self.automaton = automaton
        self.cap = cap
        self.consumed = 0
        empty = (None,) * len(automaton.registers)
        self._configs: set[tuple[str, Slots]] = {(automaton.start, empty)}

    @property
    def matched_at_start(self) -> bool:
        """Whether the empty suffix already matches (before any event)."""
        return self.automaton.start in self.automaton.finals

    @property
    def live_configurations(self) -> frozenset[tuple[str, Valuation]]:
        """The live (state, valuation) pairs."""
        valuation = self.automaton._plan.valuation
        return frozenset((state, valuation(stored)) for state, stored in self._configs)

    def step(self, event: Event) -> bool:
        """Consume one event; report whether a match completes at this index."""
        a = self.automaton
        advanced = {(t.target, v) for t, v in _fire(a, self._configs, event)}
        _check_cap(advanced, self.cap)
        self._configs = advanced
        self.consumed += 1
        return any(state in a.finals for state, _ in advanced)


class DeterministicRunner:
    """Single-configuration run over a deterministic automaton, optionally
    instrumented with evaluation counters.

    One step takes the first transition the shared run kernel `_fire` yields
    for the current configuration, held in slot form; `valuation` gives it
    as a `Valuation`. The kernel is lazy and tries the state's compiled
    outgoing conditions in order, so a step costs at most `outgoing
    conditions` condition evaluations, and it counts each register read
    once per step, so at most `registers` register reads."""

    def __init__(self, automaton: Sra, counters: Optional[EvalCounters] = None) -> None:
        if not automaton.deterministic:
            raise NotDeterministic("runner needs an automaton built as deterministic")
        if automaton.has_epsilon:
            raise NotDeterministic("runner needs an epsilon-free automaton")
        self.automaton = automaton
        self.counters = counters
        self.state = automaton.start
        self._stored: Slots = (None,) * len(automaton.registers)
        self.consumed = 0

    @property
    def valuation(self) -> Valuation:
        return self.automaton._plan.valuation(self._stored)

    def step(self, event: Event) -> Transition:
        config = [(self.state, self._stored)]
        fired = next(_fire(self.automaton, config, event, self.counters), None)
        if fired is None:
            raise NoTransition(f"no transition fires at {self.state} on {event}")
        t, self._stored = fired
        self.state = t.target
        self.consumed += 1
        return t

