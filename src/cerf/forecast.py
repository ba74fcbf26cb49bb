"""Probabilistic description of deterministic automaton behavior: mapping
event streams to symbol strings, learning a prediction suffix tree over
them, and computing waiting-time distributions and forecasts."""

from __future__ import annotations

import math
import string
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import Condition, Event
from .automaton import DeterministicRunner, NotDeterministic, PreconditionFailed, Sra


class InsufficientData(ValueError):
    """Training sequence is shorter than the tree order allows."""


class NotComplete(PreconditionFailed):
    """The automaton has a state with no outgoing transitions, so symbol
    paths cannot be expanded from it."""


def _symbol_for_index(index: int) -> str:
    if index < 26:
        return string.ascii_lowercase[index]
    return f"s{index}"


class SymbolMap:
    """Bijection between the distinct transition conditions of a
    deterministic automaton and plain symbols, so the automaton's behavior
    can be read as a classical string process."""

    def __init__(self, pairs: Iterable[tuple[Condition, str]]) -> None:
        self._symbol_of: dict[Condition, str] = {}
        self._condition_of: dict[str, Condition] = {}
        for condition, symbol in pairs:
            if condition in self._symbol_of or symbol in self._condition_of:
                raise ValueError("symbol map entries must be bijective")
            self._symbol_of[condition] = symbol
            self._condition_of[symbol] = condition

    @classmethod
    def for_automaton(cls, a: Sra) -> "SymbolMap":
        """Assign a, b, c, … to the automaton's distinct conditions in
        first-seen transition order."""
        pairs = []
        seen = set()
        for t in a.transitions:
            if t.condition is not None and t.condition not in seen:
                seen.add(t.condition)
                pairs.append((t.condition, _symbol_for_index(len(pairs))))
        return cls(pairs)

    def symbol_for(self, condition: Condition) -> str:
        return self._symbol_of[condition]

    def condition_for(self, symbol: str) -> Condition:
        return self._condition_of[symbol]

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted(self._condition_of))

    def items(self) -> list[tuple[Condition, str]]:
        return list(self._symbol_of.items())

    def __len__(self) -> int:
        return len(self._symbol_of)


def symbolize(d: Sra, events: Sequence[Event], symbol_map: SymbolMap) -> list[str]:
    """Run the single deterministic run over the events and emit the symbol
    of each transition taken. Raises NoTransition when the automaton is not
    complete and nothing fires."""
    runner = DeterministicRunner(d)
    return [symbol_map.symbol_for(runner.step(event).condition) for event in events]


class Pst:
    """Prediction suffix tree: variable-length contexts (tuples, oldest
    symbol first), each carrying a next-symbol distribution."""

    def __init__(
        self,
        max_order: int,
        alphabet: Sequence[str],
        nodes: Mapping[tuple[str, ...], Mapping[str, float]],
    ) -> None:
        if max_order < 0:
            raise ValueError("max_order must be non-negative")
        self.max_order = max_order
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        self.nodes = {tuple(ctx): dict(dist) for ctx, dist in nodes.items()}
        if () not in self.nodes:
            raise ValueError("a prediction suffix tree needs a root node")
        known = set(self.alphabet)
        for ctx, dist in self.nodes.items():
            if len(ctx) > max_order:
                raise ValueError(f"context {ctx} exceeds max order {max_order}")
            if ctx and ctx[1:] not in self.nodes:
                raise ValueError(f"tree is not suffix-closed at {ctx}")
            if not set(dist) <= known:
                raise ValueError(f"distribution at {ctx} uses unknown symbols")
            if not all(
                isinstance(p, (int, float)) and not isinstance(p, bool) and math.isfinite(p)
                for p in dist.values()
            ):
                raise ValueError(f"probability at {ctx} is not a finite number")
            if any(p < 0 for p in dist.values()):
                raise ValueError(f"negative probability at {ctx}")
            if abs(sum(dist.values()) - 1.0) > 1e-9:
                raise ValueError(f"distribution at {ctx} does not sum to 1")

    def predict(self, recent: Sequence[str]) -> dict[str, float]:
        """Next-symbol distribution at the deepest context matching a suffix
        of the recent symbols (the root when nothing longer matches)."""
        recent = tuple(recent)
        for length in range(min(len(recent), self.max_order), 0, -1):
            node = self.nodes.get(recent[len(recent) - length:])
            if node is not None:
                return node
        return self.nodes[()]

    @classmethod
    def learn(
        cls,
        symbols: Sequence[str],
        *,
        max_order: int = 5,
        p_min: float = 0.001,
        ratio: float = 1.05,
        gamma: float = 0.01,
        alpha: float = 0.0,
        alphabet: Optional[Sequence[str]] = None,
    ) -> "Pst":
        """Grow a tree from empirical counts.

        A candidate context joins the tree when it is frequent enough
        (empirical probability at least p_min) and predicting from it is
        meaningful: some next symbol has conditional probability at least
        (1+alpha)*gamma and that probability differs from the parent
        context's by the given ratio in either direction. Candidates are
        extended one symbol into the past up to max_order whether or not
        they joined. Distributions are smoothed toward uniform by gamma."""
        symbols = list(symbols)
        n = len(symbols)
        if n < max_order + 1:
            raise InsufficientData(
                f"need at least {max_order + 1} symbols, got {n}"
            )
        sigma = sorted(set(symbols) | set(alphabet or ()))
        counts: dict[tuple[str, ...], Counter] = {}
        for i in range(n):
            sym = symbols[i]
            for length in range(0, min(max_order, i) + 1):
                ctx = tuple(symbols[i - length : i])
                bucket = counts.get(ctx)
                if bucket is None:
                    bucket = counts[ctx] = Counter()
                bucket[sym] += 1
        totals = {ctx: sum(bucket.values()) for ctx, bucket in counts.items()}

        def conditional(ctx: tuple[str, ...], sym: str) -> float:
            return counts[ctx].get(sym, 0) / totals[ctx]

        def frequent(ctx: tuple[str, ...]) -> bool:
            return totals.get(ctx, 0) / n >= p_min and totals.get(ctx, 0) > 0

        tree: set[tuple[str, ...]] = {()}
        queue: deque[tuple[str, ...]] = deque(
            (sym,) for sym in sigma if frequent((sym,))
        )
        threshold = (1.0 + alpha) * gamma
        while queue:
            ctx = queue.popleft()
            parent = ctx[1:]
            meaningful = False
            for sym in sigma:
                p = conditional(ctx, sym)
                if p < threshold:
                    continue
                q = conditional(parent, sym)
                if q == 0 or p / q >= ratio or p / q <= 1.0 / ratio:
                    meaningful = True
                    break
            if meaningful:
                node = ctx
                while node not in tree:
                    tree.add(node)
                    node = node[1:]
            if len(ctx) < max_order:
                queue.extend(
                    (sym,) + ctx for sym in sigma if frequent((sym,) + ctx)
                )

        floor = gamma / len(sigma)
        nodes = {}
        for ctx in tree:
            total = totals[ctx]
            nodes[ctx] = {
                sym: (1.0 - gamma) * counts[ctx].get(sym, 0) / total + floor
                for sym in sigma
            }
        return cls(max_order, sigma, nodes)


def log_loss(pst: Pst, symbols: Sequence[str]) -> float:
    """Mean negative base-2 log probability the tree assigns along the
    sequence; the compression rate in bits per symbol."""
    if not symbols:
        raise ValueError("log loss needs at least one symbol")
    total = 0.0
    history: list[str] = []
    for sym in symbols:
        p = pst.predict(history).get(sym, 0.0)
        if p <= 0.0:
            raise ValueError(f"model assigns no probability to symbol {sym!r}")
        total -= math.log2(p)
        history.append(sym)
    return total / len(symbols)


@dataclass(frozen=True)
class WaitingTimeDistribution:
    """Probability that the first future visit to a final state happens n
    steps ahead, for n = 1..len(masses); everything later or pruned is the
    residual."""

    origin_state: str
    origin_context: tuple[str, ...]
    masses: tuple[float, ...]
    residual: float

    def __post_init__(self) -> None:
        if any(m < 0 for m in self.masses) or self.residual < -1e-9:
            raise ValueError("waiting-time masses must be non-negative")
        if abs(sum(self.masses) + self.residual - 1.0) > 1e-9:
            raise ValueError("waiting-time masses and residual must sum to 1")


class WaitingTimes:
    """The waiting-time distributions of one model, computed on request and
    kept.

    A distribution depends only on the automaton state and the last
    max_order symbols, so `waits(state, context)` expands each distinct
    (state, context) pair once and answers later requests at that pair
    from a memo. The first request checks the automaton and builds its
    symbol-labelled edge table. The memo grows by one distribution per
    distinct pair requested and is never evicted."""

    def __init__(self, d: Sra, symbol_map: SymbolMap, pst: Pst, horizon: int = 32) -> None:
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.d = d
        self.symbol_map = symbol_map
        self.pst = pst
        self.horizon = horizon
        self._edges: Optional[dict[str, list[tuple[str, str]]]] = None
        self._memo: dict[tuple[str, tuple[str, ...]], WaitingTimeDistribution] = {}

    def __call__(self, state: str, context: Sequence[str] = ()) -> WaitingTimeDistribution:
        m = self.pst.max_order
        key = (state, tuple(context)[-m:] if m else ())
        wd = self._memo.get(key)
        if wd is None:
            wd = self._memo[key] = self._expand(*key)
        return wd

    def _expand(self, state: str, origin_context: tuple[str, ...]) -> WaitingTimeDistribution:
        """Expand the joint (automaton state, recent-symbol context) future up
        to the horizon.

        Each edge carries the tree's probability of its symbol given the
        current context, renormalized over the symbols actually available at
        the state (identity when every state offers the whole alphabet);
        paths end at final states, and mass that is still live at the
        horizon is reported as residual."""
        d, pst, edges = self.d, self.pst, self._edges
        if edges is None:
            if not d.deterministic or d.has_epsilon:
                raise NotDeterministic("waiting times need a deterministic automaton")
            edges = {}
            for q in d.states:
                ts = d.out(q)
                if not ts:
                    raise NotComplete(f"state {q} has no outgoing transitions")
                edges[q] = [(self.symbol_map.symbol_for(t.condition), t.target) for t in ts]
            self._edges = edges
        m = pst.max_order
        frontier: dict[tuple[str, tuple[str, ...]], float] = {(state, origin_context): 1.0}
        masses = []
        pruned = 0.0
        for _ in range(self.horizon):
            mass = 0.0
            advanced: dict[tuple[str, tuple[str, ...]], float] = {}
            for (q, ctx), p in sorted(frontier.items()):
                dist = pst.predict(ctx)
                available = edges[q]
                z = sum(dist.get(sym, 0.0) for sym, _ in available)
                if z <= 0.0:
                    pruned += p
                    continue
                for sym, target in available:
                    p2 = p * dist.get(sym, 0.0) / z
                    if p2 <= 0.0:
                        continue
                    if target in d.finals:
                        mass += p2
                    else:
                        key = (target, (ctx + (sym,))[-m:] if m else ())
                        advanced[key] = advanced.get(key, 0.0) + p2
            masses.append(mass)
            frontier = advanced
        residual = sum(frontier.values()) + pruned
        return WaitingTimeDistribution(state, origin_context, tuple(masses), residual)


def waiting_time(
    d: Sra,
    symbol_map: SymbolMap,
    pst: Pst,
    state: str,
    context: Sequence[str] = (),
    horizon: int = 32,
) -> WaitingTimeDistribution:
    """One waiting-time distribution; see WaitingTimes, which keeps them for
    a stream of requests against the same model."""
    return WaitingTimes(d, symbol_map, pst, horizon)(state, context)


def forecast_regression(wd: WaitingTimeDistribution) -> int:
    """The most probable number of steps until the next match, earliest step
    winning ties."""
    if not wd.masses:
        raise ValueError("empty waiting-time distribution")
    best = 0
    for i, mass in enumerate(wd.masses):
        if mass > wd.masses[best]:
            best = i
    return best + 1


def forecast_classification(wd: WaitingTimeDistribution, w: int, theta: float) -> bool:
    """Whether a match within the next w steps is at least theta probable."""
    if not 1 <= w <= len(wd.masses):
        raise ValueError("classification window must lie within the horizon")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return sum(wd.masses[:w]) >= theta
