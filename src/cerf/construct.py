"""Expression -> automaton: compilation, ε-elimination, single-register
normalization, window unrolling, and the streaming wrapper. Recognition
runs on what this module builds, so `recognize` and `to-srem` load it and
not `cerf.compiler`, which holds minterms, determinization, completion and
complement and imports what it needs from here."""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Optional

from .algebra import Condition, Register, TRUE, _Frozen, registers_of, substitute_registers
from .automaton import PreconditionFailed, Sra, Transition, epsilon_closure
from .pattern import (
    Alt,
    Concat,
    Cond,
    CondWrite,
    Empty,
    Epsilon,
    Expr,
    Star,
    Window,
    top_registers,
)


class WindowedInput(PreconditionFailed):
    """compile() takes unwindowed expressions; windows go through
    compile_windowed()."""


class NotWindowed(PreconditionFailed):
    """The operation needs a windowed expression."""


class NotUnrolled(PreconditionFailed):
    """The operation needs an acyclic (unrolled) ε-free automaton."""


# ---------------------------------------------------------------------------
# Expression -> automaton (Thompson-style composition)


def compile_expr(e: Expr) -> Sra:
    """Compose an automaton structurally: one fresh two-state fragment per
    leaf, ε-glue for concatenation, fresh fan-out/fan-in states for
    alternation and star. The register set is fixed upfront to every
    register the whole expression mentions."""
    if isinstance(e, Window):
        raise WindowedInput("windowed expressions compile via compile_windowed")
    registers = top_registers(e)
    transitions: list[tuple[int, Optional[Condition], frozenset[Register], int]] = []
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    def go(node: Expr) -> tuple[int, int]:
        if isinstance(node, Empty):
            return fresh(), fresh()
        if isinstance(node, Epsilon):
            s, f = fresh(), fresh()
            transitions.append((s, None, frozenset(), f))
            return s, f
        if isinstance(node, Cond):
            s, f = fresh(), fresh()
            transitions.append((s, node.condition, frozenset(), f))
            return s, f
        if isinstance(node, CondWrite):
            s, f = fresh(), fresh()
            transitions.append((s, node.condition, frozenset((node.register,)), f))
            return s, f
        if isinstance(node, Concat):
            s1, f1 = go(node.left)
            s2, f2 = go(node.right)
            transitions.append((f1, None, frozenset(), s2))
            return s1, f2
        if isinstance(node, Alt):
            s, f = fresh(), fresh()
            s1, f1 = go(node.left)
            s2, f2 = go(node.right)
            transitions.append((s, None, frozenset(), s1))
            transitions.append((s, None, frozenset(), s2))
            transitions.append((f1, None, frozenset(), f))
            transitions.append((f2, None, frozenset(), f))
            return s, f
        if isinstance(node, Star):
            s, f = fresh(), fresh()
            s1, f1 = go(node.body)
            transitions.append((s, None, frozenset(), s1))
            transitions.append((s, None, frozenset(), f))
            transitions.append((f1, None, frozenset(), s1))
            transitions.append((f1, None, frozenset(), f))
            return s, f
        raise WindowedInput("windows do not nest inside expressions")

    start, final = go(e)
    return Sra(
        states=frozenset(f"q{i}" for i in range(counter)),
        start=f"q{start}",
        finals=frozenset((f"q{final}",)),
        registers=registers,
        transitions=tuple(
            Transition(f"q{s}", f"q{t}", cond, writes) for s, cond, writes, t in transitions
        ),
    )


# ---------------------------------------------------------------------------
# Reachable-state constructions


Move = tuple[Optional[Condition], frozenset[Register], Hashable]


def _reachable(
    start: Hashable,
    step: Callable[[Hashable], Iterable[Move]],
    name: Callable[[Hashable], str],
    is_final: Callable[[Hashable], bool],
    **fields,
) -> Sra:
    """The automaton whose states are the keys reachable from `start`.

    Keys are explored breadth-first and named by `name` when first reached;
    each (condition, writes, target key) that `step(key)` yields becomes one
    transition, in the order yielded. Equal write sets become one object, as
    a construction yields a new set per move but few distinct ones. `fields`
    are the remaining Sra fields (registers, window, deterministic)."""
    names = {start: name(start)}
    shared: dict[frozenset[Register], frozenset[Register]] = {}
    queue = deque((start,))
    transitions = []
    while queue:
        key = queue.popleft()
        for condition, writes, target in step(key):
            if target not in names:
                names[target] = name(target)
                queue.append(target)
            writes = shared.setdefault(writes, writes)
            transitions.append(Transition(names[key], names[target], condition, writes))
    return Sra(
        states=frozenset(names.values()),
        start=names[start],
        finals=frozenset(n for key, n in names.items() if is_final(key)),
        transitions=tuple(transitions),
        **fields,
    )


# ---------------------------------------------------------------------------
# ε-elimination


def _fresh_state(base: str, avoid: frozenset[str]) -> str:
    name = base
    k = 2
    while name in avoid:
        name = f"{base}{k}"
        k += 1
    return name


def _set_name(members: frozenset[str]) -> str:
    return "+".join(sorted(members))


def eliminate_epsilon(a: Sra) -> Sra:
    """Forward closure construction: output states are ε-closures of
    reachable originals, each transition re-targeted to the closure of its
    target; a closure is final when it contains an original final."""

    def step(closure: frozenset[str]) -> Iterable[Move]:
        # Identical moves out of one closure collapse into one transition.
        return dict.fromkeys(
            (t.condition, t.writes, epsilon_closure(a, t.target))
            for member in sorted(closure)
            for t in a.out(member)
            if not t.is_epsilon
        )

    return _reachable(
        epsilon_closure(a, a.start),
        step,
        _set_name,
        lambda closure: bool(closure & a.finals),
        registers=a.registers,
        window=a.window,
    )


# ---------------------------------------------------------------------------
# Multi-register -> single-register normalization


def _fresh_names(base: str, count: int, avoid: set[str]) -> list[str]:
    prefix = base
    while any(f"{prefix}{i}" in avoid for i in range(1, count + 1)):
        prefix += base
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def to_single_register(a: Sra) -> Sra:
    """Rewrite an automaton with multi-register writes into one where every
    transition writes at most one register.

    States are paired with an ordered partition of the original register set;
    reads go to the partition block holding the original register, and a
    write W collapses into the lowest block entirely inside W (an empty block
    or a member singleton always qualifies), with the partition updated
    accordingly. Single-write inputs come back unchanged."""
    if a.is_single_write:
        return a
    originals = sorted(a.registers)
    n = len(originals)
    slot_names = _fresh_names("u", n, {r.name for r in originals})
    slots = [Register(name) for name in slot_names]
    start_partition = (frozenset(originals),) + (frozenset(),) * (n - 1)

    def name(key) -> str:
        q, p = key
        blocks = (",".join(sorted(r.name for r in block)) if block else "-" for block in p)
        return f"{q}[{'/'.join(blocks)}]"

    def step(key) -> Iterable[Move]:
        q, p = key
        slot_of = {r: slots[i] for i, block in enumerate(p) for r in block}
        for t in a.out(q):
            if t.is_epsilon:
                yield None, frozenset(), (t.target, p)
                continue
            condition = substitute_registers(t.condition, slot_of)
            if not t.writes:
                yield condition, frozenset(), (t.target, p)
                continue
            k = next(i for i in range(n) if p[i] <= t.writes)
            p2 = tuple(
                (block | t.writes) if i == k else (block - t.writes)
                for i, block in enumerate(p)
            )
            yield condition, frozenset((slots[k],)), (t.target, p2)

    return _reachable(
        (a.start, start_partition),
        step,
        name,
        lambda key: key[0] in a.finals,
        registers=frozenset(slots),
        window=a.window,
    )


# ---------------------------------------------------------------------------
# Window unrolling


class UnrollMaps:
    """Book-keeping from unrolled copies back to originals."""

    __slots__ = ("copy_of_q", "copy_of_r")

    def __init__(self, copy_of_q: dict[str, str], copy_of_r: dict[Register, Register]) -> None:
        self.copy_of_q = copy_of_q
        self.copy_of_r = copy_of_r

    __repr__ = _Frozen.__repr__


def unroll(a: Sra, width: int) -> tuple[Sra, UnrollMaps]:
    """Expand an ε-free single-write automaton into a tree whose runs have
    length at most `width` and whose language is the original's restricted
    to strings of that length.

    Every expansion step clones the original transition; a write mints a
    fresh register copy, and later reads along the same trail are rebound to
    the newest copy minted before them. Reads of a register never written on
    the trail keep the original name (and can then never be satisfied, since
    nothing in the tree writes it). Branches that cannot reach a final state
    within the remaining budget are pruned."""
    if width < 1:
        raise ValueError("window width must be at least 1")
    if a.has_epsilon:
        raise ValueError("unroll needs an epsilon-free automaton")
    if not a.is_single_write:
        raise ValueError("unroll needs a single-write automaton (run to_single_register)")

    # Fewest transitions from each state to any final (reverse BFS).
    incoming: dict[str, list[str]] = {q: [] for q in a.states}
    for t in a.transitions:
        incoming[t.target].append(t.source)
    distance = {q: 0 for q in a.finals}
    frontier = sorted(a.finals)
    while frontier:
        nxt = []
        for q in frontier:
            for p in incoming[q]:
                if p not in distance:
                    distance[p] = distance[q] + 1
                    nxt.append(p)
        frontier = sorted(set(nxt))

    copy_of_q: dict[str, str] = {}
    copy_of_r: dict[Register, Register] = {}
    mint_counts: dict[Register, int] = {}
    avoid = {r.name for r in a.registers}

    def mint(original: Register) -> Register:
        mint_counts[original] = mint_counts.get(original, 0) + 1
        name = f"{original.name}_{mint_counts[original]}"
        while name in avoid:
            mint_counts[original] += 1
            name = f"{original.name}_{mint_counts[original]}"
        avoid.add(name)
        fresh = Register(name)
        copy_of_r[fresh] = original
        return fresh

    counter = 0

    def fresh_node(original: str) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        copy_of_q[name] = original
        return name

    root = fresh_node(a.start)
    transitions: list[Transition] = []
    finals = set()
    if a.start in a.finals:
        finals.add(root)
    # (node name, original state, depth, last-written copy per original)
    queue: deque[tuple[str, str, int, dict[Register, Register]]] = deque(
        ((root, a.start, 0, {}),)
    )
    while queue:
        node, original, depth, lastwrite = queue.popleft()
        for t in a.out(original):
            target_distance = distance.get(t.target)
            if target_distance is None or depth + 1 + target_distance > width:
                continue
            condition = substitute_registers(t.condition, lastwrite)
            if t.writes:
                written = next(iter(t.writes))
                copy = mint(written)
                writes = frozenset((copy,))
                child_lastwrite = {**lastwrite, written: copy}
            else:
                writes = frozenset()
                child_lastwrite = lastwrite
            child = fresh_node(t.target)
            if t.target in a.finals:
                finals.add(child)
            transitions.append(Transition(node, child, condition, writes))
            queue.append((child, t.target, depth + 1, child_lastwrite))

    mentioned = set(copy_of_r)
    for t in transitions:
        mentioned |= registers_of(t.condition)
    unrolled = Sra(
        states=frozenset(copy_of_q),
        start=root,
        finals=frozenset(finals),
        registers=frozenset(mentioned),
        transitions=tuple(transitions),
        window=width,
    )
    return unrolled, UnrollMaps(copy_of_q, copy_of_r)


def compile_windowed(e: Expr) -> Sra:
    """Full pipeline for a windowed expression: compile the body, eliminate
    ε-moves, normalize to single-write, unroll to the window width. This is
    the route from a pattern to determinization (`cerf.compiler`) and to
    the subset machine (`cerf.diagram`), which take automata."""
    if not isinstance(e, Window):
        raise NotWindowed("unrolling needs a window (use 'within N' or --window)")
    a = compile_expr(e.body)
    a = eliminate_epsilon(a)
    a = to_single_register(a)
    unrolled, _maps = unroll(a, e.width)
    return unrolled


# ---------------------------------------------------------------------------
# Streaming wrapper


def streaming_automaton(a: Sra) -> Sra:
    """Wrap an automaton so that a run over a whole stream prefix accepts
    exactly when some suffix of the prefix is in the original language: a
    fresh start with a tautology self-loop feeds the original start."""
    start = _fresh_state("stream", a.states)
    transitions = (
        Transition(start, start, TRUE),
        Transition(start, a.start, None),
    ) + a.transitions
    wrapped = Sra(
        states=a.states | {start},
        start=start,
        finals=a.finals,
        registers=a.registers,
        transitions=transitions,
    )
    return eliminate_epsilon(wrapped)
