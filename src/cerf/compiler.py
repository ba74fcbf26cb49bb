"""Constructions between expressions and automata: compilation,
ε-elimination, single-register normalization, closure operations, window
unrolling, determinization, complement, and back-translation to an
expression."""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Hashable, Iterable, Optional

from .algebra import (
    And,
    Condition,
    Not,
    Register,
    TRUE,
    _Frozen,
    conjoin,
    entails,  # not called here; perfbench/tracing.py reads and rebinds compiler.entails
    minterms,
    registers_of,
    substitute_registers,
)
from .automaton import (
    NotDeterministic,
    PreconditionFailed,
    Sra,
    Transition,
    epsilon_closure,
    outgoing,
    successor,
)
from .pattern import (
    Alt,
    Concat,
    Cond,
    CondWrite,
    EMPTY,
    EPSILON,
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


def _fresh_state(base: str, avoid: frozenset[str]) -> str:
    name = base
    k = 2
    while name in avoid:
        name = f"{base}{k}"
        k += 1
    return name


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
    the route from a pattern to the constructions below, which take
    automata."""
    if not isinstance(e, Window):
        raise NotWindowed("unrolling needs a window (use 'within N' or --window)")
    a = compile_expr(e.body)
    a = eliminate_epsilon(a)
    a = to_single_register(a)
    unrolled, _maps = unroll(a, e.width)
    return unrolled


# ---------------------------------------------------------------------------
# Determinization and complement


def determinize(a: Sra) -> Sra:
    """Powerset construction with minterm labels over an unrolled automaton,
    such as `compile_windowed` builds.

    States are the sets of original states reachable from {start}. Per
    subset, the distinct outgoing conditions generate minterms, less those
    that cannot hold (see `minterms`); each minterm that asserts at least
    one outgoing condition becomes one transition to the targets of the
    transitions under the conditions it asserts, read off its signs,
    writing the union of their write registers. Subsets with the same
    outgoing conditions share one minterm family, generated once per call.
    Exactly one minterm fires for any (event, valuation), so the result is
    deterministic."""
    if a.has_epsilon or not a.is_acyclic():
        raise NotUnrolled("determinize needs an acyclic epsilon-free automaton")
    families: dict[tuple[Condition, ...], tuple] = {}

    def step(subset: frozenset[str]) -> Iterable[Move]:
        by_condition = outgoing(a, subset)
        conditions = tuple(by_condition)
        if conditions not in families:
            families[conditions] = minterms(conditions)
        groups = list(by_condition.values())
        for mt, positives in families[conditions]:
            writes, targets = successor(groups, positives)
            if targets:
                yield mt, writes, targets

    return _reachable(
        frozenset((a.start,)),
        step,
        _set_name,
        lambda subset: bool(subset & a.finals),
        registers=a.registers,
        window=a.window,
        deterministic=True,
    )


def complete(a: Sra) -> Sra:
    """Add a dead state and, per original state, one transition guarded by
    the negation of everything else leaving it, so every (event, valuation)
    fires some transition everywhere."""
    if a.has_epsilon:
        raise ValueError("complete needs an epsilon-free automaton")
    dead = _fresh_state("dead", a.states)
    transitions = list(a.transitions)
    for q in sorted(a.states):
        conds = [t.condition for t in a.out(q)]
        guard = conjoin([Not(c) for c in conds]) if conds else TRUE
        transitions.append(Transition(q, dead, guard))
    transitions.append(Transition(dead, dead, TRUE))
    return Sra(
        states=a.states | {dead},
        start=a.start,
        finals=a.finals,
        registers=a.registers,
        transitions=tuple(transitions),
        window=a.window,
        deterministic=a.deterministic,
    )


def complete_and_complement(a: Sra) -> Sra:
    """Complete a deterministic automaton, then swap final and non-final
    status of every state (the dead state included), accepting exactly the
    strings the input rejects."""
    if not a.deterministic or a.has_epsilon:
        raise NotDeterministic("complement needs a deterministic epsilon-free automaton")
    completed = complete(a)
    return Sra(
        states=completed.states,
        start=completed.start,
        finals=completed.states - completed.finals,
        registers=completed.registers,
        transitions=completed.transitions,
        window=completed.window,
        deterministic=completed.deterministic,
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


def never_sinking(tree: Sra) -> Sra:
    """The ε-free machine for `TRUE* ; (R within w)`, built from R's
    unrolled tree (`compile_windowed`): a clock of w `TRUE` steps
    c0 -> c1 -> ... -> c0, and one copy of the tree per phase p, with states
    `q@p` and registers `r@p`, whose root is the clock state c_p.

    A run that starts at c_p lives at most w events, so it has ended before
    the clock is back at c_p, and the tree writes each register copy on one
    transition and reads it only below it. So the runs alive at once never
    need two events in one register, and one slot tuple holds them all
    (`automaton.SubsetRunner`). The clock always steps, so nothing sinks
    and no completion is needed. A clock state is final when the root is,
    that is when R matches the empty string."""
    if tree.window is None or tree.has_epsilon or not tree.is_acyclic():
        raise NotUnrolled("the never-sinking machine needs an unrolled tree")
    clock = [f"c{p}" for p in range(tree.window)]
    states, finals, registers, transitions = set(clock), set(), set(), []
    for p, tick in enumerate(clock):
        renamed = {r: Register(f"{r.name}@{p}") for r in tree.registers}
        copies = {q: tick if q == tree.start else f"{q}@{p}" for q in tree.states}
        # equal conditions of one copy become one object, compiled once
        conditions: dict[Condition, Condition] = {}
        transitions.append(Transition(tick, clock[(p + 1) % len(clock)], TRUE))
        for t in tree.transitions:
            condition = conditions.get(t.condition)
            if condition is None:
                condition = conditions[t.condition] = substitute_registers(t.condition, renamed)
            writes = frozenset(renamed[r] for r in t.writes)
            transitions.append(Transition(copies[t.source], copies[t.target], condition, writes))
        states.update(copies.values())
        finals.update(copies[q] for q in tree.finals)
        registers.update(renamed.values())
    return Sra(
        states=frozenset(states),
        start=clock[0],
        finals=frozenset(finals),
        registers=frozenset(registers),
        transitions=tuple(transitions),
        window=tree.window,
    )
