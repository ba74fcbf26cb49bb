"""Constructions between expressions and automata: compilation,
ε-elimination, single-register normalization, window unrolling, minterms,
determinization, completion, complement, and the two stream machines.
The closure operations and the translation back to an expression, which
no command but `to-srem` runs, are in `cerf.closure`."""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .algebra import (
    _COMPARISONS,
    _FLIPPED,
    And,
    Atom,
    Condition,
    Not,
    Or,
    Register,
    TRUE,
    TrueCondition,
    Value,
    _Frozen,
    _compare_values,
    _walk,
    conjoin,
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


class NotAMinterm(ValueError):
    """The condition does not have the conjunct structure minterms() produces."""


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
# Minterms


def _literal_bounds(condition: Condition) -> tuple:
    """The ((argument, attribute), (op, constant)) bounds a condition asserts
    when it holds: one per atom on its conjunction spine whose declaration
    compares one parameter's attribute to a text or number literal, turned
    to read `attribute op constant`. Other atoms add no bound."""
    bounds = []
    for node in _walk(condition, (And,)):
        if not isinstance(node, Atom) or node.predicate.declaration is None:
            continue
        left, op, right = node.predicate.declaration
        if left[0] == "lit":
            left, op, right = right, _FLIPPED[op], left
        if left[0] == "attr" and right[0] == "lit" and isinstance(right[1], (str, int, float)):
            bounds.append(((node.args[left[1]], left[2]), (op, right[1])))
    return tuple(bounds)


def _satisfiable(bounds: Sequence[tuple[str, Value]]) -> bool:
    """Whether one attribute value can meet every (op, constant) bound under
    `_compare_values`. Sound and partial: an open range low < value < high
    counts as satisfiable whenever low < high."""
    if len({isinstance(constant, str) for _, constant in bounds}) > 1:
        return False  # text against number: every such comparison is false
    for op, constant in bounds:
        if op == "==":
            return all(_compare_values(constant, _COMPARISONS[o], c) for o, c in bounds)
    excluded = [constant for op, constant in bounds if op == "!="]
    for low_op, low in bounds:
        if low_op not in (">", ">="):
            continue
        for high_op, high in bounds:
            if high_op not in ("<", "<=") or low < high:
                continue
            closed = low_op == ">=" and high_op == "<="
            if not (closed and low == high and all(low != c for c in excluded)):
                return False
    return True


def _narrowed(groups: dict, bounds: tuple) -> Optional[dict]:
    """The bounds by (argument, attribute) with `bounds` added, or None when
    a group they join becomes unsatisfiable."""
    if not bounds:
        return groups
    groups = dict(groups)
    for key, bound in bounds:
        groups[key] = groups.get(key, ()) + (bound,)
        if not _satisfiable(groups[key]):
            return None
    return groups


def _folds(condition: Condition, base: Sequence[Condition], earlier: Sequence[int]) -> list:
    """The sign vectors, as (index, sign) tuples over a prefix of the
    `earlier` base indices, whose literals fold left into `condition`:
    And(And(l0, l1), l2) for three literals, where a literal is b or Not(b)."""
    vectors = []
    rights: list[Condition] = []
    node = condition
    while isinstance(node, And) and len(rights) < len(earlier) - 1:
        rights.append(node.right)
        node = node.left
        vector = []
        for i, part in zip(earlier, [node, *reversed(rights)]):
            if part == base[i]:
                vector.append((i, True))
            elif isinstance(part, Not) and part.operand == base[i]:
                vector.append((i, False))
            else:
                break
        else:
            vectors.append(tuple(vector))
    return vectors


def _sign_clashes(base: Sequence[Condition]) -> list[tuple[list, list]]:
    """Per base index j, the sign requirements on earlier bases under which
    giving b_j the negative sign (first list) or the positive sign (second
    list) is cut, each a tuple of (i, sign of b_i) pairs that must all hold.
    They are the sign vectors whose minterm has on its conjunction spine a
    base it negates (a node of an asserted base's spine, the literal
    Not(b_i) or the conjunction of the literals before b_j), or that assert
    both b_i and Not(b_i): such minterms never hold."""
    index = {cond: k for k, cond in enumerate(base)}
    clashes: list[tuple[list, list]] = [([], []) for _ in base]
    earlier: list[int] = []  # indices of the bases before, TRUE left out
    for i, cond in enumerate(base):
        for node in _walk(cond, (And,)):
            j = index.get(node, i)
            if j > i:
                clashes[j][False].append(((i, True),))
            elif j < i:
                clashes[i][True].append(((j, False),))
        j = index.get(Not(cond))
        if j is not None:
            low, high = min(i, j), max(i, j)
            clashes[high][False].append(((low, False),))
            clashes[high][True].append(((low, True),))
        clashes[i][False].extend(_folds(cond, base, earlier))
        if not isinstance(cond, TrueCondition):
            earlier.append(i)
    return clashes


def minterms(conditions: Sequence[Condition]) -> tuple[tuple[Condition, tuple[int, ...]], ...]:
    """Maximal satisfiable sign combinations of the given conditions, each
    with its signs: (minterm, positives) pairs, where `positives` are the
    sorted indices, into the conditions deduplicated in first-seen order,
    of the conditions the minterm asserts. TRUE is always asserted.

    Each input condition appears exactly once per minterm, positively or
    negated, with positive TRUE conjuncts dropped. Sign vectors are
    generated depth first, positive branch first, so kept minterms come out
    in `itertools.product((True, False), ...)` order. A prefix is cut, with
    everything below it, as soon as it negates TRUE, or its signs clash
    structurally, or its positive literals conflict.
    - Structural clash (precomputed per base list, see `_sign_clashes`):
      the minterm would have on its conjunction spine a base it negates,
      such as a base asserted b_i with b_j on b_i's spine and b_j negated,
      or b and Not(b) both negated; or it asserts both b and Not(b). With
      these cut, the signs are exact: a kept minterm has a base on its
      spine exactly when it asserts it, which is what `entails` tests.
    - Literal conflict: the positive literals bound one attribute of one
      argument (`~` or a register) to constants of different kinds, to
      unequal `==` constants, or to an empty `== != < <= > >=` range.
    Both checks are sound and partial: negated literals, `Or`,
    attribute-against-attribute atoms and predicates without a declaration
    bound no range, so a kept minterm may still be unsatisfiable. The
    minterms are pairwise mutually exclusive and exhaustive: exactly one
    holds for any (event, valuation). Minterms sharing a prefix share its
    conjunction node.
    """
    base = list(dict.fromkeys(conditions))
    if not base:
        return ((TRUE, ()),)
    bounds = [_literal_bounds(cond) for cond in base]
    clashes = _sign_clashes(base)
    negated = [Not(cond) for cond in base]
    out: list[tuple[Condition, tuple[int, ...]]] = []
    # (depth, conjunction of the literals so far or None, positives so far,
    # bounds so far)
    stack: list[tuple[int, Optional[Condition], tuple[int, ...], dict]] = [(0, None, (), {})]
    while stack:
        depth, prefix, positives, groups = stack.pop()
        if depth == len(base):
            out.append((TRUE if prefix is None else prefix, positives))
            continue
        cond = base[depth]
        # a negated TRUE never holds, and a positive one adds no conjunct
        is_true = isinstance(cond, TrueCondition)
        for positive in (True,) if is_true else (False, True):
            clash = clashes[depth][positive]
            if clash and any(
                all((i in positives) is sign for i, sign in vector) for vector in clash
            ):
                continue
            if not positive:
                stack.append((depth + 1, _conjoined(prefix, negated[depth]), positives, groups))
                continue
            kept = _narrowed(groups, bounds[depth])
            if kept is not None:
                conjunction = prefix if is_true else _conjoined(prefix, cond)
                stack.append((depth + 1, conjunction, positives + (depth,), kept))
    return tuple(out)


def _conjoined(prefix: Optional[Condition], literal: Condition) -> Condition:
    return literal if prefix is None else And(prefix, literal)


def entails(minterm: Condition, condition: Condition) -> bool:
    """Whether a minterm entails one of the conditions it was built from.

    True iff the condition occurs as a positive conjunct anywhere on the
    minterm's conjunction spine. The tautology is entailed by every minterm
    (its conjunct is dropped during simplification, but everything implies
    TRUE). Descending the full spine rather than only the top-level fold
    keeps the test exact when a base condition is itself a conjunction.

    `minterms` hands out each minterm's signs, which `determinize` reads
    instead; this spine test is the independent reference they are checked
    against. No command calls it; perfbench/tracing.py wraps it by its name
    here, `compiler.entails`, as it wraps `compiler.minterms`.
    """
    if not isinstance(minterm, (TrueCondition, Atom, Not, And, Or)):
        raise NotAMinterm(repr(minterm))
    if condition == TRUE:
        return True
    return any(node == condition for node in _walk(minterm, (And,)))


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
