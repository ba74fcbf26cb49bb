"""Minterms, determinization, completion and complement: the constructions
over unrolled automata that `determinize`, `complement`, `learn` and
`compile --stage dsra` run. The expression -> automaton constructions are
in `cerf.construct`, so that `recognize` does not compile this module.
The closure operations and the translation back to an expression, which
no command but `to-srem` runs, are in `cerf.closure`."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .algebra import (
    _COMPARISONS,
    _FLIPPED,
    And,
    Atom,
    Condition,
    Not,
    Or,
    TRUE,
    TrueCondition,
    Value,
    _compare_values,
    _walk,
    conjoin,
)
from .automaton import NotDeterministic, Sra, Transition, outgoing, successor
from .construct import Move, NotUnrolled, _fresh_state, _reachable, _set_name

# perfbench/tracing.py calls the construction stages it times by their
# names on this module (`compiler.unroll`), so they are importable here too.
from .construct import (  # noqa: F401
    compile_expr,
    eliminate_epsilon,
    streaming_automaton,
    to_single_register,
    unroll,
)


class NotAMinterm(ValueError):
    """The condition does not have the conjunct structure minterms() produces."""


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
    fires some transition everywhere. States with the same outgoing
    conditions, in order, share one guard, built once."""
    if a.has_epsilon:
        raise ValueError("complete needs an epsilon-free automaton")
    dead = _fresh_state("dead", a.states)
    transitions = list(a.transitions)
    guards: dict[tuple[Condition, ...], Condition] = {}
    for q in sorted(a.states):
        conds = tuple(t.condition for t in a.out(q))
        if conds not in guards:
            guards[conds] = conjoin([Not(c) for c in conds]) if conds else TRUE
        transitions.append(Transition(q, dead, guards[conds]))
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
