"""The span-memo derivation oracle, kept as the reference that the
left-to-right oracle in `cerf.pattern` is checked against: an independent
second definition of the expressions' semantics.

`derive` recurses over the expression with a memo on (node, span,
valuation) and starts afresh for every string, so it is quadratic in the
string length; use it on short strings only."""

from __future__ import annotations

from typing import Sequence

from cerf.algebra import EMPTY_VALUATION, Condition, EvalScope, Event, Valuation
from cerf.pattern import (
    Alt,
    Concat,
    Cond,
    CondWrite,
    Empty,
    Epsilon,
    Expr,
    Star,
    Window,
)


def derive(
    e: Expr, events: Sequence[Event], valuation: Valuation = EMPTY_VALUATION
) -> frozenset[Valuation]:
    """All valuations the expression can produce by consuming exactly the
    given string, starting from the given valuation.

    Structural recursion over the expression with memoization on
    (node, span, valuation). A Star iteration must consume at least one
    element, which keeps the recursion finite on nullable bodies without
    changing the language (an empty iteration leaves the valuation as it is).
    Atoms reading unbound registers are simply unsatisfied.
    """
    events = tuple(events)
    memo: dict = {}

    def sat(cond: Condition, index: int, v: Valuation) -> bool:
        return EvalScope(v).evaluate(cond, events[index])

    def go(node: Expr, i: int, j: int, v: Valuation) -> frozenset[Valuation]:
        # Keyed by node identity: every node stays alive for the whole call,
        # and hashing a frozen-dataclass node would re-walk its subtree.
        key = (id(node), i, j, v)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out: frozenset[Valuation]
        if isinstance(node, Empty):
            out = frozenset()
        elif isinstance(node, Epsilon):
            out = frozenset((v,)) if i == j else frozenset()
        elif isinstance(node, Cond):
            if j == i + 1 and sat(node.condition, i, v):
                out = frozenset((v,))
            else:
                out = frozenset()
        elif isinstance(node, CondWrite):
            if j == i + 1 and sat(node.condition, i, v):
                out = frozenset((v.set(node.register, events[i]),))
            else:
                out = frozenset()
        elif isinstance(node, Concat):
            acc = set()
            for k in range(i, j + 1):
                for mid in go(node.left, i, k, v):
                    acc.update(go(node.right, k, j, mid))
            out = frozenset(acc)
        elif isinstance(node, Alt):
            out = go(node.left, i, j, v) | go(node.right, i, j, v)
        elif isinstance(node, Star):
            # after[k - i]: valuations after iterations covering [i, k); a
            # loop over positions, so the depth does not grow with the input
            after: list[set[Valuation]] = [{v}]
            for k in range(i + 1, j + 1):
                reached: set[Valuation] = set()
                for m in range(i, k):
                    for mid in after[m - i]:
                        reached.update(go(node.body, m, k, mid))
                after.append(reached)
            out = frozenset(after[-1])
        elif isinstance(node, Window):
            if j - i <= node.width:
                out = go(node.body, i, j, v)
            else:
                out = frozenset()
        else:
            raise TypeError(f"not an expression: {node!r}")
        memo[key] = out
        return out

    return go(e, 0, len(events), valuation)


def accepts(e: Expr, events: Sequence[Event]) -> bool:
    """Membership: whether the expression derives the string from an empty
    valuation."""
    return bool(derive(e, events))
