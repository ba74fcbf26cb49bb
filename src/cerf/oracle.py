"""The derivation oracle: membership decided from a pattern's expression
directly, without automata. It is the ground truth the compiled pipeline
is checked against; `cerf oracle` and `pattern.derive` step it. Only they
load this module.

A residual, what an expression has left to match after some prefix, is
itself an expression node, hash-consed like every other, so equal
residuals are one object. A window's countdown is the one node type of
its own, `_Bounded`."""

from __future__ import annotations

from typing import Iterable, Iterator

from .algebra import EMPTY_VALUATION, EvalScope, Event, Valuation, _intern
from .pattern import EPSILON, Alt, Concat, Cond, CondWrite, Expr, Star, Window


class _Bounded(Expr):
    """A window's body residual, which may consume at most `width` more
    elements. Unlike `Window`, it admits width 0 and does not walk its
    body."""

    __slots__ = ("body", "width")

    def __new__(cls, body: Expr, width: int) -> "_Bounded":
        return _intern(_Bounded, {"body": body, "width": width, "nullable": body.nullable})


# One (residual, valuation) pair of a configuration set.
Pair = tuple[Expr, Valuation]


def _factors(e: Concat) -> list[Expr]:
    """The factors of a concatenation tree, left to right: its maximal
    subexpressions that are not concatenations."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Concat):
            stack += (node.right, node.left)
        else:
            out.append(node)
    return out


def _cat(left: Expr, right: Expr) -> Expr:
    """The concatenation of two residuals, right-associated: `left`'s
    factors are chained onto `right` one by one, so a residual
    concatenation's left side is never itself one, and each residual of a
    long chain is one new node."""
    spine = []
    while isinstance(left, Concat):
        spine.append(left.left)
        left = left.right
    spine.append(left)
    for factor in reversed(spine):
        if right is EPSILON:
            right = factor
        elif factor is not EPSILON:
            right = Concat(factor, right)
    return right


def _bounded(body: Expr, width: int) -> Expr:
    return body if body is EPSILON else _Bounded(body, width)


def _residual(e: Expr) -> Expr:
    """The expression as a residual: its concatenation chains
    right-associated and its window a `_Bounded`. A concatenation tree is
    converted as a whole, from its factors, so its nested concatenations
    are never converted on their own. Iterative, so no expression is too
    deep for it."""
    preorder, factors, stack = [], {}, [e]
    while stack:
        node = stack.pop()
        preorder.append(node)
        if isinstance(node, Concat):
            factors[node] = _factors(node)
            stack += factors[node]
        elif isinstance(node, Alt):
            stack += (node.left, node.right)
        elif isinstance(node, (Star, Window)):
            stack.append(node.body)
    # Reversed preorder puts every node after its descendants.
    converted: dict[Expr, Expr] = {}
    for node in reversed(preorder):
        if isinstance(node, Concat):
            residual = EPSILON
            for factor in reversed(factors[node]):
                residual = _cat(converted[factor], residual)
        elif isinstance(node, Alt):
            residual = Alt(converted[node.left], converted[node.right])
        elif isinstance(node, Star):
            residual = Star(converted[node.body])
        elif isinstance(node, Window):
            residual = _bounded(converted[node.body], node.width)
        else:
            residual = node
        converted[node] = residual
    return converted[e]


def _needs(node: Expr) -> tuple[Expr, ...]:
    """The residuals whose moves make up `node`'s."""
    if isinstance(node, Concat):
        return (node.left, node.right) if node.left.nullable else (node.left,)
    if isinstance(node, Alt):
        return (node.left, node.right)
    if isinstance(node, Star) or (isinstance(node, _Bounded) and node.width > 0):
        return (node.body,)
    return ()


class Oracle:
    """The derivation relation of one expression, read left to right.

    A configuration is a set of (residual, valuation) pairs: Antimirov's
    partial derivatives (TCS 1996), each paired with the valuation the
    consumed prefix produced. `step` consumes one element: a condition
    leaf steps to the empty string when its condition holds, and a write
    also stores the whole element; a concatenation steps its left side,
    and its right side too when the left is nullable; an alternation steps
    both sides; a star steps its body and then continues with the star;
    a window steps to a bounded residual that carries the width left. A
    pair whose residual is nullable has derived the prefix, whatever its
    valuation, as an empty match writes nothing.

    Residuals are expression nodes, one object per value. The oracle
    builds each one's moves once, the (condition, register or None,
    residual) triples by which it consumes one element, so after the first
    visit a step only evaluates conditions. Concatenations are
    right-associated, so a chain of n factors, however it nests, has O(n)
    residuals. Both walks are iterative, so no expression is too deep for
    them."""

    def __init__(self, e: Expr) -> None:
        self.root = _residual(e)
        self._moves: dict[Expr, tuple] = {}

    def _build(self, node: Expr) -> tuple:
        """The moves of `node`, building them and those they need first,
        depth first with an explicit stack."""
        moves, stack = self._moves, [node]
        while stack:
            top = stack[-1]
            pending = [n for n in _needs(top) if n not in moves]
            if pending:
                stack += pending
                continue
            stack.pop()
            if top not in moves:
                moves[top] = tuple(self._moves_of(top))
        return moves[node]

    def _moves_of(self, node: Expr) -> Iterator[tuple]:
        moves = self._moves
        if isinstance(node, Cond):
            yield node.condition, None, EPSILON
        elif isinstance(node, CondWrite):
            yield node.condition, node.register, EPSILON
        elif isinstance(node, Concat):
            for cond, reg, rest in moves[node.left]:
                yield cond, reg, _cat(rest, node.right)
            if node.left.nullable:
                yield from moves[node.right]
        elif isinstance(node, Alt):
            yield from moves[node.left]
            yield from moves[node.right]
        elif isinstance(node, Star):
            for cond, reg, rest in moves[node.body]:
                yield cond, reg, _cat(rest, node)
        elif isinstance(node, _Bounded) and node.width > 0:
            for cond, reg, rest in moves[node.body]:
                yield cond, reg, _bounded(rest, node.width - 1)

    def start(self, valuation: Valuation = EMPTY_VALUATION) -> frozenset[Pair]:
        """The configuration before any element is consumed."""
        return frozenset(((self.root, valuation),))

    def step(self, pairs: Iterable[Pair], event: Event) -> frozenset[Pair]:
        """The configuration after consuming `event`. An atom reading an
        empty register does not hold."""
        out = set()
        for node, v in pairs:
            moves = self._moves.get(node)
            if moves is None:
                moves = self._build(node)
            if not moves:
                continue
            scope = EvalScope(v)
            for cond, reg, rest in moves:
                if scope.evaluate(cond, event):
                    out.add((rest, v if reg is None else v.set(reg, event)))
        return frozenset(out)

    @staticmethod
    def derived(pairs: Iterable[Pair]) -> frozenset[Valuation]:
        """The valuations with which the configuration has derived the
        prefix consumed; empty when it has not derived it."""
        return frozenset(v for node, v in pairs if node.nullable)
