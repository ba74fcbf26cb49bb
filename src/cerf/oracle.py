"""The derivation oracle: membership decided from a pattern's expression
directly, without automata. It is the ground truth the compiled pipeline
is checked against; `cerf oracle` and `pattern.derive` step it. Only they
load this module."""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .algebra import EMPTY_VALUATION, EvalScope, Event, Valuation
from .pattern import Alt, Concat, Cond, CondWrite, Empty, Epsilon, Expr, Star, Window


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


class _Residual:
    """What an expression has left to match after some prefix: a node of an
    `Oracle`'s hash-consed residual graph. Only the oracle's interner builds
    them, so equal residuals are one object, and they compare and hash by
    identity.

    `kind` is one of "eps", "none", "cond" (left: the condition, right: the
    register written or None), "cat" (its left side is never a "cat"),
    "alt", "star" (left: the body) and
    "bounded" (left: the body, right: how many more elements it may
    consume). `moves` is filled on first use: the (condition, register or
    None, residual) triples by which the residual consumes one element."""

    __slots__ = ("kind", "left", "right", "nullable", "moves")

    def __init__(self, kind: str, left, right, nullable: bool) -> None:
        self.kind = kind
        self.left = left
        self.right = right
        self.nullable = nullable
        self.moves: Optional[tuple] = None


# One (residual, valuation) pair of a configuration set.
Pair = tuple[_Residual, Valuation]


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

    Residuals are interned per oracle, and each one's moves are built once,
    so after the first visit a step only evaluates conditions.
    Concatenations are right-associated, so a chain of n factors, however
    it nests, has O(n) residuals. Both walks are iterative, so no
    expression is too deep for them."""

    def __init__(self, e: Expr) -> None:
        self._table: dict[tuple, _Residual] = {}
        self._eps = self._node("eps", None, None)
        # A concatenation tree is converted as a whole, from its factors,
        # so its nested concatenations are never converted on their own.
        preorder, factors, stack = [], {}, [e]
        while stack:
            node = stack.pop()
            preorder.append(node)
            if isinstance(node, Concat):
                factors[id(node)] = _factors(node)
                stack += factors[id(node)]
            elif isinstance(node, Alt):
                stack += (node.left, node.right)
            elif isinstance(node, (Star, Window)):
                stack.append(node.body)
        # Reversed preorder puts every node after its descendants. The ids
        # key only this loop, during which `e` keeps every node alive.
        converted: dict[int, _Residual] = {}
        for node in reversed(preorder):
            if isinstance(node, Concat):
                residual = self._eps
                for factor in reversed(factors[id(node)]):
                    residual = self._cat(converted[id(factor)], residual)
                converted[id(node)] = residual
            else:
                converted[id(node)] = self._convert(node, converted)
        self.root = converted[id(e)]

    def _node(self, kind: str, left, right) -> _Residual:
        key = (kind, left, right)
        node = self._table.get(key)
        if node is None:
            if kind in ("cat", "alt"):
                both = left.nullable and right.nullable
                nullable = both if kind == "cat" else left.nullable or right.nullable
            elif kind == "bounded":
                nullable = left.nullable
            else:
                nullable = kind in ("eps", "star")
            node = self._table[key] = _Residual(kind, left, right, nullable)
        return node

    def _convert(self, e: Expr, converted: dict[int, _Residual]) -> _Residual:
        if isinstance(e, Empty):
            return self._node("none", None, None)
        if isinstance(e, Epsilon):
            return self._eps
        if isinstance(e, Cond):
            return self._node("cond", e.condition, None)
        if isinstance(e, CondWrite):
            return self._node("cond", e.condition, e.register)
        if isinstance(e, Alt):
            return self._node("alt", converted[id(e.left)], converted[id(e.right)])
        if isinstance(e, Star):
            return self._node("star", converted[id(e.body)], None)
        if isinstance(e, Window):
            return self._bounded(converted[id(e.body)], e.width)
        raise TypeError(f"not an expression: {e!r}")

    def _cat(self, left: _Residual, right: _Residual) -> _Residual:
        """The concatenation, right-associated: `left`'s factors are chained
        onto `right` one by one, so a concatenation's left side is never
        itself one, and each residual of a long chain is one new node."""
        spine = []
        while left.kind == "cat":
            spine.append(left.left)
            left = left.right
        spine.append(left)
        for factor in reversed(spine):
            if right is self._eps:
                right = factor
            elif factor is not self._eps:
                right = self._node("cat", factor, right)
        return right

    def _bounded(self, body: _Residual, width: int) -> _Residual:
        return body if body is self._eps else self._node("bounded", body, width)

    def _needs(self, node: _Residual) -> tuple[_Residual, ...]:
        """The residuals whose moves make up `node`'s."""
        if node.kind == "cat":
            return (node.left, node.right) if node.left.nullable else (node.left,)
        if node.kind == "alt":
            return (node.left, node.right)
        if node.kind == "star" or (node.kind == "bounded" and node.right > 0):
            return (node.left,)
        return ()

    def _moves(self, node: _Residual) -> tuple:
        """`node.moves`, building it and those it needs first, depth first
        with an explicit stack."""
        stack = [node]
        while stack:
            top = stack[-1]
            pending = [n for n in self._needs(top) if n.moves is None]
            if pending:
                stack += pending
                continue
            stack.pop()
            if top.moves is None:
                top.moves = tuple(self._moves_of(top))
        return node.moves  # type: ignore[return-value]

    def _moves_of(self, node: _Residual) -> Iterator[tuple]:
        kind = node.kind
        if kind == "cond":
            yield node.left, node.right, self._eps
        elif kind == "cat":
            for cond, reg, rest in node.left.moves:
                yield cond, reg, self._cat(rest, node.right)
            if node.left.nullable:
                yield from node.right.moves
        elif kind == "alt":
            yield from node.left.moves
            yield from node.right.moves
        elif kind == "star":
            for cond, reg, rest in node.left.moves:
                yield cond, reg, self._cat(rest, node)
        elif kind == "bounded" and node.right > 0:
            for cond, reg, rest in node.left.moves:
                yield cond, reg, self._bounded(rest, node.right - 1)

    def start(self, valuation: Valuation = EMPTY_VALUATION) -> frozenset[Pair]:
        """The configuration before any element is consumed."""
        return frozenset(((self.root, valuation),))

    def step(self, pairs: Iterable[Pair], event: Event) -> frozenset[Pair]:
        """The configuration after consuming `event`. An atom reading an
        empty register does not hold."""
        out = set()
        for node, v in pairs:
            moves = node.moves if node.moves is not None else self._moves(node)
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
