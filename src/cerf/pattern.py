"""Symbolic regular expressions with memory: the AST, a textual pattern
language, direct membership (`derive`, `accepts`, which fold the
derivation oracle of `cerf.oracle` over a string), and the streaming
transform.

Pattern files look like:

    # declarations first, then one expression
    pred TypeIsT(x): x.type == "T"
    pred TypeIsH(x): x.type == "H"
    pred EqualId(x, y): x.id == y.id

    (TypeIsT(~) -> r1) ; TRUE* ; (TypeIsH(~) & EqualId(~, r1))

Operators: `;` concatenation, `+` alternation, postfix `*` iteration,
postfix `-> rN` stores the matched element into a register, `& | !` build
conditions, `TRUE`/`EPS`/`NONE` are the tautology, the empty string and the
empty language, `within N` (outermost only) bounds match length, `~` is the
element currently being consumed.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .algebra import (
    CURRENT,
    EMPTY_VALUATION,
    TRUE,
    And,
    Atom,
    Condition,
    Event,
    Not,
    Or,
    PredicateLibrary,
    Register,
    TrueCondition,
    UnknownPredicate,
    Valuation,
    _Frozen,
    _Node,
    _intern,
    _set,
    declared_predicate,
)


class PatternSyntaxError(SyntaxError):
    """Pattern text does not conform to the grammar; carries line/column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownRegister(KeyError):
    """A condition reads a register that nothing in scope ever writes."""


# ---------------------------------------------------------------------------
# AST


class Expr(_Node):
    """Base class of the AST nodes. Expressions are hash-consed like
    conditions (see `algebra._Node`): equal expressions are one object,
    and equality and hashing are identity. `nullable`, set when a node is
    built, tells whether it accepts the empty string. A constructor builds
    the node it is given and normalizes nothing, since `compile_expr`
    numbers states by the tree's shape."""

    __slots__ = ("nullable",)


class Empty(Expr):
    """The empty language (NONE)."""

    __slots__ = ()

    def __new__(cls) -> "Empty":
        return EMPTY


class Epsilon(Expr):
    """The empty string (EPS)."""

    __slots__ = ()

    def __new__(cls) -> "Epsilon":
        return EPSILON


class Cond(Expr):
    __slots__ = ("condition",)

    def __new__(cls, condition: Condition) -> "Cond":
        return _intern(Cond, {"condition": condition, "nullable": False})


class CondWrite(Expr):
    __slots__ = ("condition", "register")

    def __new__(cls, condition: Condition, register: Register) -> "CondWrite":
        fields = {"condition": condition, "register": register, "nullable": False}
        return _intern(CondWrite, fields)


class Concat(Expr):
    __slots__ = ("left", "right")

    def __new__(cls, left: Expr, right: Expr) -> "Concat":
        nullable = left.nullable and right.nullable
        return _intern(Concat, {"left": left, "right": right, "nullable": nullable})


class Alt(Expr):
    __slots__ = ("left", "right")

    def __new__(cls, left: Expr, right: Expr) -> "Alt":
        nullable = left.nullable or right.nullable
        return _intern(Alt, {"left": left, "right": right, "nullable": nullable})


class Star(Expr):
    __slots__ = ("body",)

    def __new__(cls, body: Expr) -> "Star":
        return _intern(Star, {"body": body, "nullable": True})


class Window(Expr):
    """Bounds accepted strings to at most `width` elements.

    The parser admits windows only at the outermost position; nested windows
    inside user patterns are rejected there. The AST itself tolerates a
    Window under a Concat because the streaming transform wraps windowed
    expressions in a TRUE* prefix.
    """

    __slots__ = ("body", "width")

    def __new__(cls, body: Expr, width: int) -> "Window":
        if width < 1:
            raise ValueError("window width must be at least 1")
        if _contains_window(body):
            raise ValueError("windows do not nest")
        return _intern(Window, {"body": body, "width": width, "nullable": body.nullable})


def _contains_window(e: Expr) -> bool:
    return any(isinstance(node, Window) for node, _ in _walk(e))


EMPTY = _intern(Empty, {"nullable": False})
EPSILON = _intern(Epsilon, {"nullable": True})
TRUE_COND = Cond(TRUE)


def _walk(e: Expr) -> Iterator[tuple[object, int]]:
    """(node, depth) for every node of the expression in preorder, left
    operands first, entering the condition of each leaf; the root has depth
    1. Iterative, so it handles trees too deep to recurse over."""
    stack: list[tuple[object, int]] = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, (Concat, Alt, And, Or)):
            stack += ((node.right, depth + 1), (node.left, depth + 1))
        elif isinstance(node, (Star, Window)):
            stack.append((node.body, depth + 1))
        elif isinstance(node, (Cond, CondWrite)):
            stack.append((node.condition, depth + 1))
        elif isinstance(node, Not):
            stack.append((node.operand, depth + 1))


def top_registers(e: Expr) -> frozenset[Register]:
    """Every register read or written anywhere in the expression."""
    read = (arg for node, _ in _walk(e) if isinstance(node, Atom) for arg in node.args)
    return written_registers(e) | {arg for arg in read if isinstance(arg, Register)}


def written_registers(e: Expr) -> frozenset[Register]:
    return frozenset(node.register for node, _ in _walk(e) if isinstance(node, CondWrite))


def to_streaming(e: Expr) -> Expr:
    """Prefix the expression with TRUE* so that a run over a whole stream
    prefix succeeds exactly when some suffix of it matches the original
    expression. A window stays inside the wrapper, bounding only the match
    body."""
    return Concat(Star(TRUE_COND), e)


# The deepest expression nesting `parse` accepts, counting the condition
# inside each leaf, and the most negations and parentheses any parsed
# condition nests. The recursive walks over a parsed pattern or condition
# (compilation, unparsing) stay within Python's default recursion limit up
# to this depth.
MAX_NESTING = 400

_TOO_DEEP = "parentheses or negations nest too deeply to parse"


# ---------------------------------------------------------------------------
# Tokenizer


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<string>"[^"\n]*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<op>==|!=|<=|>=|[()<>,:;+*&|!~.])
    """,
    re.VERBOSE,
)

_REGISTER_RE = re.compile(r"^r\d+$")

_KEYWORDS = frozenset({"pred", "within", "TRUE", "EPS", "NONE"})


class _Token(_Frozen):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        _set(self, "kind", kind)  # number | string | name | arrow | op | eof
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "column", column)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PatternSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, m.start() - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(
        self,
        tokens: list[_Token],
        library: PredicateLibrary,
        register_names: Optional[frozenset[str]] = None,
    ) -> None:
        self.tokens = tokens
        self.pos = 0
        self.library = library
        # When set, any of these names is a register argument; otherwise the
        # pattern-language rule applies (r followed by digits).
        self.register_names = register_names

    # -- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None) -> PatternSyntaxError:
        tok = tok or self.peek()
        return PatternSyntaxError(message, tok.line, tok.column)

    def expect(self, text: str, what: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.text != text:
            if tok.text == "within":
                raise self.error("a window is allowed only at the outermost level")
            shown = what or f"{text!r}"
            found = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise self.error(f"expected {shown}, found {found}")
        return self.advance()

    # -- predicate declarations

    def parse_declarations(self) -> None:
        while self.peek().text == "pred":
            self.parse_declaration()

    def parse_declaration(self) -> None:
        self.expect("pred")
        name_tok = self.peek()
        if name_tok.kind != "name" or name_tok.text in _KEYWORDS:
            raise self.error("expected a predicate name")
        if name_tok.text in self.library:
            raise self.error(f"predicate {name_tok.text} is already declared")
        name = self.advance().text
        self.expect("(")
        params: list[str] = []
        while True:
            tok = self.peek()
            if tok.kind != "name":
                raise self.error("expected a parameter name")
            if tok.text in params:
                raise self.error(f"duplicate parameter {tok.text!r}")
            params.append(self.advance().text)
            if self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect(")")
        self.expect(":")
        left = self.parse_operand(params)
        op_tok = self.peek()
        if op_tok.text not in ("==", "!=", "<", "<=", ">", ">="):
            raise self.error("expected a comparison operator")
        op = self.advance().text
        right = self.parse_operand(params)
        if left[0] == "lit" and right[0] == "lit":
            raise self.error("a predicate must reference at least one parameter", op_tok)
        self.library.define(declared_predicate(name, params, left, op, right))

    def parse_operand(self, params: list[str]):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            text = tok.text
            if not any(c in text for c in ".eE"):
                return ("lit", int(text))
            value = float(text)
            if not math.isfinite(value):
                raise self.error(f"number {text} is out of range", tok)
            return ("lit", value)
        if tok.kind == "string":
            self.advance()
            return ("lit", tok.text[1:-1])
        if tok.kind == "name":
            if tok.text not in params:
                raise self.error(f"unknown parameter {tok.text!r}")
            self.advance()
            self.expect(".")
            attr_tok = self.peek()
            if attr_tok.kind != "name":
                raise self.error("expected an attribute name")
            self.advance()
            return ("attr", params.index(tok.text), attr_tok.text)
        raise self.error("expected a parameter.attribute reference or a literal")

    # -- expression grammar

    def parse_pattern(self) -> Expr:
        self.parse_declarations()
        first = self.peek()
        expr = self.parse_alt()
        depth = max(depth for _, depth in _walk(expr))
        if depth > MAX_NESTING:
            raise self.error(
                f"the pattern nests {depth} levels deep; at most {MAX_NESTING} are supported",
                first,
            )
        if self.peek().text == "within":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or not tok.text.isdigit() or int(tok.text) < 1:
                raise self.error("expected a positive integer window width")
            self.advance()
            expr = Window(expr, int(tok.text))
        return expr

    def parse_alt(self) -> Expr:
        expr = self.parse_cat()
        while self.peek().text == "+":
            self.advance()
            expr = Alt(expr, self.parse_cat())
        return expr

    def parse_cat(self) -> Expr:
        expr = self.parse_postfix()
        while self.peek().text == ";":
            self.advance()
            expr = Concat(expr, self.parse_postfix())
        return expr

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.text == "*":
                self.advance()
                expr = Star(expr)
            elif tok.kind == "arrow":
                self.advance()
                reg = self.parse_register_name()
                if not isinstance(expr, Cond):
                    raise self.error("-> stores a condition match; it cannot follow this operand", tok)
                expr = CondWrite(expr.condition, reg)
            else:
                return expr

    def parse_register_name(self) -> Register:
        tok = self.peek()
        if tok.kind == "name" and self.is_register_name(tok.text):
            self.advance()
            return Register(tok.text)
        raise self.error("expected a register (r1, r2, …)")

    def is_register_name(self, text: str) -> bool:
        if self.register_names is not None:
            return text in self.register_names
        return _REGISTER_RE.match(text) is not None

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.text == "EPS":
            self.advance()
            return EPSILON
        if tok.text == "NONE":
            self.advance()
            return EMPTY
        if tok.text == "(":
            mark = self.pos
            try:
                return Cond(self.parse_condition())
            except PatternSyntaxError:
                self.pos = mark
            self.expect("(")
            expr = self.parse_alt()
            self.expect(")")
            return expr
        if tok.text == "TRUE" or tok.text == "!" or tok.kind == "name":
            return Cond(self.parse_condition())
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise self.error(f"expected an expression, found {found}")

    # -- condition grammar

    # `depth` counts the negations and parentheses around the condition
    # being parsed; `&` and `|` chains do not nest, so they are unbounded.

    def parse_condition(self, depth: int = 0) -> Condition:
        cond = self.parse_cond_and(depth)
        while self.peek().text == "|":
            self.advance()
            cond = Or(cond, self.parse_cond_and(depth))
        return cond

    def parse_cond_and(self, depth: int) -> Condition:
        cond = self.parse_cond_unary(depth)
        while self.peek().text == "&":
            self.advance()
            cond = And(cond, self.parse_cond_unary(depth))
        return cond

    def parse_cond_unary(self, depth: int) -> Condition:
        if depth > MAX_NESTING:
            raise self.error(_TOO_DEEP)
        if self.peek().text == "!":
            self.advance()
            return Not(self.parse_cond_unary(depth + 1))
        return self.parse_cond_atom(depth)

    def parse_cond_atom(self, depth: int) -> Condition:
        tok = self.peek()
        if tok.text == "TRUE":
            self.advance()
            return TRUE
        if tok.text == "(":
            self.advance()
            cond = self.parse_condition(depth + 1)
            self.expect(")")
            return cond
        if tok.kind == "name" and tok.text not in _KEYWORDS:
            name = self.advance().text
            self.expect("(", "'(' after predicate name")
            # lookup failures propagate as UnknownPredicate so callers can
            # tell a missing declaration apart from a malformed pattern
            predicate = self.library.get(name)
            args = [self.parse_argument()]
            while self.peek().text == ",":
                self.advance()
                args.append(self.parse_argument())
            self.expect(")")
            if len(args) != predicate.arity:
                raise self.error(
                    f"{name} expects {predicate.arity} argument(s), got {len(args)}", tok
                )
            return Atom(predicate, tuple(args))
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise self.error(f"expected a condition, found {found}")

    def parse_argument(self):
        tok = self.peek()
        if tok.text == "~":
            self.advance()
            return CURRENT
        if tok.kind == "name" and self.is_register_name(tok.text):
            self.advance()
            return Register(tok.text)
        raise self.error("expected ~ or a register argument")


_T = TypeVar("_T")


def _parse_all(parser: _Parser, rule: Callable[[_Parser], _T]) -> _T:
    """Run one grammar rule over the whole input. Parentheses or negations
    too deep for the recursive-descent rules are a syntax error, as is any
    input left over."""
    try:
        result = rule(parser)
    except RecursionError:
        raise parser.error(_TOO_DEEP) from None
    tok = parser.peek()
    if tok.kind != "eof":
        raise parser.error(f"unexpected trailing input {tok.text!r}")
    return result


def parse(text: str, library: Optional[PredicateLibrary] = None) -> tuple[PredicateLibrary, Expr]:
    """Parse a full pattern file: predicate declarations, one expression.

    Returns the library (extended with the declared predicates) and the AST.
    Raises PatternSyntaxError (also for patterns nesting deeper than
    MAX_NESTING), UnknownPredicate (via unknown atom names), or
    UnknownRegister when a register is read but never written anywhere in the
    pattern.
    """
    library = library if library is not None else PredicateLibrary()
    expr = _parse_all(_Parser(_tokenize(text), library), _Parser.parse_pattern)
    unwritten = {r.name for r in top_registers(expr)} - {
        r.name for r in written_registers(expr)
    }
    if unwritten:
        raise UnknownRegister(
            f"register(s) read but never written: {', '.join(sorted(unwritten))}"
        )
    return library, expr


def parse_predicates(text: str, library: Optional[PredicateLibrary] = None) -> PredicateLibrary:
    """Parse declaration lines only (used when loading serialized automata)."""
    library = library if library is not None else PredicateLibrary()
    _parse_all(_Parser(_tokenize(text), library), _Parser.parse_declarations)
    return library


def parse_condition(
    text: str, library: PredicateLibrary, register_names: Iterable[str] = ()
) -> Condition:
    """Parse a single condition, resolving register arguments against an
    explicit name set (serialized automata may carry minted registers that do
    not follow the pattern-language rN rule)."""
    parser = _Parser(_tokenize(text), library, frozenset(register_names))
    return _parse_all(parser, _Parser.parse_condition)


# ---------------------------------------------------------------------------
# Unparser


def unparse_condition(cond: Condition, level: int = 0, memo: Optional[dict] = None) -> str:
    """Render a condition in pattern syntax. Levels: 0=or, 1=and, 2=unary.

    With a `memo`, each node is rendered once: a subtree shared by many
    conditions (as `determinize` and `complete` build them) costs one
    rendering."""
    if memo is not None and cond in memo:
        text, own = memo[cond]
    else:
        # `own` is the loosest level the text may appear at unparenthesized.
        if isinstance(cond, TrueCondition):
            text, own = "TRUE", 2
        elif isinstance(cond, Atom):
            args = ", ".join(arg.name if isinstance(arg, Register) else "~" for arg in cond.args)
            text, own = f"{cond.predicate.name}({args})", 2
        elif isinstance(cond, Not):
            text, own = f"!{unparse_condition(cond.operand, 2, memo)}", 2
        elif isinstance(cond, (And, Or)):
            # A left-nested chain is walked down its spine and joined, so it
            # neither recurses nor keeps text once per prefix. The first
            # part renders at the connective's own level, the rest tighter.
            kind, own, sep = (And, 1, " & ") if isinstance(cond, And) else (Or, 0, " | ")
            node, rights = cond, []
            while isinstance(node, kind):
                rights.append(node.right)
                node = node.left
            parts = [unparse_condition(right, own + 1, memo) for right in reversed(rights)]
            text = sep.join([unparse_condition(node, own, memo), *parts])
        else:
            raise TypeError(f"not a condition: {cond!r}")
        if memo is not None:
            memo[cond] = text, own
    return f"({text})" if level > own else text


def _unparse_cond_operand(cond: Condition) -> str:
    if isinstance(cond, (TrueCondition, Atom)):
        return unparse_condition(cond)
    return f"({unparse_condition(cond)})"


def _unparse_expr(e: Expr, level: int) -> str:
    """Levels: 1=alt, 2=cat, 3=postfix, 4=primary."""
    if isinstance(e, Empty):
        return "NONE"
    if isinstance(e, Epsilon):
        return "EPS"
    if isinstance(e, Cond):
        return _unparse_cond_operand(e.condition)
    if isinstance(e, CondWrite):
        text = f"{_unparse_cond_operand(e.condition)} -> {e.register.name}"
        return f"({text})" if level > 3 else text
    if isinstance(e, Star):
        return f"{_unparse_expr(e.body, 4)}*"
    if isinstance(e, (Concat, Alt)):
        # A left-nested chain is walked down its spine and joined, as
        # `unparse_condition` joins And and Or chains, so a wide alternation
        # does not recurse once per alternative.
        kind, own, sep = (Concat, 2, " ; ") if isinstance(e, Concat) else (Alt, 1, " + ")
        node, rights = e, []
        while isinstance(node, kind):
            rights.append(node.right)
            node = node.left
        parts = [_unparse_expr(right, own + 1) for right in reversed(rights)]
        text = sep.join([_unparse_expr(node, own), *parts])
        return f"({text})" if level > own else text
    if isinstance(e, Window):
        raise ValueError("a window is rendered only at the outermost level")
    raise TypeError(f"not an expression: {e!r}")


def unparse(e: Expr) -> str:
    """Render an AST in pattern syntax; parse(unparse(e)) returns e."""
    if isinstance(e, Window):
        return f"{_unparse_expr(e.body, 1)} within {e.width}"
    return _unparse_expr(e, 1)


def unparse_pattern(library: PredicateLibrary, e: Expr) -> str:
    """Render a complete pattern file: declarations (for the predicates the
    expression actually uses), then the expression."""
    used = {node.predicate.name for node, _ in _walk(e) if isinstance(node, Atom)}
    lines = []
    for name in sorted(used):
        pred = library.get(name)
        if pred.source:
            lines.append(pred.source)
    lines.append("")
    lines.append(unparse(e))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Direct acceptance semantics


def derive(
    e: Expr, events: Sequence[Event], valuation: Valuation = EMPTY_VALUATION
) -> frozenset[Valuation]:
    """All valuations the expression can produce by consuming exactly the
    given string, starting from the given valuation: a fold of
    `Oracle.step` (`cerf.oracle`) over the string.

    A Star iteration must consume at least one element; this does not
    change the language, as an empty iteration leaves the valuation as it
    is. Atoms reading unbound registers are simply unsatisfied."""
    from .oracle import Oracle

    oracle = Oracle(e)
    pairs = oracle.start(valuation)
    for event in events:
        if not pairs:
            break
        pairs = oracle.step(pairs, event)
    return Oracle.derived(pairs)


def accepts(e: Expr, events: Sequence[Event]) -> bool:
    """Membership: whether the expression derives the string from an empty
    valuation."""
    return bool(derive(e, events))
