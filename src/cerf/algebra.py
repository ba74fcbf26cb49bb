"""Boolean-algebra substrate: events, registers, valuations, predicates,
conditions and minterm construction.

Everything here is immutable and hashable, so events, valuations and
conditions can be shared freely across threads and used as dictionary keys
(the streaming engine deduplicates configurations by state and register
contents).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

Value = Union[str, int, float]


class NotAMinterm(ValueError):
    """The condition does not have the conjunct structure minterms() produces."""


class UnknownPredicate(KeyError):
    """No predicate with this name is registered in the library."""


# ---------------------------------------------------------------------------
# Events and registers


@dataclass(frozen=True)
class Event:
    """One element of the universe: a flat record of named attributes.

    Attribute values are text or numbers. Two events compare equal iff all
    their attributes match exactly.
    """

    attrs: tuple[tuple[str, Value], ...]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.attrs]
        if any(not n for n in names):
            raise ValueError("attribute names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique within an event")

    @classmethod
    def of(cls, **attrs: Value) -> "Event":
        return cls(tuple(sorted(attrs.items())))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Value]) -> "Event":
        return cls(tuple(sorted(mapping.items())))

    def get(self, name: str, default: Optional[Value] = None) -> Optional[Value]:
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    def __getitem__(self, name: str) -> Value:
        value = self.get(name)
        if value is None and self.get(name, _MISSING) is _MISSING:
            raise KeyError(name)
        return value  # type: ignore[return-value]

    def as_dict(self) -> dict[str, Value]:
        return dict(self.attrs)

    def project(self, names: frozenset[str]) -> "Event":
        """The event cut down to the named attributes it has. A cut of a
        valid event is valid, so this skips the constructor's checks."""
        cut = object.__new__(Event)
        object.__setattr__(cut, "attrs", tuple([pair for pair in self.attrs if pair[0] in names]))
        return cut

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for _, v in self.attrs) + ")"


_MISSING = object()


@functools.total_ordering
@dataclass(frozen=True)
class Register:
    """A named storage cell for one event. The name is the identity; callers
    keep names unique within one expression/automaton scope.

    Registers hash and order by their name string directly: valuations and
    configuration sets hash and compare them on every write and lookup."""

    name: str

    def __hash__(self) -> int:
        return hash(self.name)

    def __lt__(self, other: "Register") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name < other.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CurrentElement:
    """Marker for the element currently being consumed (written ~)."""

    def __repr__(self) -> str:
        return "~"


CURRENT = CurrentElement()

Argument = Union[Register, CurrentElement]


@dataclass(frozen=True)
class Valuation:
    """Partial mapping from registers to events; an absent entry is an empty
    register. Substitution returns a fresh valuation. The automaton runs
    store in a register only the attributes its readers can observe (see
    `Sra.observed_attributes`), so two runs that stored events alike in
    those attributes hold equal valuations."""

    entries: tuple[tuple[Register, Event], ...] = ()

    def lookup(self, register: Register) -> Optional[Event]:
        for reg, event in self.entries:
            if reg == register:
                return event
        return None

    def set(self, register: Register, event: Event) -> "Valuation":
        kept = tuple((r, e) for r, e in self.entries if r != register)
        return Valuation(tuple(sorted(kept + ((register, event),))))

    def __str__(self) -> str:
        if not self.entries:
            return "{}"
        return "{" + ", ".join(f"{r.name}={e}" for r, e in self.entries) + "}"


EMPTY_VALUATION = Valuation()


# ---------------------------------------------------------------------------
# Predicates


class Declaration(NamedTuple):
    """The body `left op right` of a declared predicate, as parsed. Each
    operand is ("lit", value) or ("attr", parameter index, attribute name)."""

    left: tuple
    op: str
    right: tuple


@dataclass(frozen=True)
class Predicate:
    """A named n-ary relation over events, total in its event arguments.

    A declared predicate is its `declaration`, the parsed body `left op
    right`: a call reads each operand (the literal, or the named attribute
    of the indexed argument) and compares them with `_compare_values`, the
    rule the minterm cut reasons with. A predicate built in Python has a
    pure, total `evaluator` instead. A predicate has exactly one of the two.

    `footprint` holds per parameter the attribute names the declaration
    reads of that argument. It is None for a Python-built predicate, whose
    evaluator may read the whole event.

    Predicates compare and hash by name, arity and declaration, so two
    declared predicates of one name but different bodies make different
    atoms; Python-built ones compare by name and arity."""

    name: str
    arity: int
    evaluator: Optional[Callable[..., bool]] = field(default=None, compare=False)
    source: Optional[str] = field(default=None, compare=False)
    declaration: Optional[Declaration] = None
    footprint: Optional[tuple[frozenset[str], ...]] = field(init=False, default=None, compare=False)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("predicate arity must be at least 1")
        if (self.evaluator is None) == (self.declaration is None):
            raise ValueError("a predicate has exactly one of an evaluator and a declaration")
        if self.declaration is not None:
            operands = (self.declaration.left, self.declaration.right)
            if any(o[0] == "attr" and not 0 <= o[1] < self.arity for o in operands):
                raise ValueError("a declaration reads only the predicate's parameters")
            if self.declaration.op not in _COMPARISONS:
                raise ValueError(f"unknown comparison {self.declaration.op!r}")
            footprint = tuple(
                frozenset(o[2] for o in operands if o[0] == "attr" and o[1] == index)
                for index in range(self.arity)
            )
            object.__setattr__(self, "footprint", footprint)

    def __call__(self, *events: Event) -> bool:
        if len(events) != self.arity:
            raise TypeError(f"{self.name} expects {self.arity} arguments")
        if self.declaration is None:
            return bool(self.evaluator(*events))
        left, op, right = self.declaration
        a = left[1] if left[0] == "lit" else events[left[1]].get(left[2])
        b = right[1] if right[0] == "lit" else events[right[1]].get(right[2])
        return _compare_values(a, _COMPARISONS[op], b)


_COMPARISONS: dict[str, Callable[[Value, Value], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare_values(
    left: Optional[Value], compare: Callable[[Value, Value], bool], right: Optional[Value]
) -> bool:
    if left is None or right is None:
        return False
    numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    textual = isinstance(left, str) and isinstance(right, str)
    if not (numeric or textual):
        return False
    return bool(compare(left, right))


def _render(operand: tuple, params: Sequence[str]) -> str:
    if operand[0] == "lit":
        value = operand[1]
        return f'"{value}"' if isinstance(value, str) else repr(value)
    return f"{params[operand[1]]}.{operand[2]}"


def declared_predicate(name: str, params: Sequence[str], left, op: str, right) -> Predicate:
    """The predicate of a declaration `pred name(params): left op right`:
    its parsed body, which the predicate evaluates as it stands.

    Each operand is ("lit", value) or ("attr", parameter index, attribute
    name); the source is the declaration line, so it re-parses to the same
    predicate."""
    body = f"{_render(left, params)} {op} {_render(right, params)}"
    source = f"pred {name}({', '.join(params)}): {body}"
    return Predicate(name, len(params), source=source, declaration=Declaration(left, op, right))


def comparison_predicate(name: str, attr: str, op: str, constant: Value) -> Predicate:
    """Unary predicate comparing an attribute of the argument to a constant."""
    return declared_predicate(name, ["x"], ("attr", 0, attr), op, ("lit", constant))


def join_predicate(name: str, left_attr: str, op: str, right_attr: str) -> Predicate:
    """Binary predicate comparing an attribute of the first argument to an
    attribute of the second (typically ~ against a register's event)."""
    left, right = ("attr", 0, left_attr), ("attr", 1, right_attr)
    return declared_predicate(name, ["x", "y"], left, op, right)


# The pattern language cannot declare a tautology, so ALWAYS has no source
# and an automaton using it cannot be serialized.
ALWAYS = Predicate("Always", 1, lambda event: True)


class PredicateLibrary:
    """Registry of named predicates; pattern atoms resolve against one."""

    def __init__(self, predicates: Iterable[Predicate] = ()) -> None:
        self._by_name: dict[str, Predicate] = {}
        for pred in predicates:
            self.define(pred)

    def define(self, predicate: Predicate) -> Predicate:
        existing = self._by_name.get(predicate.name)
        if existing is not None and existing is not predicate:
            raise ValueError(f"predicate {predicate.name} is already defined")
        self._by_name[predicate.name] = predicate
        return predicate

    def get(self, name: str) -> Predicate:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownPredicate(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())


# ---------------------------------------------------------------------------
# Conditions


class Condition:
    """Base class for Boolean formulas over predicate atoms whose arguments
    are registers or the current-element marker."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueCondition(Condition):
    def __repr__(self) -> str:
        return "TRUE"


TRUE = TrueCondition()


@dataclass(frozen=True)
class Atom(Condition):
    predicate: Predicate
    args: tuple[Argument, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate.name} has arity {self.predicate.arity}, got {len(self.args)} arguments"
            )


class _Connective(Condition):
    """Not, And and Or. Each hashes once, when it is built, from its
    operands' hashes, and equality walks an explicit stack, so chains of
    any depth (`complete` negates one minterm per outgoing transition) hash
    and compare without recursing."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((type(self), *_operands(self))))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if not isinstance(a, _Connective):
                if a != b:
                    return False
            elif a._hash != b._hash:
                return False
            else:
                stack += zip(_operands(a), _operands(b))
        return True


@dataclass(frozen=True, eq=False)
class Not(_Connective):
    operand: Condition


@dataclass(frozen=True, eq=False)
class And(_Connective):
    left: Condition
    right: Condition


@dataclass(frozen=True, eq=False)
class Or(_Connective):
    left: Condition
    right: Condition


def _operands(node: _Connective) -> tuple[Condition, ...]:
    return (node.operand,) if isinstance(node, Not) else (node.left, node.right)


def conjoin(conditions: Sequence[Condition]) -> Condition:
    """Left-fold a sequence into a conjunction; empty sequence is TRUE."""
    if not conditions:
        return TRUE
    result = conditions[0]
    for cond in conditions[1:]:
        result = And(result, cond)
    return result


def _walk(condition: Condition, through: tuple[type, ...] = (Not, And, Or)) -> Iterator[Condition]:
    """Every node of a condition tree in preorder, left operands first,
    descending only into nodes of the `through` types (And alone walks a
    conjunction spine). Iterative, so it handles trees too deep to recurse
    over."""
    stack = [condition]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, through):
            continue
        if isinstance(node, Not):
            stack.append(node.operand)
        else:
            stack += (node.right, node.left)


def _walk_distinct(conditions: Iterable[Condition]) -> Iterator[Condition]:
    """Every node object of the given condition trees once, however often
    the trees share it (`determinize` and `complete` build conditions from
    shared subtrees). Nodes are told apart by identity, which is stable
    while the walk holds the roots and so every node below them."""
    seen: set[int] = set()
    stack = list(conditions)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack += (node.right, node.left)


def registers_of(condition: Condition) -> frozenset[Register]:
    """The register selection: every register appearing in any atom."""
    return frozenset(
        arg
        for node in _walk(condition)
        if isinstance(node, Atom)
        for arg in node.args
        if isinstance(arg, Register)
    )


def predicates_of(condition: Condition) -> frozenset[Predicate]:
    """Every predicate appearing in any atom."""
    return frozenset(node.predicate for node in _walk(condition) if isinstance(node, Atom))


def substitute_registers(condition: Condition, mapping: Mapping[Register, Register]) -> Condition:
    """Rewrite register arguments through a mapping (identity where absent)."""
    if isinstance(condition, Atom):
        args = tuple(
            mapping.get(a, a) if isinstance(a, Register) else a for a in condition.args
        )
        return Atom(condition.predicate, args)
    if isinstance(condition, Not):
        return Not(substitute_registers(condition.operand, mapping))
    if isinstance(condition, And):
        return And(
            substitute_registers(condition.left, mapping),
            substitute_registers(condition.right, mapping),
        )
    if isinstance(condition, Or):
        return Or(
            substitute_registers(condition.left, mapping),
            substitute_registers(condition.right, mapping),
        )
    return condition


@dataclass
class EvalCounters:
    """Instrumentation counters for the step-cost contract: one deterministic
    engine step must stay within c condition evaluations and k register reads."""

    condition_evals: int = 0
    register_reads: int = 0


class EvalScope:
    """Tree-walking evaluation of conditions against one valuation, each
    register looked up at most once. It is the reference semantics: the
    `derive` oracle steps with it, and the tests check against it the
    closures that `compile_condition` makes for the run kernel."""

    def __init__(self, valuation: Valuation) -> None:
        self.valuation = valuation
        self._cache: dict[Register, Optional[Event]] = {}

    def _read(self, register: Register) -> Optional[Event]:
        if register not in self._cache:
            self._cache[register] = self.valuation.lookup(register)
        return self._cache[register]

    def evaluate(self, condition: Condition, current: Event) -> bool:
        if isinstance(condition, TrueCondition):
            return True
        if isinstance(condition, Atom):
            resolved = []
            for arg in condition.args:
                if isinstance(arg, CurrentElement):
                    resolved.append(current)
                else:
                    event = self._read(arg)
                    if event is None:
                        # Total semantics: an atom reading an empty register
                        # does not hold.
                        return False
                    resolved.append(event)
            return condition.predicate(*resolved)
        if isinstance(condition, Not):
            return not self.evaluate(condition.operand, current)
        if isinstance(condition, And):
            return self.evaluate(condition.left, current) and self.evaluate(
                condition.right, current
            )
        if isinstance(condition, Or):
            return self.evaluate(condition.left, current) or self.evaluate(
                condition.right, current
            )
        raise TypeError(f"not a condition: {condition!r}")


def evaluate_condition(condition: Condition, current: Event, valuation: Valuation) -> bool:
    """Truth value of a condition against the current element and valuation.

    An atom that reads an empty register is false, and the Boolean operators
    stay classical (its negation is true). Reads of registers that nothing
    writes are rejected when a pattern is parsed."""
    return EvalScope(valuation).evaluate(condition, current)


# A compiled condition: holds(current element, stored), where stored[slot]
# is the event in the register of that slot, or None when it is empty.
Holds = Callable[[Event, Sequence[Optional[Event]]], bool]


def compile_condition(
    condition: Condition, slots: Mapping[Register, int], compiled: Optional[dict] = None
) -> Holds:
    """The condition as one closure over the current element and the
    register slots (`slots` gives each register read its slot).

    It gives what `evaluate_condition` gives on the matching valuation and
    reads the registers `EvalScope` reads, in the same order: an atom reads
    its register arguments left to right and is false at the first empty
    one, and `Not`, `And` and `Or` are classical and short-circuit left to
    right. A declared atom reads the operands of its declaration and
    compares them with `_compare_values`; a Python-built one calls its
    evaluator.

    `compiled` maps the identity of each node compiled so far to its
    closure, so that nodes shared between conditions, as `minterms` shares
    its literals, are compiled once. Identity, because comparing two equal
    conditions walks both trees; the caller keeps the conditions alive while
    it holds the map."""
    if compiled is None:
        compiled = {}
    holds = compiled.get(id(condition))
    if holds is None:
        holds = compiled[id(condition)] = _compile_node(condition, slots, compiled)
    return holds


def _compile_node(condition: Condition, slots: Mapping[Register, int], compiled: dict) -> Holds:
    if isinstance(condition, TrueCondition):
        return _always
    if isinstance(condition, Atom):
        return _compile_atom(condition, slots)
    if isinstance(condition, Not):
        operand = compile_condition(condition.operand, slots, compiled)
        return lambda event, stored: not operand(event, stored)
    if isinstance(condition, And):
        # a TRUE conjunct reads nothing and never stops the conjunction
        parts = [compile_condition(node, slots, compiled) for node in _walk(condition, (And,))
                 if not isinstance(node, (And, TrueCondition))]
        return _all(parts) if parts else _always
    if isinstance(condition, Or):
        parts = [compile_condition(node, slots, compiled) for node in _walk(condition, (Or,))
                 if not isinstance(node, Or)]
        return _any(parts)
    raise TypeError(f"not a condition: {condition!r}")


def _always(event: Event, stored: Sequence[Optional[Event]]) -> bool:
    return True


def _all(parts: list[Holds]) -> Holds:
    if len(parts) == 1:
        return parts[0]

    def holds(event, stored):
        for part in parts:
            if not part(event, stored):
                return False
        return True

    return holds


def _any(parts: list[Holds]) -> Holds:
    def holds(event, stored):
        for part in parts:
            if part(event, stored):
                return True
        return False

    return holds


def _compile_atom(atom: Atom, slots: Mapping[Register, int]) -> Holds:
    # per argument, None for ~ or the slot of the register
    positions = tuple(None if isinstance(arg, CurrentElement) else slots[arg] for arg in atom.args)
    guards = tuple(slot for slot in positions if slot is not None)
    declaration = atom.predicate.declaration
    if declaration is None:
        evaluator = atom.predicate.evaluator

        def holds(event, stored):
            args = []
            for slot in positions:
                arg = event if slot is None else stored[slot]
                if arg is None:
                    return False
                args.append(arg)
            return bool(evaluator(*args))

        return holds
    left, op, right = declaration
    if left[0] == "lit":
        left, op, right = right, _FLIPPED[op], left
    literal = left[0] == "attr" and right[0] == "lit"
    if literal and not guards and isinstance(right[1], (str, int, float)):
        return _literal_test(left[2], op, right[1])
    compare = _COMPARISONS[op]
    read_left, read_right = _operand(left, positions), _operand(right, positions)

    def holds(event, stored):
        for slot in guards:
            if stored[slot] is None:
                return False
        return _compare_values(read_left(event, stored), compare, read_right(event, stored))

    return holds


def _literal_test(name: str, op: str, constant: Value) -> Holds:
    """`~.name op constant` for a text or number constant, as
    `_compare_values` decides it: false unless the attribute is there and
    of the constant's kind (bools count as numbers). Text `==` needs no
    kind test, since only text equals text."""
    if isinstance(constant, str):
        if op == "==":
            return lambda event, stored: event.get(name) == constant
        kind: Union[type, tuple[type, ...]] = str
    else:
        kind = (int, float)
    compare = _COMPARISONS[op]

    def holds(event, stored):
        value = event.get(name)
        return isinstance(value, kind) and compare(value, constant)

    return holds


def _operand(operand: tuple, positions: tuple) -> Callable[..., Optional[Value]]:
    """A reader of one declaration operand: the literal, or the attribute of
    the current element or of a register the atom has checked is full."""
    if operand[0] == "lit":
        value = operand[1]
        return lambda event, stored: value
    name, slot = operand[2], positions[operand[1]]
    if slot is None:
        return lambda event, stored: event.get(name)
    return lambda event, stored: stored[slot].get(name)


# ---------------------------------------------------------------------------
# Minterms


_FLIPPED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


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
    against.
    """
    if not isinstance(minterm, (TrueCondition, Atom, Not, And, Or)):
        raise NotAMinterm(repr(minterm))
    if condition == TRUE:
        return True
    return any(node == condition for node in _walk(minterm, (And,)))
