"""Boolean-algebra substrate: events, registers, valuations, predicates
and conditions, with their evaluation.

Everything here is immutable and hashable, so events, valuations and
conditions can be shared freely across threads and used as dictionary keys
(the streaming engine deduplicates configurations by state and register
contents). Conditions, and the expressions of `cerf.pattern`, are
hash-consed (see `_Node`): a built node stays shareable across threads,
but construction goes through one table without a lock, so conditions and
expressions are built on one thread at a time.
"""

from __future__ import annotations

import functools
import operator
import weakref
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

Value = Union[str, int, float]


class UnknownPredicate(KeyError):
    """No predicate with this name is registered in the library."""


# ---------------------------------------------------------------------------
# Value types

_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types. Each is a slotted class written
    out in its module: its `__init__` stores the fields with `_set`, and
    assigning or deleting an attribute raises AttributeError. The repr
    lists the fields, the class's own slots not starting with `_`, as
    `Name(field=value, ...)`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        """Restore a copied or unpickled instance, which assignment cannot:
        `state` is (the `__dict__` or None, the slot values)."""
        instance_dict, slots = state
        if instance_dict:
            self.__dict__.update(instance_dict)
        for name, value in slots.items():
            _set(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Events and registers


class Event(_Frozen):
    """One element of the universe: a flat record of named attributes, held
    as a dict from name to value, however the attributes were given. Its
    `attrs` are the (name, value) pairs sorted by name, made on first use;
    equality, hashing, repr and str read the event as those pairs.

    Attribute values are text or numbers. Two events compare equal iff all
    their attributes match exactly.
    """

    __slots__ = ("_values", "_attrs")

    def __init__(self, attrs: Iterable[tuple[str, Value]]) -> None:
        attrs = tuple(sorted(attrs, key=operator.itemgetter(0)))
        names = [n for n, _ in attrs]
        if any(not n for n in names):
            raise ValueError("attribute names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique within an event")
        _set(self, "_values", dict(attrs))
        _set(self, "_attrs", attrs)

    @property
    def attrs(self) -> tuple[tuple[str, Value], ...]:
        attrs = self._attrs
        if attrs is None:
            attrs = tuple(sorted(self._values.items()))
            _set(self, "_attrs", attrs)
        return attrs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash((self._attrs or self.attrs,))

    def __repr__(self) -> str:
        return f"Event(attrs={self.attrs!r})"

    @classmethod
    def of(cls, **attrs: Value) -> "Event":
        return cls(attrs.items())

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Value]) -> "Event":
        """The event of a copy of a mapping. Its keys are unique already, so
        only an empty name needs checking."""
        if "" in mapping:
            raise ValueError("attribute names must be non-empty")
        return _adopt(dict(mapping))

    def get(self, name: str, default: Optional[Value] = None) -> Optional[Value]:
        return self._values.get(name, default)

    def __getitem__(self, name: str) -> Value:
        return self._values[name]

    def as_dict(self) -> dict[str, Value]:
        """The attributes as a dict in name order."""
        return dict(self.attrs)

    def project(self, names: frozenset[str]) -> "Event":
        """The event cut down to the named attributes it has. A cut of a
        valid event is valid, so this skips the constructor's checks."""
        return _adopt({k: v for k, v in self._values.items() if k in names})

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for _, v in self.attrs) + ")"


def _adopt(values: dict[str, Value]) -> Event:
    """The event whose attribute dict is `values` itself, not a copy. The
    caller hands the dict over, its names non-empty, its values text or
    finite numbers."""
    event = object.__new__(Event)
    _set(event, "_values", values)
    _set(event, "_attrs", None)
    return event


@functools.total_ordering
class Register(_Frozen):
    """A named storage cell for one event. The name is the identity; callers
    keep names unique within one expression/automaton scope.

    Registers hash and order by their name string directly: valuations and
    configuration sets hash and compare them on every write and lookup."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __lt__(self, other: "Register") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name < other.name

    def __str__(self) -> str:
        return self.name


class CurrentElement(_Frozen):
    """Marker for the element currently being consumed (written ~)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "~"


CURRENT = CurrentElement()

Argument = Union[Register, CurrentElement]


class Valuation(_Frozen):
    """Partial mapping from registers to events; an absent entry is an empty
    register. Substitution returns a fresh valuation. The automaton runs
    store in a register only the attributes its readers can observe (see
    `Sra.observed_attributes`), so two runs that stored events alike in
    those attributes hold equal valuations."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Register, Event], ...] = ()) -> None:
        _set(self, "entries", entries)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

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


class Predicate(_Frozen):
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

    __slots__ = ("name", "arity", "evaluator", "source", "declaration", "footprint")

    def __init__(
        self,
        name: str,
        arity: int,
        evaluator: Optional[Callable[..., bool]] = None,
        source: Optional[str] = None,
        declaration: Optional[Declaration] = None,
    ) -> None:
        if arity < 1:
            raise ValueError("predicate arity must be at least 1")
        if (evaluator is None) == (declaration is None):
            raise ValueError("a predicate has exactly one of an evaluator and a declaration")
        footprint = None
        if declaration is not None:
            operands = (declaration.left, declaration.right)
            if any(o[0] == "attr" and not 0 <= o[1] < arity for o in operands):
                raise ValueError("a declaration reads only the predicate's parameters")
            if declaration.op not in _COMPARISONS:
                raise ValueError(f"unknown comparison {declaration.op!r}")
            footprint = tuple(
                frozenset(o[2] for o in operands if o[0] == "attr" and o[1] == index)
                for index in range(arity)
            )
        _set(self, "name", name)
        _set(self, "arity", arity)
        _set(self, "evaluator", evaluator)
        _set(self, "source", source)
        _set(self, "declaration", declaration)
        _set(self, "footprint", footprint)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.arity, self.declaration) == (
            other.name, other.arity, other.declaration
        )

    def __hash__(self) -> int:
        return hash((self.name, self.arity, self.declaration))

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


class _Node(_Frozen):
    """Base of the hash-consed value types: conditions, and the expressions
    of `cerf.pattern`. Each constructor returns the one live node of its
    value, from a weak table of this process (`_intern`), so equal nodes
    are one object, and equality and hashing are identity. A copied or
    unpickled node is built again through its constructor, so it too is
    the node of its value."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])


# The live node of each key; an entry goes when its node dies (`_forget`),
# so the table does not outgrow the nodes in use.
_nodes: dict[tuple, weakref.KeyedRef] = {}


def _forget(ref: weakref.KeyedRef) -> None:
    if _nodes.get(ref.key) is ref:
        del _nodes[ref.key]


def _intern(cls: type, fields: dict, key: Optional[tuple] = None):
    """The live node of `cls` whose slots hold `fields` (slot name to
    value), built if there is none. It is keyed by `key`, by default the
    class and the field values, so a node is keyed by its operand nodes."""
    if key is None:
        key = (cls, *fields.values())
    ref = _nodes.get(key)
    if ref is None or (node := ref()) is None:
        node = object.__new__(cls)
        for name, value in fields.items():
            _set(node, name, value)
        _nodes[key] = weakref.KeyedRef(node, _forget, key)
    return node


class Condition(_Node):
    """Base class for Boolean formulas over predicate atoms whose arguments
    are registers or the current-element marker. Conditions are
    hash-consed (see `_Node`)."""

    __slots__ = ()


class TrueCondition(Condition):
    __slots__ = ()

    def __new__(cls) -> "TrueCondition":
        return TRUE

    def __repr__(self) -> str:
        return "TRUE"


TRUE = _intern(TrueCondition, {})


class Atom(Condition):
    __slots__ = ("predicate", "args")

    def __new__(cls, predicate: Predicate, args: tuple[Argument, ...]) -> "Atom":
        if len(args) != predicate.arity:
            raise ValueError(
                f"{predicate.name} has arity {predicate.arity}, got {len(args)} arguments"
            )
        # A declared predicate is keyed by its value and its declaration
        # line, so an atom keeps the line it was parsed from. A Python-built
        # one is keyed as itself: two of them can compare equal and still
        # evaluate differently. The atom holds it, so its id names it while
        # the entry lives.
        named = predicate if predicate.declaration is not None else id(predicate)
        key = (Atom, named, predicate.source, args)
        return _intern(Atom, {"predicate": predicate, "args": args}, key)


class Not(Condition):
    __slots__ = ("operand",)

    def __new__(cls, operand: Condition) -> "Not":
        return _intern(Not, {"operand": operand})


def _binary(cls: type, left: Condition, right: Condition) -> Condition:
    """The `And` or `Or` node of two operands."""
    return _intern(cls, {"left": left, "right": right})


class And(Condition):
    __slots__ = ("left", "right")
    __new__ = _binary


class Or(Condition):
    __slots__ = ("left", "right")
    __new__ = _binary


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
    """Every node of the given condition trees once, however often the
    trees share it (equal subtrees are one node)."""
    seen: set[Condition] = set()
    stack = list(conditions)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
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


class EvalCounters:
    """Instrumentation counters for the step-cost contract: one deterministic
    engine step must stay within c condition evaluations and k register reads."""

    __slots__ = ("condition_evals", "register_reads")

    def __init__(self, condition_evals: int = 0, register_reads: int = 0) -> None:
        self.condition_evals = condition_evals
        self.register_reads = register_reads

    __repr__ = _Frozen.__repr__


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
        """An And or Or chain is walked as `_walk(condition, (And,))` or
        `(Or,)` walks it, left operands first, with an explicit stack, and
        stops at the first operand that decides it, so chains of any length
        evaluate without recursing."""
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
        if isinstance(condition, (And, Or)):
            kind = condition.__class__
            decided = kind is Or  # the operand value that decides the chain
            stack = [condition]
            while stack:
                node = stack.pop()
                if node.__class__ is kind:
                    stack += (node.right, node.left)
                elif self.evaluate(node, current) is decided:
                    return decided
            return not decided
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

    `compiled` maps each node compiled so far to its closure, so that a
    subtree shared between conditions, as `minterms` shares its literals, is
    compiled once. Equal conditions are one node, so they share one entry."""
    if compiled is None:
        compiled = {}
    holds = compiled.get(condition)
    if holds is None:
        holds = compiled[condition] = _compile_node(condition, slots, compiled)
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
    if left[0] == right[0] == "attr":
        return _join_test(left, compare, right, positions, guards)
    read_left, read_right = _operand(left, positions), _operand(right, positions)

    def holds(event, stored):
        for slot in guards:
            if stored[slot] is None:
                return False
        return _compare_values(read_left(event, stored), compare, read_right(event, stored))

    return holds


_NUMBER = (int, float)

# each comparison with its operands swapped: `a op b` is `b _FLIPPED[op] a`
_FLIPPED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _literal_test(name: str, op: str, constant: Value) -> Holds:
    """`~.name op constant` for a text or number constant, as
    `_compare_values` decides it: false unless the attribute is there and
    of the constant's kind (bools count as numbers). Text `==` needs no
    kind test, since only text equals text."""
    if isinstance(constant, str):
        if op == "==":
            return lambda event, stored: event._values.get(name) == constant
        kind: Union[type, tuple[type, ...]] = str
    else:
        kind = _NUMBER
    compare = _COMPARISONS[op]

    def holds(event, stored):
        value = event._values.get(name)
        return isinstance(value, kind) and compare(value, constant)

    return holds


def _join_test(left: tuple, compare: Callable, right: tuple, positions: tuple,
               guards: tuple) -> Holds:
    """`left op right` over two attributes, of `~` or of registers, as
    `_compare_values` decides it, reading the slots in the generic path's
    order: each guard, false at the first empty one, then the operands'."""
    left_slot, left_name = positions[left[1]], left[2]
    right_slot, right_name = positions[right[1]], right[2]

    def holds(event, stored):
        for slot in guards:
            if stored[slot] is None:
                return False
        a = (event if left_slot is None else stored[left_slot])._values.get(left_name)
        b = (event if right_slot is None else stored[right_slot])._values.get(right_name)
        if isinstance(a, str):
            return isinstance(b, str) and compare(a, b)
        return isinstance(a, _NUMBER) and isinstance(b, _NUMBER) and compare(a, b)

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
