import itertools
from random import Random

import pytest
from hypothesis import given, strategies as st

from cerf import algebra
from cerf.algebra import (
    ALWAYS,
    CURRENT,
    EMPTY_VALUATION,
    TRUE,
    And,
    Atom,
    EvalScope,
    Event,
    Not,
    NotAMinterm,
    Or,
    Predicate,
    PredicateLibrary,
    Register,
    UnknownPredicate,
    Valuation,
    compile_condition,
    comparison_predicate,
    conjoin,
    entails,
    evaluate_condition,
    join_predicate,
    minterms,
    predicates_of,
    registers_of,
    substitute_registers,
)
from cerf.pattern import parse_predicates

from gen import UNIVERSE, random_condition, universe_library

R1 = Register("r1")
R2 = Register("r2")


class TestEvent:
    def test_attributes_are_readable(self):
        ev = Event.of(type="T", id=1, value=22)
        assert ev["type"] == "T"
        assert ev.get("id") == 1
        assert ev.get("missing") is None
        assert ev.as_dict() == {"type": "T", "id": 1, "value": 22}

    def test_equality_ignores_attribute_order(self):
        assert Event.of(a=1, b=2) == Event.of(b=2, a=1)

    def test_bad_attribute_names_rejected(self):
        with pytest.raises(ValueError):
            Event((("", 1),))
        with pytest.raises(ValueError):
            Event((("x", 1), ("x", 2)))

    def test_from_mapping(self):
        assert Event.from_mapping({"x": 1}) == Event.of(x=1)

    def test_project_keeps_the_named_attributes_it_has(self):
        ev = Event.of(type="T", id=1, value=22)
        cut = ev.project(frozenset({"id", "missing"}))
        assert cut == Event.of(id=1) and hash(cut) == hash(Event.of(id=1))
        assert ev.project(frozenset()) == Event(())


class TestRegister:
    def test_hash_equality_and_order_follow_the_name(self):
        names = ["r2", "r10", "r1", "b", "r1_0"]
        registers = [Register(n) for n in names]
        for n in names:
            assert hash(Register(n)) == hash(Register(n))
            assert Register(n) == Register(n) and repr(Register(n)) == f"Register(name={n!r})"
        assert [r.name for r in sorted(registers)] == sorted(names)
        assert Register("r1") < Register("r2") <= Register("r2") < Register("r3")
        assert Register("r3") > Register("r2") >= Register("r2")
        assert len({Register("r1"), Register("r1"), Register("r2")}) == 2
        with pytest.raises(TypeError):
            Register("r1") < "r2"


class TestValuation:
    def test_empty_lookup_is_none(self):
        assert EMPTY_VALUATION.lookup(R1) is None

    def test_set_then_get(self):
        ev = Event.of(x=1)
        v = EMPTY_VALUATION.set(R1, ev)
        assert v.lookup(R1) is ev
        assert v.entries == ((R1, ev),)
        assert v.lookup(R2) is None
        assert EMPTY_VALUATION.lookup(R1) is None

    def test_set_is_persistent(self):
        ev1, ev2 = Event.of(x=1), Event.of(x=2)
        v1 = EMPTY_VALUATION.set(R1, ev1)
        v2 = v1.set(R1, ev2)
        assert v1.lookup(R1) is ev1
        assert v2.lookup(R1) is ev2

    def test_set_overwrites_one_register_and_keeps_the_rest(self):
        ev = Event.of(x=1)
        v = EMPTY_VALUATION.set(R1, ev).set(R2, ev)
        assert v.lookup(R1) is ev and v.lookup(R2) is ev
        assert {r for r, _ in v.entries} == {R1, R2}
        cut = Event.of(y=2)
        w = v.set(R2, cut)
        assert w.lookup(R1) is ev and w.lookup(R2) is cut
        assert w == EMPTY_VALUATION.set(R2, cut).set(R1, ev)

    def test_equality_is_structural(self):
        ev = Event.of(x=1)
        a = EMPTY_VALUATION.set(R1, ev).set(R2, ev)
        b = EMPTY_VALUATION.set(R2, ev).set(R1, ev)
        assert a == b


# Truth values of declared predicates, written out: each row is (group,
# body, argument events as dicts, expected). "literal" rows compare an
# attribute with a literal on either side, "join" rows two attributes, and
# "kind" rows operands of different kinds or missing ones, which never hold.
_TRUTH_TABLE = [
    ("literal", "x.v == 3", [{"v": 3}], True),
    ("literal", "x.v == 3", [{"v": 3.0}], True),
    ("literal", "x.v == 3", [{"v": 4}], False),
    ("literal", "x.v != 3", [{"v": 4}], True),
    ("literal", "x.v != 3", [{"v": 3}], False),
    ("literal", "x.v < 3", [{"v": 2.5}], True),
    ("literal", "x.v < 3", [{"v": 3}], False),
    ("literal", "x.v <= 2.5", [{"v": 2.5}], True),
    ("literal", "x.v <= 2.5", [{"v": 3}], False),
    ("literal", "x.v > 2.5", [{"v": 3}], True),
    ("literal", "x.v > 2.5", [{"v": 2.5}], False),
    ("literal", "x.v >= 3", [{"v": 3}], True),
    ("literal", "x.v >= 3", [{"v": 2}], False),
    ("literal", "3 < x.v", [{"v": 4}], True),
    ("literal", "3 < x.v", [{"v": 2}], False),
    ("literal", "2.5 >= x.v", [{"v": 2.5}], True),
    ("literal", "2.5 >= x.v", [{"v": 3}], False),
    ("literal", '"T" == x.type', [{"type": "T"}], True),
    ("literal", '"T" != x.type', [{"type": "T"}], False),
    ("literal", '"T" != x.type', [{"type": "H"}], True),
    ("literal", 'x.type < "b"', [{"type": "a"}], True),
    ("literal", 'x.type >= "b"', [{"type": "a"}], False),
    ("literal", '"b" > x.type', [{"type": "a"}], True),
    ("literal", '"b" <= x.type', [{"type": "ab"}], False),
    ("join", "x.id == y.id", [{"id": 1}, {"id": 1, "other": 2}], True),
    ("join", "x.id == y.id", [{"id": 1}, {"id": 2}], False),
    ("join", "x.id != y.id", [{"id": 1}, {"id": 2}], True),
    ("join", "x.id < y.num", [{"id": 1}, {"num": 1.5}], True),
    ("join", "x.id <= y.num", [{"id": 2}, {"num": 1.5}], False),
    ("join", "x.id > y.id", [{"id": "b"}, {"id": "a"}], True),
    ("join", "y.id >= x.id", [{"id": "b"}, {"id": "a"}], False),
    ("join", "x.a == x.b", [{"a": 1, "b": 1.0}, {}], True),
    ("kind", "x.v < 10", [{"v": "abc"}], False),
    ("kind", "x.v != 10", [{"v": "abc"}], False),
    ("kind", 'x.v == "3"', [{"v": 3}], False),
    ("kind", '"3" != x.v', [{"v": 3}], False),
    ("kind", "x.v >= 0", [{"other": 1}], False),
    ("kind", "x.v != 0", [{"other": 1}], False),
    ("kind", '"T" == x.type', [{"other": 1}], False),
    ("kind", "x.v < y.v", [{"v": 1}, {"v": "2"}], False),
    ("kind", "x.v != y.v", [{"v": 1}, {"v": "1"}], False),
    ("kind", "x.v != y.v", [{"other": 1}, {"v": 1}], False),
    ("kind", "x.v == y.v", [{"other": 1}, {"other": 1}], False),
    ("bool", "x.v == 1", [{"v": True}], True),
    ("bool", "x.v != 1", [{"v": True}], False),
    ("bool", "x.v < 1.5", [{"v": True}], True),
    ("bool", "0.5 >= x.v", [{"v": False}], True),
    ("bool", 'x.v == "True"', [{"v": True}], False),
    ("bool", '"True" != x.v', [{"v": True}], False),
    ("bool", "x.v == y.v", [{"v": True}, {"v": 1.0}], True),
    ("bool", "x.v > y.v", [{"v": True}, {"v": "a"}], False),
]


def _check_truth_table(group):
    rows = [row for row in _TRUTH_TABLE if row[0] == group]
    assert rows
    for _, body, args, expected in rows:
        params = ", ".join(["x", "y"][: len(args)])
        pred = parse_predicates(f"pred P({params}): {body}").get("P")
        assert pred(*(Event.from_mapping(a) for a in args)) is expected, (body, args)


class TestPredicates:
    def test_comparison_predicate(self):
        p = comparison_predicate("TypeIsT", "type", "==", "T")
        assert p(Event.of(type="T"))
        assert not p(Event.of(type="H"))
        assert p.source == 'pred TypeIsT(x): x.type == "T"'
        _check_truth_table("literal")

    def test_missing_attribute_is_false(self):
        p = comparison_predicate("TypeIsT", "type", "==", "T")
        assert not p(Event.of(other=1))

    def test_type_mismatch_is_false_not_an_error(self):
        p = comparison_predicate("Small", "value", "<", 10)
        assert not p(Event.of(value="abc"))
        assert p(Event.of(value=3))
        assert p(Event.of(value=9.5))
        _check_truth_table("kind")

    def test_join_predicate(self):
        p = join_predicate("EqualId", "id", "==", "id")
        assert p(Event.of(id=1), Event.of(id=1, other=2))
        assert not p(Event.of(id=1), Event.of(id=2))
        _check_truth_table("join")

    def test_arity_enforced(self):
        p = join_predicate("EqualId", "id", "==", "id")
        with pytest.raises(TypeError):
            p(Event.of(id=1))

    def test_always(self):
        assert ALWAYS(Event.of(x=1))

    def test_declared_predicates_carry_their_footprint(self):
        assert comparison_predicate("T", "type", "==", "T").footprint == (frozenset({"type"}),)
        assert join_predicate("J", "id", "<", "num").footprint == (
            frozenset({"id"}),
            frozenset({"num"}),
        )
        lib = parse_predicates(
            'pred Both(x, y): x.a == x.b\npred Flip(x, y): "k" != y.c'
        )
        assert lib.get("Both").footprint == (frozenset({"a", "b"}), frozenset())
        assert lib.get("Flip").footprint == (frozenset(), frozenset({"c"}))

    def test_footprint_survives_reparsing_the_source(self):
        declared = [
            comparison_predicate("Small", "value", "<=", 1e-05),
            join_predicate("SameNum", "num", "!=", "num"),
            *parse_predicates("pred Both(x, y): x.a == x.b"),
        ]
        for pred in declared:
            back = parse_predicates(pred.source).get(pred.name)
            assert back.footprint == pred.footprint, pred.source

    def test_hand_built_predicates_have_no_footprint(self):
        assert ALWAYS.footprint is None
        assert Predicate("P", 2, lambda x, y: True).footprint is None
        with pytest.raises(TypeError):
            Predicate("P", 2, lambda x, y: True, footprint=(frozenset(),))

    def test_declared_predicates_keep_their_declaration(self):
        small = parse_predicates("pred Small(x, y): 5 > y.value").get("Small")
        assert small.declaration == (("lit", 5), ">", ("attr", 1, "value"))
        assert small.footprint == (frozenset(), frozenset({"value"}))
        assert small.evaluator is None and ALWAYS.declaration is None
        with pytest.raises(ValueError):
            Predicate("P", 1, declaration=small.declaration)
        with pytest.raises(ValueError):
            Predicate("P", 2, declaration=small.declaration._replace(op="=~"))
        with pytest.raises(ValueError):
            Predicate("P", 2, lambda x, y: True, declaration=small.declaration)
        with pytest.raises(ValueError):
            Predicate("P", 2)

    def test_footprint_does_not_affect_equality(self):
        declared = comparison_predicate("P", "x", "==", 1)
        bare = Predicate("P", 1, lambda e: declared(e))
        negated = Predicate("P", 1, lambda e: not declared(e))
        assert bare.footprint is None and declared.footprint == (frozenset({"x"}),)
        assert bare == negated and hash(bare) == hash(negated) and bare != declared
        again = comparison_predicate("P", "x", "==", 1)
        assert declared == again and hash(declared) == hash(again)

    def test_distinct_declarations_make_distinct_atoms(self):
        t = Atom(comparison_predicate("P", "type", "==", "T"), (CURRENT,))
        h = Atom(comparison_predicate("P", "type", "==", "H"), (CURRENT,))
        bare = Atom(Predicate("P", 1, lambda e: t.predicate(e)), (CURRENT,))
        assert t != h and t != bare
        assert [m for m, _ in minterms([t, h])] == [
            And(t, Not(h)),
            And(Not(t), h),
            And(Not(t), Not(h)),
        ]

    def test_library_conflicts_and_lookup(self):
        lib = PredicateLibrary()
        p = comparison_predicate("P", "x", "==", 1)
        lib.define(p)
        assert lib.get("P") is p
        assert "P" in lib
        with pytest.raises(ValueError):
            lib.define(comparison_predicate("P", "x", "==", 2))
        with pytest.raises(UnknownPredicate):
            lib.get("Q")


def _atom(name, *args):
    lib = universe_library()
    return Atom(lib.get(name), args)


class TestEvaluation:
    def test_true_condition(self):
        assert evaluate_condition(TRUE, UNIVERSE[0], EMPTY_VALUATION)

    def test_atom_on_current(self):
        cond = _atom("KindA", CURRENT)
        assert evaluate_condition(cond, Event.of(kind="A", num=1), EMPTY_VALUATION)
        assert not evaluate_condition(cond, Event.of(kind="B", num=1), EMPTY_VALUATION)

    def test_atom_reading_register(self):
        cond = _atom("SameNum", CURRENT, R1)
        v = EMPTY_VALUATION.set(R1, Event.of(kind="A", num=1))
        assert evaluate_condition(cond, Event.of(kind="B", num=1), v)
        assert not evaluate_condition(cond, Event.of(kind="B", num=2), v)

    def test_unbound_register_total_semantics(self):
        cond = _atom("SameNum", CURRENT, R1)
        assert not evaluate_condition(cond, UNIVERSE[0], EMPTY_VALUATION)
        # negation stays classical: the false atom makes the negation true
        assert evaluate_condition(Not(cond), UNIVERSE[0], EMPTY_VALUATION)

    def test_boolean_operators(self):
        a = _atom("KindA", CURRENT)
        n1 = _atom("NumIs1", CURRENT)
        ev = Event.of(kind="A", num=2)
        assert evaluate_condition(Or(a, n1), ev, EMPTY_VALUATION)
        assert not evaluate_condition(And(a, n1), ev, EMPTY_VALUATION)
        assert evaluate_condition(And(a, Not(n1)), ev, EMPTY_VALUATION)



def _compiled(condition, event, valuation, compiled=None):
    """What the compiled closure of `condition` gives on the slot form of
    `valuation` (r1 in slot 0, r2 in slot 1), and the registers it read."""
    read = []

    class Recorded(tuple):
        def __getitem__(self, slot):
            read.append((R1, R2)[slot])
            return tuple.__getitem__(self, slot)

    holds = compile_condition(condition, {R1: 0, R2: 1}, compiled)
    return holds(event, Recorded((valuation.lookup(R1), valuation.lookup(R2)))), set(read)


def _referenced(condition, event, valuation):
    """What the tree-walking scope gives, and the registers it read."""
    scope = EvalScope(valuation)
    return scope.evaluate(condition, event), set(scope._cache)


_MIXED_VALUES = ("A", "B", 1, 1.0, 2, 2.5, "1", True, False, None)


def _mixed_event(rng):
    """An event over kind and num whose values may be text, int, float or
    bool of either kind, or missing (None here)."""
    drawn = {name: rng.choice(_MIXED_VALUES) for name in ("kind", "num")}
    drawn["other"] = 0
    return Event.from_mapping({k: v for k, v in drawn.items() if v is not None})


def _nested_condition(rng, lib, depth):
    if depth == 0 or rng.random() < 0.3:
        return random_condition(rng, lib)
    roll = rng.random()
    if roll < 0.2:
        return Not(_nested_condition(rng, lib, depth - 1))
    if roll < 0.4:
        return conjoin([_nested_condition(rng, lib, depth - 1) for _ in range(rng.randint(3, 6))])
    kind = And if roll < 0.7 else Or
    return kind(_nested_condition(rng, lib, depth - 1), _nested_condition(rng, lib, depth - 1))


class TestCompiledConditions:
    """`compile_condition` against the tree-walking reference."""

    def test_agrees_with_evaluate_condition_on_random_conditions(self):
        rng = Random(13)
        lib = universe_library()
        # one map for every condition, which must stay alive while it is used
        compiled, conditions = {}, []
        for _ in range(3000):
            condition = _nested_condition(rng, lib, 3)
            if conditions and rng.random() < 0.3:
                condition = And(rng.choice(conditions), condition)
            conditions.append(condition)
            event = _mixed_event(rng)
            valuation = EMPTY_VALUATION
            for register in (R1, R2):
                if rng.random() < 0.7:
                    valuation = valuation.set(register, _mixed_event(rng))
            expected = _referenced(condition, event, valuation)
            got = _compiled(condition, event, valuation, compiled)
            assert got == expected, (condition, event, valuation)
            assert evaluate_condition(condition, event, valuation) is expected[0]

    def test_truth_table_with_the_literal_on_either_side(self):
        for _, body, args, expected in _TRUTH_TABLE:
            params = ", ".join(["x", "y"][: len(args)])
            pred = parse_predicates(f"pred P({params}): {body}").get("P")
            events = [Event.from_mapping(a) for a in args]
            assert pred(*events) is expected, (body, args)
            if len(events) == 1:
                got, _ = _compiled(Atom(pred, (CURRENT,)), events[0], EMPTY_VALUATION)
                assert got is expected, (body, args)
                continue
            # each argument in turn is the current element, the other r1
            for args_, current, stored in (((CURRENT, R1), events[0], events[1]),
                                           ((R1, CURRENT), events[1], events[0])):
                got, read = _compiled(Atom(pred, args_), current, EMPTY_VALUATION.set(R1, stored))
                assert (got, read) == (expected, {R1}), (body, args, args_)

    def test_empty_register_is_false_and_negation_classical(self):
        same = _atom("SameNum", CURRENT, R1)
        ev = Event.of(kind="A", num=1)
        assert _compiled(same, ev, EMPTY_VALUATION) == (False, {R1})
        assert _compiled(Not(same), ev, EMPTY_VALUATION) == (True, {R1})
        assert _compiled(Or(_atom("KindA", CURRENT), same), ev, EMPTY_VALUATION) == (True, set())
        assert _compiled(TRUE, ev, EMPTY_VALUATION) == (True, set())

    def test_python_built_predicate_calls_its_evaluator(self):
        calls = []
        tagged = Predicate(
            "SameTag", 2, lambda x, y: calls.append((x, y)) or x.get("tag") == y.get("tag")
        )
        cond = Atom(tagged, (CURRENT, R1))
        ev, stored = Event.of(tag="x"), Event.of(tag="x", num=1)
        assert _compiled(cond, ev, EMPTY_VALUATION.set(R1, stored)) == (True, {R1})
        assert calls == [(ev, stored)]
        assert _compiled(cond, ev, EMPTY_VALUATION) == (False, {R1})
        assert len(calls) == 1


class TestConditionHelpers:
    def test_registers_of(self):
        cond = And(_atom("SameNum", CURRENT, R1), Not(_atom("SameKind", CURRENT, R2)))
        assert registers_of(cond) == frozenset({R1, R2})
        assert registers_of(TRUE) == frozenset()

    def test_collectors_walk_deep_conjunctions(self):
        # built directly: nothing bounds the depth of a condition in an
        # automaton document
        lib = universe_library()
        registers = [Register(f"r{i}") for i in range(7)]
        reads = [Atom(lib.get("SameNum"), (CURRENT, registers[i % 7])) for i in range(5000)]
        kind_a = Atom(lib.get("KindA"), (CURRENT,))
        chain = conjoin(reads + [Not(kind_a)])
        assert registers_of(chain) == frozenset(registers)
        assert predicates_of(chain) == frozenset({lib.get("SameNum"), lib.get("KindA")})
        assert entails(chain, reads[0]) and entails(chain, Not(kind_a))
        assert not entails(chain, kind_a)

    def test_deep_chains_hash_and_compare_without_recursion(self):
        # `complete` guards a state with one left-nested chain of negated
        # minterms, and a symbol map hashes it
        lib = universe_library()

        def chain(last):
            reads = [Not(Atom(lib.get("SameNum"), (CURRENT, Register(f"r{i % 7}"))))
                     for i in range(20_000)]
            return conjoin(reads + [Atom(lib.get(last), (CURRENT,))])

        one, other = chain("KindA"), chain("KindA")
        assert one is not other and hash(one) == hash(other)
        assert one == other and {one: 1}[other] == 1
        assert one != chain("KindB")

    def test_substitute_registers(self):
        cond = _atom("SameNum", CURRENT, R1)
        swapped = substitute_registers(cond, {R1: R2})
        assert registers_of(swapped) == frozenset({R2})

    def test_conjoin(self):
        a = _atom("KindA", CURRENT)
        b = _atom("NumIs1", CURRENT)
        assert conjoin([]) is TRUE
        assert conjoin([a]) is a
        assert conjoin([a, b]) == And(a, b)


def _kept(conds):
    """The minterms of `minterms`, without their signs."""
    return tuple(m for m, _ in minterms(conds))


def _grid():
    """Every (event, valuation) pair over the small universe with both
    registers optionally bound."""
    choices = [None] + list(UNIVERSE)
    for ev in UNIVERSE:
        for b1 in choices:
            for b2 in choices:
                v = EMPTY_VALUATION
                if b1 is not None:
                    v = v.set(R1, b1)
                if b2 is not None:
                    v = v.set(R2, b2)
                yield ev, v


class TestMinterms:
    def test_empty_input_gives_true(self):
        assert _kept([]) == (TRUE,)

    def test_true_base_simplification(self):
        phi = _atom("KindA", CURRENT)
        family = _kept([TRUE, phi])
        assert set(family) == {phi, Not(phi)}

    def test_duplicate_conditions_collapse(self):
        phi = _atom("KindA", CURRENT)
        assert set(_kept([phi, phi])) == {phi, Not(phi)}

    def test_two_conditions_give_four_minterms(self):
        phi = _atom("KindA", CURRENT)
        psi = _atom("NumIs1", CURRENT)
        family = _kept([phi, psi])
        assert len(family) == 4

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_exactly_one_minterm_fires(self, size):
        lib = universe_library()
        pool = [
            Atom(lib.get("KindA"), (CURRENT,)),
            Atom(lib.get("NumIs1"), (CURRENT,)),
            Atom(lib.get("SameNum"), (CURRENT, R1)),
            Not(Atom(lib.get("SameKind"), (CURRENT, R2))),
            TRUE,
        ]
        for conds in itertools.combinations(pool, size):
            family = _kept(conds)
            for ev, v in _grid():
                fired = [
                    m for m in family
                    if evaluate_condition(m, ev, v)
                ]
                assert len(fired) == 1


def _declared(source: str) -> Predicate:
    return parse_predicates(source).get(source.split()[1].split("(")[0])


def _unary(source: str) -> Atom:
    return Atom(_declared(source), (CURRENT,))


ALWAYS_ATOM = Atom(ALWAYS, (CURRENT,))


def _raw_minterms(conds):
    """Every sign combination, in product order, without any cut."""
    return [
        conjoin([c if positive else Not(c) for c, positive in zip(conds, signs)])
        for signs in itertools.product((True, False), repeat=len(conds))
    ]


class TestMintermCut:
    """Sign vectors whose positive literals conflict are never generated."""

    def test_conflicting_equalities_are_cut(self):
        t, h = _unary('pred T(x): x.type == "T"'), _unary('pred H(x): x.type == "H"')
        assert _kept([t, h]) == (And(t, Not(h)), And(Not(t), h), And(Not(t), Not(h)))

    def test_text_against_number_is_cut(self):
        t = _unary('pred T(x): x.type == "T"')
        small = _unary("pred Small(x): x.type < 5")
        assert And(t, small) not in _kept([t, small])
        assert len(_kept([t, small])) == 3

    def test_int_and_float_constants_agree(self):
        one, one_float = _unary("pred One(x): x.n == 1"), _unary("pred OneF(x): x.n == 1.0")
        assert _kept([one, one_float])[0] == And(one, one_float)
        assert len(_kept([one, one_float])) == 4

    @pytest.mark.parametrize(
        "low, high, kept",
        [
            ("x.v > 50", "x.v < 10", False),
            ("x.v > 10", "x.v < 50", True),
            ("x.v >= 5", "x.v <= 5", True),
            ("x.v > 5", "x.v <= 5", False),
            ("5 <= x.v", "5 > x.v", False),
            ('x.v > "b"', 'x.v < "a"', False),
            ('x.v > "a"', 'x.v < "b"', True),
        ],
    )
    def test_ordering_bounds(self, low, high, kept):
        above, below = _unary(f"pred Above(x): {low}"), _unary(f"pred Below(x): {high}")
        assert (And(above, below) in _kept([above, below])) is kept

    def test_a_single_point_can_be_excluded(self):
        conds = [
            _unary("pred Low(x): x.v >= 5"),
            _unary("pred High(x): x.v <= 5"),
            _unary("pred NotFive(x): x.v != 5"),
        ]
        assert conjoin(conds) not in _kept(conds)
        assert conjoin(conds[:2]) in {m.left for m in _kept(conds) if isinstance(m, And)}

    def test_equality_against_other_bounds(self):
        five = _unary("pred Five(x): x.v == 5")
        for other, kept in (("x.v != 5", False), ("x.v < 5", False), ("x.v <= 5", True)):
            bound = _unary(f"pred B(x): {other}")
            assert (And(five, bound) in _kept([five, bound])) is kept

    def test_registers_are_grouped_apart_from_the_current_element(self):
        t = _declared('pred T(x): x.type == "T"')
        h = _declared('pred H(x): x.type == "H"')
        on_current, on_register = Atom(t, (CURRENT,)), Atom(h, (R1,))
        assert len(_kept([on_current, on_register])) == 4
        assert len(_kept([Atom(t, (R1,)), Atom(h, (R2,))])) == 4
        assert len(_kept([Atom(t, (R1,)), on_register])) == 3
        joined = _declared('pred J(x, y): y.type == "H"')
        assert len(_kept([Atom(t, (R1,)), Atom(joined, (CURRENT, R1))])) == 3

    def test_conflicts_inside_one_conjunction_are_cut(self):
        t, h = _unary('pred T(x): x.type == "T"'), _unary('pred H(x): x.type == "H"')
        k = _unary('pred K(x): x.kind == "k"')
        assert _kept([And(k, t), h]) == (
            And(And(k, t), Not(h)),
            And(Not(And(k, t)), h),
            And(Not(And(k, t)), Not(h)),
        )

    def test_what_the_check_does_not_read_is_never_cut(self):
        t, h = _unary('pred T(x): x.type == "T"'), _unary('pred H(x): x.type == "H"')
        same = _unary("pred Same(x): x.a == x.b")
        differ = _unary("pred Differ(x): x.a != x.b")
        join_eq = Atom(_declared("pred Eq(x, y): x.id == y.id"), (CURRENT, R1))
        join_ne = Atom(_declared("pred Ne(x, y): x.id != y.id"), (CURRENT, R1))
        built_t = Atom(Predicate("BT", 1, lambda e: e.get("type") == "T"), (CURRENT,))
        built_h = Atom(Predicate("BH", 1, lambda e: e.get("type") == "H"), (CURRENT,))
        for pair in (
            [Not(t), Not(Not(h))],
            [Or(t, t), h],
            [same, differ],
            [join_eq, join_ne],
            [built_t, built_h],
        ):
            assert list(_kept(pair)) == _raw_minterms(pair), pair

    def test_kept_minterms_follow_product_order(self):
        conds = [
            _unary('pred T(x): x.type == "T"'),
            _unary("pred Big(x): x.v > 50"),
            _unary('pred H(x): x.type == "H"'),
            _unary("pred Small(x): x.v < 10"),
        ]
        kept = _kept(conds)
        raw = _raw_minterms(conds)
        assert list(kept) == [m for m in raw if m in set(kept)]
        assert len(kept) == 9

    def test_no_cut_subtree_is_enumerated(self, monkeypatch):
        # Forty pairwise exclusive conditions: 2**40 sign vectors, of which
        # the 41 with at most one positive literal survive. Each prefix the
        # generator visits is narrowed once; only the 40*41/2 prefixes with
        # at most one positive literal are ever visited.
        conds = [_unary(f"pred V{i}(x): x.v == {i}") for i in range(40)]
        visits = []
        narrowed = algebra._narrowed
        monkeypatch.setattr(
            algebra, "_narrowed", lambda groups, bounds: visits.append(1) or narrowed(groups, bounds)
        )
        family = _kept(conds)
        assert len(family) == 41
        assert len(visits) == 40 * 41 // 2


class TestStructuralCut:
    """Sign vectors whose minterm has a base it negates on its conjunction
    spine, or that assert both b and Not(b), are never generated, and every
    kept minterm carries its positive indices."""

    def test_positives_index_the_deduplicated_bases(self):
        phi, psi = _atom("KindA", CURRENT), _atom("NumIs1", CURRENT)
        assert minterms([]) == ((TRUE, ()),)
        assert minterms([phi, TRUE, phi, psi]) == (
            (And(phi, psi), (0, 1, 2)),
            (And(phi, Not(psi)), (0, 1)),
            (And(Not(phi), psi), (1, 2)),
            (And(Not(phi), Not(psi)), (1,)),
        )

    @pytest.mark.parametrize("base", [_unary('pred T(x): x.type == "T"'), ALWAYS_ATOM])
    def test_a_condition_and_its_negation_keep_two_minterms(self, base):
        assert minterms([base, Not(base)]) == (
            (And(base, Not(Not(base))), (0,)),
            (And(Not(base), Not(base)), (1,)),
        )

    def test_a_conjunction_is_not_asserted_without_its_conjuncts(self):
        k, t = _unary('pred K(x): x.kind == "k"'), _unary('pred T(x): x.type == "T"')
        both = And(k, t)
        assert minterms([both, t]) == (
            (And(both, t), (0, 1)),
            (And(Not(both), t), (1,)),
            (And(Not(both), Not(t)), ()),
        )
        assert minterms([t, both]) == (
            (And(t, both), (0, 1)),
            (And(t, Not(both)), (0,)),
            (And(Not(t), Not(both)), ()),
        )

    @pytest.mark.parametrize("negate", [False, True])
    def test_the_conjunction_of_the_literals_so_far_is_asserted(self, negate):
        # A third base equal to the conjunction of the first two literals:
        # negating it after asserting both is cut.
        k, t = _unary('pred K(x): x.kind == "k"'), _unary('pred T(x): x.type == "T"')
        second = Not(t) if negate else t
        both = And(k, second)
        family = minterms([k, t, both])
        assert (And(And(k, second), Not(both)), (0,) if negate else (0, 1)) not in family
        assert [positives for _, positives in family] == (
            [(0, 1, 2), (0, 1), (0, 2), (1,), ()] if negate else [(0, 1, 2), (0,), (1,), ()]
        )


_SIGN_ATOMS = (
    TRUE,
    ALWAYS_ATOM,
    _atom("SameNum", CURRENT, R1),
    _atom("SameKind", CURRENT, R2),
    Atom(Predicate("BuiltA", 1, lambda e: e.get("kind") == "A"), (CURRENT,)),
)


@st.composite
def _related_conditions(draw, atoms):
    """Conditions built from earlier ones: negations, conjunctions and
    disjunctions of them and of their negations, in a drawn order."""
    conds = [draw(st.sampled_from(atoms))]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        earlier = st.sampled_from(conds + [Not(c) for c in conds])
        shape = draw(st.sampled_from(["atom", "not", "and", "or"]))
        if shape == "atom":
            conds.append(draw(st.sampled_from(atoms)))
        elif shape == "not":
            conds.append(Not(draw(earlier)))
        else:
            conds.append((And if shape == "and" else Or)(draw(earlier), draw(earlier)))
    return draw(st.permutations(conds))


@given(_related_conditions(_SIGN_ATOMS + (_atom("KindA", CURRENT), _atom("KindB", CURRENT))))
def test_signs_are_what_entails_finds(conds):
    base = list(dict.fromkeys(conds))
    for mt, positives in minterms(conds):
        assert positives == tuple(i for i, c in enumerate(base) if entails(mt, c)), mt


@given(_related_conditions(_SIGN_ATOMS))
def test_every_structurally_cut_sign_vector_is_unsatisfiable(conds):
    # None of these atoms bounds an attribute by a literal, so every cut
    # here is structural.
    conds = list(dict.fromkeys(conds))
    kept = {positives for _, positives in minterms(conds)}
    grid = list(_grid())
    for signs in itertools.product((True, False), repeat=len(conds)):
        if tuple(i for i, positive in enumerate(signs) if positive) not in kept:
            vector = conjoin([c if positive else Not(c) for c, positive in zip(conds, signs)])
            assert not any(evaluate_condition(vector, ev, v) for ev, v in grid), vector


_CONSTANTS = (0, 1, 1.0, 1.5, 2, "0", "x", "y")
_PREDICATE_NUMBERS = itertools.count()
_VALUES = (None, 0, 1, 1.5, 2, "0", "x")


def _grid_events():
    for a in _VALUES:
        for b in (None, 1, "x"):
            yield Event.of(**{k: v for k, v in (("a", a), ("b", b)) if v is not None})


_CUT_GRID = [
    (ev, EMPTY_VALUATION if stored is None else EMPTY_VALUATION.set(R1, stored))
    for ev in _grid_events()
    for stored in [None, *list(_grid_events())[::3]]
]


@st.composite
def _declared_atoms(draw):
    op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
    attr = draw(st.sampled_from(["a", "b"]))
    shape = draw(st.sampled_from(["lit-right", "lit-left", "join", "same-event"]))
    if shape == "join":
        body = f"x.{attr} {op} y.{draw(st.sampled_from(['a', 'b']))}"
    elif shape == "same-event":
        body = f"x.a {op} x.b"
    else:
        value = draw(st.sampled_from(_CONSTANTS))
        literal = f'"{value}"' if isinstance(value, str) else repr(value)
        body = f"x.{attr} {op} {literal}" if shape == "lit-right" else f"{literal} {op} x.{attr}"
    # Predicates compare by name, so each drawn one needs its own.
    name = f"P{next(_PREDICATE_NUMBERS)}"
    pred = parse_predicates(f"pred {name}(x, y): {body}").get(name)
    args = draw(st.sampled_from([(CURRENT, R1), (R1, CURRENT)]))
    return Atom(pred, args)


@given(st.lists(st.lists(_declared_atoms(), min_size=1, max_size=2), min_size=1, max_size=4))
def test_every_cut_sign_vector_is_unsatisfiable(spines):
    conds = [conjoin(spine) for spine in spines]
    conds = list(dict.fromkeys(conds))
    kept = set(_kept(conds))
    for vector in _raw_minterms(conds):
        if vector not in kept:
            assert not any(evaluate_condition(vector, ev, v) for ev, v in _CUT_GRID), vector


def test_every_cut_pair_of_bounds_is_unsatisfiable():
    # Exhaustive over two literal comparisons of one attribute, each side
    # of the operator, with constants that are equal across kinds (1, 1.0),
    # ordered, and of mixed kinds; the grid holds every value between.
    bodies = [
        body
        for op in ("==", "!=", "<", "<=", ">", ">=")
        for literal in ("1", "1.0", "2", '"x"')
        for body in (f"x.a {op} {literal}", f"{literal} {op} x.a")
    ]
    atoms = [_unary(f"pred P{i}(x): {body}") for i, body in enumerate(bodies)]
    events = [Event.of(b=0)] + [Event.of(a=v) for v in (0, 1, 1.5, 2, 3, "0", "x", "y")]
    for first, second in itertools.permutations(atoms, 2):
        kept = set(_kept([first, second]))
        for vector in _raw_minterms([first, second]):
            if vector not in kept:
                assert not any(evaluate_condition(vector, ev, EMPTY_VALUATION) for ev in events)


class TestEntails:
    def test_positive_membership(self):
        phi = _atom("KindA", CURRENT)
        psi = _atom("NumIs1", CURRENT)
        mt = And(phi, Not(psi))
        assert entails(mt, phi)
        assert not entails(mt, psi)

    def test_everything_entails_true(self):
        phi = _atom("KindA", CURRENT)
        assert entails(Not(phi), TRUE)
        assert entails(TRUE, TRUE)

    def test_conjunction_base_is_found(self):
        # a base condition that is itself a conjunction must be entailed by a
        # minterm that contains it positively
        phi = And(_atom("KindA", CURRENT), _atom("NumIs1", CURRENT))
        other = _atom("SameNum", CURRENT, R1)
        mt = And(phi, Not(other))
        assert entails(mt, phi)
        assert entails(mt, other) is False

    def test_negated_base_not_entailed(self):
        phi = _atom("KindA", CURRENT)
        assert not entails(Not(phi), phi)

    def test_non_condition_rejected(self):
        with pytest.raises(NotAMinterm):
            entails("not a condition", TRUE)

    def test_semantic_soundness_on_grid(self):
        # whenever entails says yes, every satisfying (event, valuation) of
        # the minterm also satisfies the condition
        lib = universe_library()
        bases = [
            Atom(lib.get("KindA"), (CURRENT,)),
            Atom(lib.get("NumIs1"), (CURRENT,)),
            And(Atom(lib.get("KindB"), (CURRENT,)), Atom(lib.get("SameNum"), (CURRENT, R1))),
        ]
        for mt in _kept(bases):
            for cond in bases:
                if not entails(mt, cond):
                    continue
                for ev, v in _grid():
                    if evaluate_condition(mt, ev, v):
                        assert evaluate_condition(cond, ev, v)


@given(st.integers(min_value=0, max_value=3), st.data())
def test_minterm_partition_property(n_conditions, data):
    lib = universe_library()
    pool = [
        Atom(lib.get("KindA"), (CURRENT,)),
        Atom(lib.get("KindB"), (CURRENT,)),
        Atom(lib.get("NumIs1"), (CURRENT,)),
        Atom(lib.get("SameNum"), (CURRENT, R1)),
    ]
    conds = [data.draw(st.sampled_from(pool)) for _ in range(n_conditions)]
    ev = data.draw(st.sampled_from(list(UNIVERSE)))
    bind = data.draw(st.sampled_from([None] + list(UNIVERSE)))
    v = EMPTY_VALUATION if bind is None else EMPTY_VALUATION.set(R1, bind)
    fired = [
        m for m in _kept(conds) if evaluate_condition(m, ev, v)
    ]
    assert len(fired) == 1
