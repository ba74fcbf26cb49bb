import itertools

import pytest
from hypothesis import given, strategies as st

from cerf.algebra import (
    ALWAYS,
    CURRENT,
    EMPTY_VALUATION,
    TRUE,
    And,
    Atom,
    EvalCounters,
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

from gen import UNIVERSE, universe_library

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


class TestPredicates:
    def test_comparison_predicate(self):
        p = comparison_predicate("TypeIsT", "type", "==", "T")
        assert p(Event.of(type="T"))
        assert not p(Event.of(type="H"))
        assert p.source == 'pred TypeIsT(x): x.type == "T"'

    def test_missing_attribute_is_false(self):
        p = comparison_predicate("TypeIsT", "type", "==", "T")
        assert not p(Event.of(other=1))

    def test_type_mismatch_is_false_not_an_error(self):
        p = comparison_predicate("Small", "value", "<", 10)
        assert not p(Event.of(value="abc"))
        assert p(Event.of(value=3))
        assert p(Event.of(value=9.5))

    def test_join_predicate(self):
        p = join_predicate("EqualId", "id", "==", "id")
        assert p(Event.of(id=1), Event.of(id=1, other=2))
        assert not p(Event.of(id=1), Event.of(id=2))

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
        with pytest.raises(ValueError):
            Predicate("P", 2, lambda x, y: True, footprint=(frozenset(),))

    def test_footprint_does_not_affect_equality(self):
        declared = comparison_predicate("P", "x", "==", 1)
        bare = Predicate("P", 1, declared.evaluator)
        assert declared == bare and hash(declared) == hash(bare)

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

    def test_scope_caches_register_reads(self):
        counters = EvalCounters()
        cond = And(_atom("SameNum", CURRENT, R1), _atom("SameKind", CURRENT, R1))
        v = EMPTY_VALUATION.set(R1, Event.of(kind="A", num=1))
        scope = EvalScope(v, counters=counters)
        scope.evaluate(cond, Event.of(kind="A", num=1))
        assert counters.register_reads == 1
        scope.evaluate(cond, Event.of(kind="A", num=1))
        assert counters.register_reads == 1
        # a new scope re-reads
        EvalScope(v, counters=counters).evaluate(
            cond, Event.of(kind="A", num=1)
        )
        assert counters.register_reads == 2


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
        assert minterms([]) == (TRUE,)

    def test_true_base_simplification(self):
        phi = _atom("KindA", CURRENT)
        family = minterms([TRUE, phi])
        assert set(family) == {phi, Not(phi)}

    def test_duplicate_conditions_collapse(self):
        phi = _atom("KindA", CURRENT)
        assert set(minterms([phi, phi])) == {phi, Not(phi)}

    def test_two_conditions_give_four_minterms(self):
        phi = _atom("KindA", CURRENT)
        psi = _atom("NumIs1", CURRENT)
        family = minterms([phi, psi])
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
            family = minterms(conds)
            for ev, v in _grid():
                fired = [
                    m for m in family
                    if evaluate_condition(m, ev, v)
                ]
                assert len(fired) == 1


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
        for mt in minterms(bases):
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
        m for m in minterms(conds) if evaluate_condition(m, ev, v)
    ]
    assert len(fired) == 1
