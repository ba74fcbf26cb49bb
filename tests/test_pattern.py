import gc
import sys
from random import Random

import pytest

from cerf.algebra import (
    CURRENT,
    EMPTY_VALUATION,
    TRUE,
    And,
    Atom,
    Event,
    Not,
    Or,
    Register,
    UnknownPredicate,
    comparison_predicate,
)
from cerf.oracle import Oracle
from cerf.pattern import (
    MAX_NESTING,
    Alt,
    Concat,
    Cond,
    CondWrite,
    EMPTY,
    EPSILON,
    TRUE_COND,
    Empty,
    Epsilon,
    PatternSyntaxError,
    Star,
    UnknownRegister,
    Window,
    accepts,
    derive,
    parse,
    parse_condition,
    parse_predicates,
    to_streaming,
    top_registers,
    unparse,
    unparse_condition,
    unparse_pattern,
    written_registers,
)

from conftest import E1_TEXT, E3_TEXT, make_table1
from gen import (
    UNIVERSE,
    all_strings,
    oracle_dfs,
    random_expr,
    random_windowed,
    reach_accepts,
    universe_library,
)
import span_derive

R1 = Register("r1")
R2 = Register("r2")


class TestParsing:
    def test_e1_shape(self):
        lib, e = parse(E1_TEXT)
        assert isinstance(e, Concat)
        assert isinstance(e.left, Concat)
        first = e.left.left
        assert isinstance(first, CondWrite) and first.register == R1
        assert isinstance(e.left.right, Star)
        last = e.right
        assert isinstance(last, Cond) and isinstance(last.condition, And)

    def test_window_is_outermost(self):
        _, e = parse(E3_TEXT)
        assert isinstance(e, Window) and e.width == 3

    def test_concat_is_left_associative(self):
        lib = universe_library()
        _, e = parse("KindA(~) ; KindB(~) ; NumIs1(~)", lib)
        assert isinstance(e, Concat) and isinstance(e.left, Concat)

    def test_alt_binds_looser_than_concat(self):
        lib = universe_library()
        _, e = parse("KindA(~) ; KindB(~) + NumIs1(~)", lib)
        assert isinstance(e, Alt)
        assert isinstance(e.left, Concat)

    def test_star_and_write_are_postfix(self):
        lib = universe_library()
        _, e = parse("(KindA(~) -> r1)* ; SameNum(~, r1)", lib)
        assert isinstance(e.left, Star)
        assert isinstance(e.left.body, CondWrite)

    def test_literals(self):
        _, e = parse("EPS")
        assert e == EPSILON
        _, e = parse("NONE")
        assert e == EMPTY
        _, e = parse("TRUE")
        assert e == Cond(TRUE)

    def test_condition_operators(self):
        lib = universe_library()
        _, e = parse("KindA(~) & !NumIs1(~) + KindB(~) | NumIs1(~)", lib)
        # & binds tighter than |, and the whole thing splits on + first
        assert isinstance(e, Alt)
        assert e.left == Cond(
            And(
                Atom(lib.get("KindA"), (CURRENT,)),
                Not(Atom(lib.get("NumIs1"), (CURRENT,))),
            )
        )
        assert e.right == Cond(
            Or(
                Atom(lib.get("KindB"), (CURRENT,)),
                Atom(lib.get("NumIs1"), (CURRENT,)),
            )
        )

    def test_declarations_build_predicates(self):
        lib, e = parse('pred Hot(x): x.temp > 30\n\nHot(~)')
        assert "Hot" in lib
        assert accepts(e, [Event.of(temp=31)])
        assert not accepts(e, [Event.of(temp=30)])

    def test_join_declaration(self):
        text = 'pred Warmer(x, y): x.temp > y.temp\n\n(TRUE -> r1) ; Warmer(~, r1)'
        _, e = parse(text)
        assert accepts(e, [Event.of(temp=10), Event.of(temp=11)])
        assert not accepts(e, [Event.of(temp=11), Event.of(temp=10)])

    def test_comments_and_blank_lines(self):
        text = '# header\npred P(x): x.v == 1  # trailing\n\n# note\nP(~)\n'
        _, e = parse(text)
        assert accepts(e, [Event.of(v=1)])


class TestInterning:
    def test_constants_are_the_interned_nodes(self):
        assert Empty() is EMPTY and Epsilon() is EPSILON
        assert Cond(TRUE) is TRUE_COND
        assert Concat(EPSILON, EPSILON) is not EPSILON  # constructors do not normalize

    def test_deep_chains_are_one_object_and_hash(self):
        leaf = Cond(TRUE)

        def chain():
            e = leaf
            for _ in range(3 * sys.getrecursionlimit()):
                e = Alt(e, leaf)
            return e

        one, other = chain(), chain()
        assert one is other and hash(one) == hash(other)
        assert one == other and {one: 1}[other] == 1
        assert one != Alt(one, leaf)


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(PatternSyntaxError) as err:
            parse("TRUE ;; TRUE")
        assert err.value.line == 1
        assert err.value.column > 0
        assert "line 1" in str(err.value)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            parse("Mystery(~)")

    def test_register_read_but_never_written(self):
        lib = universe_library()
        with pytest.raises(UnknownRegister) as err:
            parse("SameNum(~, r1)", lib)
        assert "r1" in str(err.value)

    def test_window_must_be_outermost(self):
        with pytest.raises(PatternSyntaxError) as err:
            parse("(TRUE within 2) ; TRUE")
        assert "outermost" in str(err.value)

    def test_window_width_positive(self):
        with pytest.raises(PatternSyntaxError):
            parse("TRUE within 0")

    def test_write_needs_plain_condition(self):
        lib = universe_library()
        with pytest.raises(PatternSyntaxError):
            parse("(KindA(~) ; KindB(~)) -> r1", lib)

    def test_duplicate_parameter(self):
        with pytest.raises(PatternSyntaxError):
            parse("pred P(x, x): x.a == x.b\n\nTRUE")

    @pytest.mark.parametrize("second", ["x.a == 1", "x.b != 2"])
    def test_repeated_predicate_name(self, second):
        with pytest.raises(PatternSyntaxError) as err:
            parse(f"pred P(x): x.a == 1\npred P(x): {second}\n\nP(~)")
        assert (err.value.line, err.value.column) == (2, 6)
        assert str(err.value) == "line 2, column 6: predicate P is already declared"

    def test_two_literal_operands_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse('pred P(x): 1 == 2\n\nTRUE')

    def test_trailing_garbage(self):
        with pytest.raises(PatternSyntaxError):
            parse("TRUE TRUE")

    @pytest.mark.parametrize("joiner", [" ; ", " & "])
    def test_nesting_bound(self, joiner):
        lib = universe_library()
        # n atoms joined left-deep nest n + 1 levels with the leaf's atom
        at_bound = joiner.join(["KindA(~)"] * (MAX_NESTING - 1))
        parse(at_bound, lib)
        for count in (MAX_NESTING, 1500):
            with pytest.raises(PatternSyntaxError) as err:
                parse(joiner.join(["KindA(~)"] * count), lib)
            assert f"at most {MAX_NESTING}" in str(err.value)

    def test_deep_parentheses_are_a_syntax_error(self):
        lib = universe_library()
        with pytest.raises(PatternSyntaxError) as err:
            parse("(" * 1500 + "KindA(~)" + ")" * 1500, lib)
        assert "nest too deeply" in str(err.value)

    def test_deep_condition_parentheses_are_a_syntax_error(self):
        lib = universe_library()
        with pytest.raises(PatternSyntaxError) as err:
            parse_condition("(" * 1500 + "KindA(~)" + ")" * 1500, lib)
        assert "nest too deeply" in str(err.value)
        # long conjunctions in saved automata are not bounded by MAX_NESTING
        chain = parse_condition(" & ".join(["KindA(~)"] * 1500), lib)
        assert isinstance(chain, And)
        assert hash(chain) == hash(parse_condition(" & ".join(["KindA(~)"] * 1500), lib))

    def test_condition_negations_and_parentheses_are_bounded(self):
        # compiling a saved condition takes two frames per negation
        lib = universe_library()
        at_bound = "!" * (MAX_NESTING - 1) + "(KindA(~))"
        assert parse_condition(at_bound, lib) == parse_condition(at_bound, lib)
        for text in ("!" * (MAX_NESTING + 1) + "KindA(~)", "!" * 700 + "KindA(~)",
                     "!(" * (MAX_NESTING // 2 + 1) + "KindA(~)" + ")" * (MAX_NESTING // 2 + 1)):
            with pytest.raises(PatternSyntaxError) as err:
                parse_condition(text, lib)
            assert "nest too deeply" in str(err.value)


class TestRegisterHelpers:
    def test_top_and_written_registers(self):
        lib = universe_library()
        _, e = parse("(KindA(~) -> r1) ; (KindB(~) -> r2)* ; SameNum(~, r1)", lib)
        assert written_registers(e) == frozenset({R1, R2})
        assert top_registers(e) == frozenset({R1, R2})

    def test_helpers_walk_deep_expressions(self):
        # built directly: parse bounds nesting at MAX_NESTING
        lib = universe_library()
        body = CondWrite(Atom(lib.get("KindA"), (CURRENT,)), R1)
        read = Cond(Atom(lib.get("SameNum"), (CURRENT, R2)))
        for _ in range(5000):
            body = Concat(body, read)
        assert written_registers(body) == frozenset({R1})
        assert top_registers(body) == frozenset({R1, R2})
        assert Window(body, 3).body is body
        with pytest.raises(ValueError):
            Window(Concat(body, Window(read, 1)), 3)

    def test_window_width_recorded(self):
        lib = universe_library()
        _, e = parse("(KindA(~) -> r1) ; SameNum(~, r1) within 2", lib)
        assert isinstance(e, Window) and e.width == 2


def _ev(kind, num):
    return Event.of(kind=kind, num=num)


class TestDerive:
    def test_epsilon_matches_only_empty(self):
        assert accepts(EPSILON, [])
        assert not accepts(EPSILON, [_ev("A", 1)])

    def test_empty_matches_nothing(self):
        assert not accepts(EMPTY, [])
        assert not accepts(EMPTY, [_ev("A", 1)])

    def test_single_condition(self):
        lib = universe_library()
        e = Cond(Atom(lib.get("KindA"), (CURRENT,)))
        assert accepts(e, [_ev("A", 1)])
        assert not accepts(e, [_ev("B", 1)])
        assert not accepts(e, [])
        assert not accepts(e, [_ev("A", 1), _ev("A", 1)])

    def test_write_returns_binding(self):
        lib = universe_library()
        e = CondWrite(Atom(lib.get("KindA"), (CURRENT,)), R1)
        out = derive(e, [_ev("A", 2)])
        assert len(out) == 1
        (v,) = out
        assert v.lookup(R1) == _ev("A", 2)

    def test_derive_threads_valuations_through_concat(self):
        lib = universe_library()
        e = Concat(
            CondWrite(Atom(lib.get("KindA"), (CURRENT,)), R1),
            Cond(Atom(lib.get("SameNum"), (CURRENT, R1))),
        )
        assert accepts(e, [_ev("A", 1), _ev("B", 1)])
        assert not accepts(e, [_ev("A", 1), _ev("B", 2)])

    def test_star_requires_progress(self):
        # a star over a nullable body must not loop forever and matches ε
        e = Star(EPSILON)
        assert accepts(e, [])
        assert not accepts(e, [_ev("A", 1)])

    def test_star_iterates_with_rebinding(self):
        lib = universe_library()
        body = Concat(
            CondWrite(Atom(lib.get("KindA"), (CURRENT,)), R1),
            Cond(Atom(lib.get("SameNum"), (CURRENT, R1))),
        )
        e = Star(body)
        s = [_ev("A", 1), _ev("B", 1), _ev("A", 2), _ev("B", 2)]
        assert accepts(e, s)
        assert not accepts(e, s[:3])

    def test_unbound_read_is_false_not_an_error(self):
        lib = universe_library()
        e = Cond(Atom(lib.get("SameNum"), (CURRENT, R1)))
        assert not accepts(e, [_ev("A", 1)])
        neg = Cond(Not(Atom(lib.get("SameNum"), (CURRENT, R1))))
        assert accepts(neg, [_ev("A", 1)])

    def test_window_bounds_length(self):
        lib = universe_library()
        e = Window(Star(Cond(Atom(lib.get("KindA"), (CURRENT,)))), 2)
        assert accepts(e, [])
        assert accepts(e, [_ev("A", 1), _ev("A", 2)])
        assert not accepts(e, [_ev("A", 1), _ev("A", 2), _ev("A", 1)])

    def test_initial_valuation_respected(self):
        lib = universe_library()
        e = Cond(Atom(lib.get("SameNum"), (CURRENT, R1)))
        v = EMPTY_VALUATION.set(R1, _ev("A", 2))
        assert derive(e, [_ev("B", 2)], v)
        assert not derive(e, [_ev("B", 1)], v)

    def test_matches_cross_check_against_forward_matcher(self):
        lib = universe_library()
        rng = Random(1234)
        for _ in range(80):
            e = random_expr(rng, 3, lib)
            for s in all_strings(UNIVERSE, 3):
                assert accepts(e, s) == reach_accepts(e, s), unparse(e)


def _random_pool(rng, lib, count):
    """`count` each of unwindowed, windowed and streaming expressions."""
    pool = []
    for _ in range(count):
        pool.append(random_expr(rng, 4, lib))
        pool.append(random_windowed(rng, lib))
        inner = random_windowed(rng, lib) if rng.random() < 0.5 else random_expr(rng, 3, lib)
        pool.append(to_streaming(inner))
    return pool


class TestOracle:
    """The left-to-right oracle against the span-memo reference."""

    def test_agrees_with_the_reference_on_valuations(self):
        lib = universe_library()
        strings = {tuple(UNIVERSE.index(ev) for ev in s): s for s in all_strings(UNIVERSE, 4)}
        for e in _random_pool(Random(4242), lib, 12):
            walked = oracle_dfs(e, UNIVERSE, 4)
            assert walked.keys() == strings.keys()
            for key, s in strings.items():
                want = span_derive.derive(e, s)
                assert walked[key] == want, e
                assert derive(e, s) == want
                assert accepts(e, s) == bool(want)

    def test_initial_valuation_is_threaded_like_the_reference(self):
        lib = universe_library()
        rng = Random(77)
        start = EMPTY_VALUATION.set(R1, UNIVERSE[1]).set(R2, UNIVERSE[2])
        for _ in range(20):
            e = random_expr(rng, 3, lib)
            for s in all_strings(UNIVERSE, 3):
                assert derive(e, s, start) == span_derive.derive(e, s, start)

    def test_garbage_collection_changes_no_verdict(self):
        lib = universe_library()
        rng = Random(9)
        strings = list(all_strings(UNIVERSE, 2)) + [list(UNIVERSE) * 2]
        for e in _random_pool(rng, lib, 2):
            want = [span_derive.accepts(e, s) for s in strings]
            shared = Oracle(e)
            got_shared, got_fresh = [], []
            for s in strings:
                # the fresh oracle of the last fold is garbage by now
                gc.collect()
                pairs = shared.start()
                for ev in s:
                    pairs = shared.step(pairs, ev)
                got_shared.append(bool(Oracle.derived(pairs)))
                got_fresh.append(accepts(e, s))
            assert got_shared == want and got_fresh == want

    def test_equal_residuals_are_one_object(self):
        _, e = parse('pred IsA(x): x.kind == "A"\n\n(IsA(~) ; IsA(~)*) + (IsA(~) ; IsA(~)*)')
        oracle = Oracle(e)
        pairs = oracle.start()
        for _ in range(50):
            pairs = oracle.step(pairs, _ev("A", 1))
            assert len(pairs) == 1
        assert bool(Oracle.derived(pairs))

    def test_window_residual_counts_down(self):
        lib = universe_library()
        e = Window(Star(Cond(Atom(lib.get("KindA"), (CURRENT,)))), 3)
        oracle = Oracle(e)
        pairs = oracle.start()
        verdicts = []
        for _ in range(5):
            pairs = oracle.step(pairs, _ev("A", 1))
            verdicts.append(bool(Oracle.derived(pairs)))
        assert verdicts == [True, True, True, False, False]
        assert not pairs

    @pytest.mark.parametrize("n", [25, 50, 100])
    def test_concatenation_chains_intern_linearly_many_residuals(self, n):
        # n distinct nullable factors, nested to the left as the parser
        # builds `A0* ; A1* ; ...` and to the right. Right-associated, the
        # residuals with moves are each factor's star and condition leaf
        # and the chain's n - 1 concatenations.
        preds = [comparison_predicate(f"Min{i}", "num", ">=", i) for i in range(n)]
        factors = [Star(Cond(Atom(p, (CURRENT,)))) for p in preds]
        left, right = factors[0], factors[-1]
        for i in range(1, n):
            left, right = Concat(left, factors[i]), Concat(factors[n - i - 1], right)
        for e in (left, right):
            oracle = Oracle(e)
            pairs = oracle.start()
            for _ in range(3):
                pairs = oracle.step(pairs, _ev("A", n))
            assert len(pairs) == n and bool(Oracle.derived(pairs))
            assert len(oracle._moves) == 3 * n - 1

    def test_deep_expressions_step_without_recursion(self):
        lib = universe_library()
        leaf = Cond(Atom(lib.get("KindA"), (CURRENT,)))
        n = 3 * sys.getrecursionlimit()
        left = right = leaf
        for _ in range(n - 1):
            left, right = Concat(left, leaf), Concat(leaf, right)
        s = [_ev("A", 1)] * (n // 100)
        assert not accepts(left, s)
        assert accepts(right, s * 100) and not accepts(right, s * 99)


class TestStreaming:
    def test_streaming_wraps_with_skip_prefix(self):
        lib = universe_library()
        _, e = parse("KindA(~)", lib)
        es = to_streaming(e)
        assert isinstance(es, Concat) and isinstance(es.left, Star)

    def test_streaming_matches_any_suffix(self):
        lib = universe_library()
        rng = Random(99)
        for _ in range(25):
            e = random_expr(rng, 2, lib)
            es = to_streaming(e)
            for s in all_strings(UNIVERSE, 3):
                expected = any(
                    accepts(e, s[i:]) for i in range(len(s) + 1)
                )
                assert accepts(es, s) == expected

    def test_table1_match_indexes(self):
        _, e = parse(E1_TEXT)
        es = to_streaming(e)
        stream = make_table1()
        hits = [k for k in range(1, len(stream) + 1) if accepts(es, stream[:k])]
        assert hits == [4, 5]


class TestUnparse:
    def test_condition_round_trip(self):
        lib = universe_library()
        texts = [
            "TRUE",
            "KindA(~)",
            "!KindA(~)",
            "KindA(~) & KindB(~) & NumIs1(~)",
            "KindA(~) | KindB(~) & NumIs1(~)",
            "(KindA(~) | KindB(~)) & NumIs1(~)",
            "!(KindA(~) | SameNum(~, r1))",
            "KindA(~) & (KindB(~) & NumIs1(~)) & !KindA(~)",
            "KindA(~) | (KindB(~) | NumIs1(~)) | KindA(~) & KindB(~)",
        ]
        for text in texts:
            cond = parse_condition(text, lib, ("r1",))
            again = parse_condition(unparse_condition(cond), lib, ("r1",))
            assert cond == again, text

    def test_expression_round_trip_on_random_inputs(self):
        lib = universe_library()
        rng = Random(7)
        for _ in range(200):
            e = random_expr(rng, 4, lib)
            text = unparse(e)
            _, again = parse(text, lib) if not _reads_unwritten(e) else (None, None)
            if again is not None:
                assert again == e, text

    def test_pattern_file_round_trip(self):
        lib, e = parse(E1_TEXT)
        text = unparse_pattern(lib, e)
        lib2, e2 = parse(text)
        assert e2 == e
        assert sorted(p.name for p in lib2) == sorted(
            p.name for p in lib if _mentioned(p, e)
        )

    def test_windowed_unparse(self):
        _, e = parse(E3_TEXT)
        assert unparse(e).endswith("within 3")
        _, again = parse(unparse_pattern(*parse(E3_TEXT)))
        assert again == e


def _reads_unwritten(e) -> bool:
    return bool(top_registers(e) - written_registers(e))


def _mentioned(pred, e) -> bool:
    return pred.name in unparse(e)


class TestParsePredicates:
    def test_parse_predicates_only(self):
        lib = parse_predicates('pred A(x): x.v == 1\npred B(x, y): x.v < y.v')
        assert "A" in lib and "B" in lib
        assert lib.get("B").arity == 2

    @pytest.mark.parametrize("constant", [1e-05, 1e20, 0.1, -2.5])
    def test_float_literals_round_trip(self, constant):
        p = comparison_predicate("P", "value", ">", constant)
        reloaded = parse_predicates(p.source).get("P")
        assert reloaded.source == p.source
        for value in (-3.0, 0.0, 1e-06, 0.5, 1e21):
            ev = Event.of(value=value)
            assert reloaded(ev) == p(ev)

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_predicates("pred P(x): x.value > 1e999")

    def test_redeclaration_conflicts(self):
        with pytest.raises(PatternSyntaxError):
            parse_predicates('pred A(x): x.v == 1\npred A(x): x.v == 2')
