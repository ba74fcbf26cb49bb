from random import Random

import pytest

from cerf import algebra, compiler
from cerf.algebra import CURRENT, EMPTY_VALUATION, TRUE, Atom, Event, Register
from cerf.automaton import Sra, StreamEngine, Transition, run_accepts
from cerf.compiler import (
    NotUnrolled,
    NotWindowed,
    WindowedInput,
    compile_expr,
    compile_windowed,
    complete,
    complete_and_complement,
    concat_of,
    determinize,
    eliminate_epsilon,
    intersect,
    rename_registers,
    sra_to_srem,
    star_of,
    streaming_automaton,
    to_single_register,
    union_of,
    unroll,
)
from cerf.pattern import (
    Alt,
    Concat,
    Cond,
    CondWrite,
    EPSILON,
    EMPTY,
    Star,
    Window,
    accepts,
    parse,
    to_streaming,
    unparse,
)
from cerf.serialize import automaton_to_doc

import entails_determinize
from conftest import E1_TEXT, E3_TEXT, make_table1
from gen import (
    UNIVERSE,
    acceptance_dfs,
    all_strings,
    oracle_dfs,
    random_expr,
    random_windowed,
    universe_library,
)

R1 = Register("r1")
R2 = Register("r2")


def _lang(a, max_len=3, universe=UNIVERSE):
    return frozenset(
        tuple(s) for s in all_strings(universe, max_len) if run_accepts(a, s)
    )


def _oracle_lang(e, max_len=3, universe=UNIVERSE):
    return frozenset(
        tuple(s) for s in all_strings(universe, max_len) if accepts(e, s)
    )


class TestCompile:
    def test_rejects_window(self):
        with pytest.raises(WindowedInput):
            compile_expr(Window(Cond(TRUE), 2))

    def test_epsilon_expression(self):
        a = compile_expr(EPSILON)
        assert run_accepts(a, [])
        assert not run_accepts(a, [UNIVERSE[0]])

    def test_empty_expression(self):
        a = compile_expr(EMPTY)
        assert _lang(a, 2) == frozenset()

    def test_single_write_structure(self):
        lib = universe_library()
        e = CondWrite(Atom(lib.get("KindA"), (CURRENT,)), R1)
        a = compile_expr(e)
        assert a.registers == frozenset({R1})
        writing = [t for t in a.transitions if t.writes]
        assert len(writing) == 1

    def test_language_of_fixed_expressions(self):
        lib = universe_library()
        cases = [
            "KindA(~)",
            "KindA(~) ; KindB(~)",
            "KindA(~) + KindB(~)",
            "KindA(~)*",
            "(KindA(~) -> r1) ; SameNum(~, r1)",
            "((KindA(~) -> r1) ; SameNum(~, r1))*",
            "EPS + KindB(~)",
        ]
        for text in cases:
            _, e = parse(text, lib)
            assert _lang(compile_expr(e)) == _oracle_lang(e), text

    def test_random_expressions_match_oracle(self):
        lib = universe_library()
        rng = Random(5150)
        for _ in range(40):
            e = random_expr(rng, 3, lib)
            assert _lang(compile_expr(e)) == _oracle_lang(e), unparse(e)


class TestEliminateEpsilon:
    def test_removes_all_epsilon_moves(self):
        lib = universe_library()
        rng = Random(61)
        for _ in range(30):
            e = random_expr(rng, 3, lib)
            a = eliminate_epsilon(compile_expr(e))
            assert not a.has_epsilon
            assert _lang(a) == _oracle_lang(e), unparse(e)

    def test_pinned_closure_count_for_windowed_body(self):
        _, e3 = parse(E3_TEXT)
        a = eliminate_epsilon(compile_expr(e3.body))
        assert len(a.states) == 5

    def test_idempotent(self):
        _, e1 = parse(E1_TEXT)
        a = eliminate_epsilon(compile_expr(e1))
        assert eliminate_epsilon(a) == a


class TestToSingleRegister:
    def test_single_write_automata_unchanged(self, t_then_h):
        assert to_single_register(t_then_h) is t_then_h

    def test_multi_write_transition_rewritten(self):
        lib = universe_library()
        phi = Atom(lib.get("KindA"), (CURRENT,))
        same1 = Atom(lib.get("SameNum"), (CURRENT, R1))
        same2 = Atom(lib.get("SameKind"), (CURRENT, R2))
        a = Sra(
            states=frozenset({"s", "m", "f"}),
            start="s",
            finals=frozenset({"f"}),
            registers=frozenset({R1, R2}),
            transitions=(
                Transition("s", "m", phi, frozenset({R1, R2})),
                Transition("m", "f", Atom(lib.get("SameNum"), (CURRENT, R1))),
                Transition("m", "f", same2),
            ),
        )
        del same1
        b = to_single_register(a)
        assert b.is_single_write
        assert _lang(b) == _lang(a)

    def test_language_preserved_on_intersection_products(self):
        # multi-write transitions come from intersection (writes are unioned),
        # so that is where the rewrite has real work to do
        lib = universe_library()
        rng = Random(77)
        checked = 0
        for _ in range(25):
            e1 = random_expr(rng, 2, lib)
            e2 = random_expr(rng, 2, lib)
            product = intersect(compile_expr(e1), compile_expr(e2))
            b = to_single_register(product)
            assert b.is_single_write
            if not product.is_single_write:
                checked += 1
            assert _lang(b) == _lang(product), (unparse(e1), unparse(e2))
        assert checked > 0


class TestUnroll:
    def test_requires_epsilon_free_single_write(self):
        _, e1 = parse(E1_TEXT)
        raw = compile_expr(e1)
        with pytest.raises(ValueError):
            unroll(raw, 2)

    def test_pinned_shape_for_width_three(self):
        _, e3 = parse(E3_TEXT)
        a = to_single_register(eliminate_epsilon(compile_expr(e3.body)))
        u, maps = unroll(a, 3)
        assert len(u.states) == 8
        assert len(u.transitions) == 7
        assert len(u.finals) == 3
        minted = set(maps.copy_of_r)
        assert len(minted) == 2
        assert minted <= u.registers
        assert u.is_acyclic()
        assert u.window == 3
        # every unrolled state maps back to an original state
        assert set(maps.copy_of_q) == set(u.states)
        assert set(maps.copy_of_q.values()) <= set(a.states)

    def test_pinned_shape_for_width_two(self):
        _, e3 = parse(E3_TEXT)
        a = to_single_register(eliminate_epsilon(compile_expr(e3.body)))
        u, maps = unroll(a, 2)
        assert len(u.states) == 3
        assert len(u.transitions) == 2
        assert len(maps.copy_of_r) == 1

    def test_language_is_window_restricted(self):
        lib = universe_library()
        rng = Random(303)
        for _ in range(15):
            body = random_expr(rng, 2, lib)
            w = rng.choice((1, 2, 3))
            a = to_single_register(eliminate_epsilon(compile_expr(body)))
            u, _ = unroll(a, w)
            assert u.is_acyclic()
            for s in all_strings(UNIVERSE, w + 1):
                expected = accepts(body, s) and len(s) <= w
                assert run_accepts(u, s) == expected, (unparse(body), w)

    def test_compile_windowed_needs_a_window(self):
        _, e1 = parse(E1_TEXT)
        with pytest.raises(NotWindowed, match="unrolling needs a window"):
            compile_windowed(e1)


class TestDeterminize:
    def test_needs_unrolled_for_automata(self, t_then_h):
        with pytest.raises(NotUnrolled):
            determinize(t_then_h)

    def test_minterms_and_entails_are_module_globals(self, monkeypatch):
        # perfbench/tracing.py measures the algebra layer by wrapping these
        # two names on the compiler module. E3 within 3 has seven distinct
        # tuples of outgoing conditions, and entailment is read off the
        # minterms' signs.
        calls = {"minterms": 0, "entails": 0}
        for name in calls:
            original = getattr(compiler, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(compiler, name, counting)
        _, e3 = parse(E3_TEXT)
        determinize(compile_windowed(e3))
        assert calls == {"minterms": 7, "entails": 0}
        monkeypatch.undo()
        assert compiler.entails is algebra.entails

    def test_deterministic_flag_and_single_run(self):
        _, e3 = parse(E3_TEXT)
        d = determinize(compile_windowed(e3))
        assert d.deterministic
        stream = make_table1()
        for s in (stream[:2], stream[:3], stream[1:4]):
            engine = StreamEngine(d)
            for ev in s:
                engine.step(ev)
                assert len(engine.live_configurations) <= 1

    def test_start_state_minterm_split(self):
        _, e3 = parse(E3_TEXT)
        d = determinize(compile_windowed(e3))
        out = d.out(d.start)
        assert len(out) == 2
        writing = [t for t in out if t.writes]
        silent = [t for t in out if not t.writes]
        assert len(writing) == 1 and len(silent) == 1
        assert len(writing[0].writes) == 1

    def test_language_preserved(self):
        sensor_events = make_table1()
        _, e3 = parse(E3_TEXT)
        d = determinize(compile_windowed(e3))
        u = compile_windowed(e3)
        for s in all_strings(sensor_events[:3], 3):
            assert run_accepts(d, s) == run_accepts(u, s) == accepts(e3, s)


# Minterms whose positive literals conflict, such as TypeIsT(~) & TypeIsH(~),
# are cut as they are generated (`algebra.minterms`).
E3_SIZES = {3: (10, 12), 4: (27, 52), 5: (70, 222), 6: (183, 982), 7: (490, 4512)}

# The E3 sensor attributes, plus an event with no type at all.
E3_UNIVERSE = (
    Event.of(type="T", id=1),
    Event.of(type="H", id=1),
    Event.of(type="H", id=2),
    Event.of(id=1),
)


class TestPrunedDeterminize:
    def test_e3_sizes_by_width(self):
        _, e3 = parse(E3_TEXT)
        sizes = {}
        for width in E3_SIZES:
            d = determinize(compile_windowed(Window(e3.body, width)))
            sizes[width] = (len(d.states), len(d.transitions))
        assert sizes == E3_SIZES

    @pytest.mark.parametrize("width", range(1, 8))
    def test_e3_agrees_with_the_oracle(self, width):
        _, e3 = parse(E3_TEXT)
        e = Window(e3.body, width)
        want = {key: bool(v) for key, v in oracle_dfs(e, E3_UNIVERSE, width).items()}
        assert acceptance_dfs(determinize(compile_windowed(e)), E3_UNIVERSE, width) == want


class TestSignedDeterminize:
    """`determinize` against the entails-based reference: equal documents
    where nothing clashes structurally, never a larger automaton, and one
    minterm family per distinct tuple of outgoing conditions."""

    @pytest.mark.parametrize("width", range(1, 8))
    def test_e3_documents_equal_the_reference(self, width):
        _, e3 = parse(E3_TEXT)
        u = compile_windowed(Window(e3.body, width))
        assert automaton_to_doc(determinize(u)) == automaton_to_doc(entails_determinize.determinize(u))

    def test_random_expressions_are_no_larger_than_the_reference(self):
        # Acceptance 04's generator, three times as far.
        lib = universe_library()
        rng = Random(41)
        for _ in range(300):
            width = rng.choice((1, 2, 3))
            wexpr = random_windowed(rng, lib, width)
            unrolled = compile_windowed(wexpr)
            d = determinize(unrolled)
            reference = entails_determinize.determinize(unrolled)
            assert len(d.states) <= len(reference.states)
            assert len(d.transitions) <= len(reference.transitions)
            want = {key: bool(v) for key, v in oracle_dfs(wexpr, UNIVERSE, width + 1).items()}
            assert acceptance_dfs(d, UNIVERSE, width + 1) == want

    def test_one_minterm_family_per_condition_tuple(self, monkeypatch):
        calls = []
        original = compiler.minterms
        monkeypatch.setattr(compiler, "minterms", lambda conds: calls.append(1) or original(conds))
        _, e3 = parse(E3_TEXT)
        generated = {}
        for width in range(3, 8):
            calls.clear()
            determinize(compile_windowed(Window(e3.body, width)))
            generated[width] = len(calls)
        assert generated == {3: 7, 4: 14, 5: 28, 6: 59, 7: 118}


class TestComplete:
    def test_every_state_gets_an_out_transition(self):
        _, e3 = parse(E3_TEXT)
        c = complete(determinize(compile_windowed(e3)))
        for q in c.states:
            assert c.out(q)

    def test_exactly_one_transition_fires(self):
        lib = universe_library()
        _, e = parse("(TRUE* ; (KindA(~) -> r1) ; SameNum(~, r1)) within 2", lib)
        c = complete(determinize(compile_windowed(e)))
        for q in c.states:
            for ev in UNIVERSE:
                for bind in [None, UNIVERSE[0], UNIVERSE[3]]:
                    v = EMPTY_VALUATION
                    if bind is not None:
                        for r in c.registers:
                            v = v.set(r, bind)
                    fired = [
                        t
                        for t in c.out(q)
                        if _satisfied(t.condition, ev, v)
                    ]
                    assert len(fired) == 1

    def test_language_unchanged(self):
        _, e3 = parse(E3_TEXT)
        d = determinize(compile_windowed(e3))
        c = complete(d)
        stream = make_table1()
        for s in all_strings(stream[:3], 3):
            assert run_accepts(c, s) == run_accepts(d, s)

    def test_dead_state_loops_forever(self):
        _, e3 = parse(E3_TEXT)
        c = complete(determinize(compile_windowed(e3)))
        dead = next(q for q in c.states if q not in determinize(compile_windowed(e3)).states)
        loops = [t for t in c.out(dead) if t.target == dead]
        assert len(loops) == 1 and loops[0].condition is TRUE


def _satisfied(cond, ev, v):
    from cerf.algebra import evaluate_condition

    return evaluate_condition(cond, ev, v)


class TestComplement:
    def test_partitions_string_space(self):
        sensor_events = make_table1()
        _, e3 = parse(E3_TEXT)
        pos = complete(determinize(compile_windowed(e3)))
        neg = complete_and_complement(determinize(compile_windowed(e3)))
        for s in all_strings(sensor_events[:3], 4):
            assert run_accepts(pos, s) != run_accepts(neg, s)

    def test_needs_deterministic_automaton(self, t_then_h):
        from cerf.automaton import NotDeterministic

        with pytest.raises(NotDeterministic):
            complete_and_complement(t_then_h)

    def test_dead_state_becomes_accepting(self):
        _, e3 = parse(E3_TEXT)
        d = determinize(compile_windowed(e3))
        neg = complete_and_complement(d)
        dead = next(q for q in neg.states if q not in d.states)
        assert dead in neg.finals


class TestClosures:
    def _auto(self, text):
        lib = universe_library()
        _, e = parse(text, lib)
        return e, compile_expr(e)

    def test_union(self):
        e1, a1 = self._auto("KindA(~) ; KindB(~)")
        e2, a2 = self._auto("NumIs1(~)*")
        u = union_of(a1, a2)
        assert _lang(u) == _oracle_lang(e1) | _oracle_lang(e2)

    def test_concat(self):
        e1, a1 = self._auto("KindA(~)")
        e2, a2 = self._auto("KindB(~) + NumIs1(~)")
        c = concat_of(a1, a2)
        expected = {
            s1 + s2
            for s1 in _oracle_lang(e1, 2)
            for s2 in _oracle_lang(e2, 2)
            if len(s1 + s2) <= 3
        }
        assert _lang(c) == expected

    def test_star(self):
        e, a = self._auto("KindA(~) ; KindB(~)")
        s = star_of(a)
        base = _oracle_lang(e, 3)
        expected = {()} | base | {
            x + y for x in base for y in base if len(x + y) <= 3
        }
        assert _lang(s) == expected

    def test_intersect(self):
        e1, a1 = self._auto("KindA(~) ; TRUE")
        e2, a2 = self._auto("TRUE ; NumIs1(~)")
        i = intersect(a1, a2)
        assert _lang(i) == _oracle_lang(e1) & _oracle_lang(e2)

    def test_intersect_unions_writes(self):
        lib = universe_library()
        phi = Atom(lib.get("KindA"), (CURRENT,))
        a1 = compile_expr(CondWrite(phi, R1))
        a2 = compile_expr(CondWrite(Atom(lib.get("KindB"), (CURRENT,)), R2))
        product = intersect(a1, a2)
        writing = [t for t in product.transitions if t.writes]
        assert writing and all(t.writes == frozenset({R1, R2}) for t in writing)

    def test_intersect_renames_shared_registers(self):
        lib = universe_library()
        phi = Atom(lib.get("KindA"), (CURRENT,))
        a1 = compile_expr(CondWrite(phi, R1))
        a2 = compile_expr(CondWrite(phi, R1))
        product = intersect(a1, a2)
        assert len(product.registers) == 2

    def test_union_on_register_expressions(self):
        lib = universe_library()
        _, e1 = parse("(KindA(~) -> r1) ; SameNum(~, r1)", lib)
        _, e2 = parse("(KindB(~) -> r1) ; SameKind(~, r1)", lib)
        u = union_of(compile_expr(e1), compile_expr(e2))
        assert _lang(u) == _oracle_lang(e1) | _oracle_lang(e2)


class TestRenameRegisters:
    def test_renames_conditions_and_writes(self):
        lib = universe_library()
        _, e = parse("(KindA(~) -> r1) ; SameNum(~, r1)", lib)
        a = compile_expr(e)
        b = rename_registers(a, {R1: R2})
        assert b.registers == frozenset({R2})
        assert _lang(b) == _lang(a)


class TestSraToSrem:
    def test_round_trip_on_fixed_expressions(self):
        lib = universe_library()
        for text in [
            "KindA(~)",
            "KindA(~) ; KindB(~)",
            "KindA(~) + EPS",
            "KindA(~)*",
            "(KindA(~) -> r1) ; TRUE* ; SameNum(~, r1)",
            "NONE",
            "EPS",
        ]:
            _, e = parse(text, lib)
            back = sra_to_srem(compile_expr(e))
            assert _oracle_lang(back) == _oracle_lang(e), text

    def test_round_trip_random(self):
        lib = universe_library()
        rng = Random(2024)
        for _ in range(30):
            e = random_expr(rng, 3, lib)
            back = sra_to_srem(compile_expr(e))
            for s in all_strings(UNIVERSE, 3):
                assert accepts(back, s) == accepts(e, s), unparse(e)

    def test_empty_language_translates_to_none(self):
        back = sra_to_srem(compile_expr(EMPTY))
        assert _oracle_lang(back, 2) == frozenset()


class TestStreamingAutomaton:
    def test_epsilon_free_and_suffix_matching(self):
        _, e3 = parse(E3_TEXT)
        a = streaming_automaton(compile_windowed(e3))
        assert not a.has_epsilon
        stream = make_table1()
        for k in range(1, len(stream) + 1):
            expected = any(accepts(e3, stream[i:k]) for i in range(k))
            assert run_accepts(a, stream[:k]) == expected

    def test_unwindowed_route_matches_oracle(self):
        # the automaton `cerf recognize` runs for an unwindowed pattern; most
        # events carry attributes no predicate reads, which the engine's
        # registers drop and the oracle's keep
        lib = universe_library()
        rng = Random(2024)
        rich = UNIVERSE + tuple(
            Event.of(kind=kind, num=num, noise=noise, tag=tag)
            for kind in "AB"
            for num in (1, 2)
            for noise in (0, 1, 2)
            for tag in "xy"
        )
        for _ in range(100):
            e = random_expr(rng, 3, lib)
            a = streaming_automaton(eliminate_epsilon(compile_expr(e)))
            streaming = to_streaming(e)
            for _ in range(4):
                engine = StreamEngine(a)
                assert engine.matched_at_start == accepts(streaming, []), unparse(e)
                stream = [rng.choice(rich) for _ in range(6)]
                for k, ev in enumerate(stream, start=1):
                    assert engine.step(ev) == accepts(streaming, stream[:k]), unparse(e)
                    for _, v in engine.live_configurations:
                        for r, stored in v.entries:
                            names = a.observed_attributes[r]
                            if names is None:  # nothing reads r: whole events
                                assert stored in stream[:k]
                            else:
                                assert set(stored.as_dict()) <= names <= {"kind", "num"}
