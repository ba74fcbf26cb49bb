import itertools
import math
from random import Random

import pytest

from cerf.algebra import CURRENT, Atom, Event, comparison_predicate
from cerf.automaton import DeterministicRunner, NoTransition, NotDeterministic, Sra, Transition
from cerf.compiler import compile_windowed, complete, determinize
from cerf.forecast import (
    InsufficientData,
    NotComplete,
    Pst,
    SymbolMap,
    WaitingTimeDistribution,
    WaitingTimes,
    forecast_classification,
    forecast_regression,
    log_loss,
    symbolize,
    waiting_time,
)
from cerf.pattern import Window, parse

from conftest import (
    E3_TEXT,
    make_reference_pst,
    make_table1,
    make_two_state_dfa,
)
from gen import markov2_symbols


def _sym_events(text):
    return [Event.of(sym=c) for c in text]


class TestSymbolMap:
    def test_first_seen_order(self, two_state_dfa):
        smap = SymbolMap.for_automaton(two_state_dfa)
        assert smap.symbols == ("a", "b")
        first = two_state_dfa.transitions[0].condition
        assert smap.symbol_for(first) == "a"
        assert smap.condition_for("a") == first

    def test_bijective(self, two_state_dfa):
        smap = SymbolMap.for_automaton(two_state_dfa)
        conds = [c for c, _ in smap.items()]
        syms = [s for _, s in smap.items()]
        assert len(set(conds)) == len(conds) == len(smap)
        assert len(set(syms)) == len(syms)

    def test_duplicate_symbols_rejected(self, two_state_dfa):
        c1 = two_state_dfa.transitions[0].condition
        c2 = two_state_dfa.transitions[1].condition
        with pytest.raises(ValueError):
            SymbolMap([(c1, "a"), (c2, "a")])
        with pytest.raises(ValueError):
            SymbolMap([(c1, "a"), (c1, "b")])

    def test_names_past_the_alphabet(self):
        preds = [
            Atom(comparison_predicate(f"Is{i}", "n", "==", i), (CURRENT,))
            for i in range(28)
        ]
        states = frozenset({"s"})
        a = Sra(
            states=states,
            start="s",
            finals=frozenset(),
            registers=frozenset(),
            transitions=tuple(Transition("s", "s", p) for p in preds),
        )
        smap = SymbolMap.for_automaton(a)
        assert len(smap) == 28
        assert "a" in smap.symbols and "z" in smap.symbols
        assert "s26" in smap.symbols and "s27" in smap.symbols


class TestSymbolize:
    def test_two_state_dfa(self, two_state_dfa, dfa_symbol_map):
        out = symbolize(two_state_dfa, _sym_events("abba"), dfa_symbol_map)
        assert out == ["a", "b", "b", "a"]

    def test_empty_stream(self, two_state_dfa, dfa_symbol_map):
        assert symbolize(two_state_dfa, [], dfa_symbol_map) == []

    def test_deterministic_replay(self, two_state_dfa, dfa_symbol_map):
        events = _sym_events("abab")
        once = symbolize(two_state_dfa, events, dfa_symbol_map)
        again = symbolize(two_state_dfa, events, dfa_symbol_map)
        assert once == again

    def test_completed_pipeline_on_table1(self):
        _, e3 = parse(E3_TEXT)
        d = complete(determinize(compile_windowed(e3)))
        smap = SymbolMap.for_automaton(d)
        stream = make_table1()
        symbols = symbolize(d, stream, smap)
        assert len(symbols) == len(stream)
        # the first two events take different transitions
        assert symbols[0] != symbols[1]

    def test_incomplete_raises(self):
        _, e3 = parse(E3_TEXT)
        d = determinize(compile_windowed(e3))
        smap = SymbolMap.for_automaton(d)
        with pytest.raises(NoTransition):
            symbolize(d, make_table1(), smap)

    def test_state_sequence_matches_symbol_replay(self, two_state_dfa, dfa_symbol_map):
        # replaying the symbol string on the relabeled classical automaton
        # visits exactly the states of the run on the original events
        events = _sym_events("aabba")
        runner = DeterministicRunner(two_state_dfa)
        visited = [runner.state]
        symbols = []
        for ev in events:
            taken = runner.step(ev)
            visited.append(runner.state)
            symbols.append(dfa_symbol_map.symbol_for(taken.condition))

        edges = {}
        for t in two_state_dfa.transitions:
            edges[(t.source, dfa_symbol_map.symbol_for(t.condition))] = t.target
        replay = [two_state_dfa.start]
        here = two_state_dfa.start
        for sym in symbols:
            here = edges[(here, sym)]
            replay.append(here)
        assert replay == visited


class TestPstValidation:
    def test_root_required(self):
        with pytest.raises(ValueError):
            Pst(2, ["a", "b"], {("a",): {"a": 0.5, "b": 0.5}})

    def test_suffix_closure_required(self):
        nodes = {
            (): {"a": 0.5, "b": 0.5},
            ("a", "b"): {"a": 0.5, "b": 0.5},
        }
        with pytest.raises(ValueError):
            Pst(2, ["a", "b"], nodes)

    def test_distributions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Pst(1, ["a", "b"], {(): {"a": 0.9, "b": 0.2}})

    def test_context_length_bounded(self):
        nodes = {
            (): {"a": 1.0, "b": 0.0},
            ("a",): {"a": 1.0, "b": 0.0},
            ("a", "a"): {"a": 1.0, "b": 0.0},
        }
        with pytest.raises(ValueError):
            Pst(1, ["a", "b"], nodes)


class TestPredict:
    def test_deepest_suffix_wins(self, reference_pst):
        assert reference_pst.predict(("a", "a")) == {"a": 0.75, "b": 0.25}
        assert reference_pst.predict(("b", "a", "a")) == {"a": 0.75, "b": 0.25}

    def test_single_symbol_context(self, reference_pst):
        assert reference_pst.predict(("b",)) == {"a": 0.5, "b": 0.5}
        assert reference_pst.predict(("a", "b")) == {"a": 0.5, "b": 0.5}

    def test_empty_history_falls_back_to_root(self, reference_pst):
        assert reference_pst.predict(()) == {"a": 0.5, "b": 0.5}

    def test_unknown_symbols_fall_back_to_root(self, reference_pst):
        assert reference_pst.predict(("x",)) == {"a": 0.5, "b": 0.5}


class TestLearn:
    def test_constant_stream(self):
        pst = Pst.learn(["a"] * 1000, max_order=2, alphabet=["a", "b"])
        assert pst.predict(())["a"] >= 0.99

    def test_alternating_stream(self):
        symbols = ["a", "b"] * 500
        pst = Pst.learn(symbols, max_order=2)
        assert ("a",) in pst.nodes and ("b",) in pst.nodes
        assert pst.predict(("a",))["b"] >= 0.95
        assert pst.predict(("b",))["a"] >= 0.95

    def test_fair_coin_keeps_tree_shallow(self):
        rng = Random(424242)
        symbols = [rng.choice("ab") for _ in range(10_000)]
        pst = Pst.learn(symbols, max_order=3)
        assert set(pst.nodes) == {()}

    def test_suffix_closed_and_smoothed(self):
        rng = Random(9)
        symbols = markov2_symbols(rng, 20_000)
        pst = Pst.learn(symbols, max_order=3)
        floor = 0.01 / 2
        for ctx, dist in pst.nodes.items():
            if ctx:
                assert ctx[1:] in pst.nodes
            assert abs(sum(dist.values()) - 1.0) < 1e-9
            assert all(p >= floor - 1e-12 for p in dist.values())

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            Pst.learn(["a", "b"], max_order=5)

    def test_order_zero_learns_marginals(self):
        symbols = ["a"] * 750 + ["b"] * 250
        pst = Pst.learn(symbols, max_order=0)
        assert set(pst.nodes) == {()}
        assert pst.predict(())["a"] == pytest.approx(0.75, abs=0.02)


class TestLogLoss:
    def test_uniform_model_costs_one_bit(self):
        pst = Pst(0, ["a", "b"], {(): {"a": 0.5, "b": 0.5}})
        assert log_loss(pst, ["a", "b", "b", "a"]) == pytest.approx(1.0)

    def test_better_model_scores_lower(self):
        biased = Pst(0, ["a", "b"], {(): {"a": 0.9, "b": 0.1}})
        uniform = Pst(0, ["a", "b"], {(): {"a": 0.5, "b": 0.5}})
        mostly_a = ["a"] * 9 + ["b"]
        assert log_loss(biased, mostly_a) < log_loss(uniform, mostly_a)

    def test_empty_input_rejected(self):
        pst = Pst(0, ["a"], {(): {"a": 1.0}})
        with pytest.raises(ValueError):
            log_loss(pst, [])


def _brute_force_waiting(d, smap, pst, state, context, horizon):
    """Enumerate every symbol path of up to `horizon` steps the automaton can
    take from the state, stopping at the first final-state visit. Each step
    weighs its symbol by the tree's probability renormalized over the
    symbols the state offers (identity when every state offers the whole
    alphabet); each path's mass is bucketed by the depth of its first
    final-state visit, or goes to the residual."""
    offered = {}
    for t in d.transitions:
        offered.setdefault(t.source, []).append((smap.symbol_for(t.condition), t.target))
    m = pst.max_order
    masses = [0.0] * horizon
    residual = 0.0

    def walk(here, ctx, p, depth):
        nonlocal residual
        if depth == horizon:
            residual += p
            return
        dist = pst.predict(ctx)
        z = sum(dist.get(sym, 0.0) for sym, _ in offered[here])
        if z <= 0.0:
            residual += p
            return
        for sym, target in offered[here]:
            step = p * dist.get(sym, 0.0) / z
            if target in d.finals:
                masses[depth] += step
            else:
                walk(target, (ctx + (sym,))[-m:] if m else (), step, depth + 1)

    walk(state, tuple(context)[-m:] if m else (), 1.0, 0)
    return masses, residual


def _learned_e3_model():
    """E3 within 4, completed, with a tree learned from the symbols of many
    short seeded streams, each run from the start state."""
    _, e3 = parse(E3_TEXT)
    d = complete(determinize(compile_windowed(Window(e3.body, 4))))
    smap = SymbolMap.for_automaton(d)
    rng = Random(8)
    symbols = []
    for _ in range(300):
        stream = [
            Event.of(type=rng.choice("TH"), id=rng.randint(1, 2), value=0) for _ in range(5)
        ]
        symbols += symbolize(d, stream, smap)
    return d, smap, Pst.learn(symbols, max_order=2, alphabet=smap.symbols)


class TestWaitingTime:
    def test_worked_example_numbers(self, two_state_dfa, dfa_symbol_map, reference_pst):
        wd = waiting_time(
            two_state_dfa, dfa_symbol_map, reference_pst, "1", ("a", "a"), horizon=8
        )
        assert wd.masses[0] == pytest.approx(0.25, abs=1e-9)
        assert wd.masses[1] == pytest.approx(0.1875, abs=1e-9)

    def test_mass_conservation(self, two_state_dfa, dfa_symbol_map, reference_pst):
        for state in ("1", "2"):
            for ctx in ((), ("a",), ("b",), ("a", "a")):
                for horizon in (1, 3, 7):
                    wd = waiting_time(
                        two_state_dfa, dfa_symbol_map, reference_pst, state, ctx, horizon=horizon
                    )
                    assert sum(wd.masses) + wd.residual == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_brute_force_enumeration(
        self, two_state_dfa, dfa_symbol_map, reference_pst
    ):
        for state in ("1", "2"):
            for ctx in [()] + [tuple(c) for c in itertools.product("ab")] + [("a", "a")]:
                for horizon in range(1, 7):
                    wd = waiting_time(
                        two_state_dfa, dfa_symbol_map, reference_pst, state, ctx, horizon=horizon
                    )
                    masses, residual = _brute_force_waiting(
                        two_state_dfa, dfa_symbol_map, reference_pst, state, ctx, horizon
                    )
                    for got, want in zip(wd.masses, masses):
                        assert got == pytest.approx(want, abs=1e-9)
                    assert wd.residual == pytest.approx(residual, abs=1e-9)

    def test_single_step_certainty(self, dfa_symbol_map, reference_pst):
        sym_a = make_two_state_dfa().transitions[0].condition
        sym_b = make_two_state_dfa().transitions[1].condition
        all_to_final = Sra(
            states=frozenset({"1", "2"}),
            start="1",
            finals=frozenset({"2"}),
            registers=frozenset(),
            transitions=(
                Transition("1", "2", sym_a),
                Transition("1", "2", sym_b),
                Transition("2", "2", sym_a),
                Transition("2", "2", sym_b),
            ),
            deterministic=True,
        )
        wd = waiting_time(all_to_final, dfa_symbol_map, reference_pst, "1", (), horizon=4)
        assert wd.masses[0] == pytest.approx(1.0)

    def test_requires_deterministic(self, t_then_h, dfa_symbol_map, reference_pst):
        with pytest.raises(NotDeterministic):
            waiting_time(t_then_h, dfa_symbol_map, reference_pst, "q_s", (), horizon=2)

    def test_requires_complete(self, dfa_symbol_map, reference_pst):
        sym_a = make_two_state_dfa().transitions[0].condition
        dangling = Sra(
            states=frozenset({"1", "2"}),
            start="1",
            finals=frozenset({"2"}),
            registers=frozenset(),
            transitions=(Transition("1", "2", sym_a),),
            deterministic=True,
        )
        with pytest.raises(NotComplete):
            waiting_time(dangling, dfa_symbol_map, reference_pst, "1", (), horizon=2)

    def test_memo_agrees_with_brute_force_on_a_learned_model(self, table1):
        d, smap, pst = _learned_e3_model()
        assert len(pst.nodes) > 1
        waits = WaitingTimes(d, smap, pst, horizon=6)
        runner = DeterministicRunner(d)
        visited = {(runner.state, ())}
        history = []
        for event in table1 + list(reversed(table1)):
            history.append(smap.symbol_for(runner.step(event).condition))
            visited.add((runner.state, tuple(history[-2:])))
        assert len(visited) > 5
        for state, ctx in sorted(visited):
            wd = waits(state, ctx)
            assert wd.origin_state == state and wd.origin_context == ctx
            masses, residual = _brute_force_waiting(d, smap, pst, state, ctx, 6)
            assert wd.masses == pytest.approx(masses, abs=1e-9)
            assert wd.residual == pytest.approx(residual, abs=1e-9)

    def test_repeated_request_is_a_lookup(self, monkeypatch):
        d, smap, pst = _learned_e3_model()
        calls = []
        predict = Pst.predict

        def counted(self, recent):
            calls.append(recent)
            return predict(self, recent)

        monkeypatch.setattr(Pst, "predict", counted)
        waits = WaitingTimes(d, smap, pst, horizon=8)
        first = waits(d.start, ("a", "b"))
        assert calls
        done = len(calls)
        # the same key, and a longer context with the same last max_order symbols
        assert waits(d.start, ("a", "b")) is first
        assert waits(d.start, ("c", "a", "b")) is first
        assert len(calls) == done
        assert waits(d.start, ("b",)) == waiting_time(d, smap, pst, d.start, ("b",), 8)

    def test_checks_wait_for_the_first_request(self, t_then_h, dfa_symbol_map, reference_pst):
        waits = WaitingTimes(t_then_h, dfa_symbol_map, reference_pst, horizon=2)
        with pytest.raises(NotDeterministic):
            waits("q_s", ())
        with pytest.raises(ValueError):
            WaitingTimes(t_then_h, dfa_symbol_map, reference_pst, horizon=0)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            WaitingTimeDistribution("q", (), (0.5, 0.6), 0.2)
        with pytest.raises(ValueError):
            WaitingTimeDistribution("q", (), (-0.1, 0.5), 0.6)


class TestForecasts:
    def test_regression_earliest_argmax(self):
        wd = WaitingTimeDistribution("q", (), (0.3, 0.3, 0.2), 0.2)
        assert forecast_regression(wd) == 1
        wd2 = WaitingTimeDistribution("q", (), (0.1, 0.5, 0.2), 0.2)
        assert forecast_regression(wd2) == 2

    def test_classification_thresholds(self, two_state_dfa, dfa_symbol_map, reference_pst):
        wd = waiting_time(
            two_state_dfa, dfa_symbol_map, reference_pst, "1", ("a", "a"), horizon=8
        )
        assert forecast_classification(wd, 2, 0.4) is True
        assert forecast_classification(wd, 2, 0.5) is False

    def test_classification_validates_inputs(self):
        wd = WaitingTimeDistribution("q", (), (0.5, 0.5), 0.0)
        with pytest.raises(ValueError):
            forecast_classification(wd, 0, 0.5)
        with pytest.raises(ValueError):
            forecast_classification(wd, 3, 0.5)
        with pytest.raises(ValueError):
            forecast_classification(wd, 1, 1.5)


class TestLearnedPipelineStatistics:
    def test_markov_source_recovery(self):
        from gen import ORDER2_TABLE

        rng = Random(31337)
        train = markov2_symbols(rng, 50_000)
        pst = Pst.learn(train, max_order=3)
        for (s1, s2), p_a in ORDER2_TABLE.items():
            got = pst.predict((s1, s2))
            assert got["a"] == pytest.approx(p_a, abs=0.02), (s1, s2)

    def test_log_loss_beats_root_only(self):
        rng = Random(31338)
        train = markov2_symbols(rng, 50_000)
        held_out = markov2_symbols(Random(777), 5_000)
        learned = Pst.learn(train, max_order=3)
        root_only = Pst.learn(train, max_order=0)
        assert log_loss(learned, held_out) < log_loss(root_only, held_out)
