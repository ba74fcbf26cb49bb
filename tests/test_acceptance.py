"""End-to-end acceptance checks for the whole pipeline.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (visible under
`pytest -s`) and asserts its own runtime budget where one applies, so a
full run doubles as a release checklist."""

import contextlib
import itertools
import time
from random import Random

from cerf.algebra import (
    CURRENT,
    EMPTY_VALUATION,
    Atom,
    EvalCounters,
    EvalScope,
    Register,
    minterms,
)
from cerf.automaton import DeterministicRunner, StreamEngine, run_accepts
from cerf.compiler import (
    compile_expr,
    compile_windowed,
    complete,
    complete_and_complement,
    concat_of,
    determinize,
    eliminate_epsilon,
    intersect,
    sra_to_srem,
    star_of,
    to_single_register,
    union_of,
)
from cerf.forecast import (
    Pst,
    SymbolMap,
    forecast_classification,
    forecast_regression,
    log_loss,
    waiting_time,
)
from cerf.pattern import (
    EPSILON,
    Alt,
    Concat,
    Cond,
    CondWrite,
    parse,
    to_streaming,
)

from conftest import (
    E1_TEXT,
    E3_TEXT,
    make_reference_pst,
    make_table1,
    make_two_state_dfa,
)
from gen import (
    ORDER2_TABLE,
    UNIVERSE,
    acceptance_dfs,
    markov2_symbols,
    oracle_dfs,
    random_condition,
    random_expr,
    random_windowed,
    universe_library,
)

R1 = Register("r1")
R2 = Register("r2")


@contextlib.contextmanager
def _criterion(n, budget=None):
    started = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - started
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        print(f"\nACCEPTANCE {n}: FAIL")
        raise
    print(f"\nACCEPTANCE {n}: PASS ({elapsed:.1f}s)")


def _events_by_key(max_len):
    table = {}
    for n in range(max_len + 1):
        for key in itertools.product(range(len(UNIVERSE)), repeat=n):
            table[key] = [UNIVERSE[i] for i in key]
    return table


EVENTS5 = _events_by_key(5)
EVENTS4 = {k: v for k, v in EVENTS5.items() if len(k) <= 4}
EVENTS3 = {k: v for k, v in EVENTS5.items() if len(k) <= 3}


def test_acceptance_01_sensor_stream_recognition():
    with _criterion(1, budget=1.0):
        _, e1 = parse(E1_TEXT)
        stream = make_table1()

        engine = StreamEngine(
            eliminate_epsilon(compile_expr(to_streaming(e1)))
        )
        matches = [engine.consumed for ev in stream if engine.step(ev)]
        assert matches == [4, 5]

        membership = eliminate_epsilon(compile_expr(e1))
        assert run_accepts(membership, stream[:4])
        assert run_accepts(membership, stream[:5])
        assert not run_accepts(membership, stream[:3])


def test_acceptance_02_waiting_time_worked_example():
    with _criterion(2, budget=1.0):
        dfa = make_two_state_dfa()
        smap = SymbolMap.for_automaton(dfa)
        pst = make_reference_pst()
        wd = waiting_time(dfa, smap, pst, "1", ("a", "a"), horizon=8)
        assert abs(wd.masses[0] - 0.25) < 1e-9
        assert abs(wd.masses[1] - 0.1875) < 1e-9
        assert forecast_classification(wd, 2, 0.4) is True
        assert forecast_classification(wd, 2, 0.5) is False
        assert forecast_regression(wd) == max(
            range(1, 9), key=lambda n: (wd.masses[n - 1], -n)
        )


def test_acceptance_03_compilation_stages_match_direct_semantics():
    with _criterion(3, budget=300.0):
        lib = universe_library()
        rng = Random(20260822)
        compared = 0
        for _ in range(500):
            e = random_expr(rng, 4, lib)
            thompson = compile_expr(e)
            epsilon_free = eliminate_epsilon(thompson)
            single_write = to_single_register(epsilon_free)
            stage_langs = [
                acceptance_dfs(a, UNIVERSE, 5)
                for a in (thompson, epsilon_free, single_write)
            ]
            derived = oracle_dfs(e, UNIVERSE, 5)
            for key in EVENTS5:
                want = bool(derived[key])
                assert stage_langs[0][key] == want
                assert stage_langs[1][key] == want
                assert stage_langs[2][key] == want
                compared += 1
        assert compared == 500 * len(EVENTS5)


def _assert_single_run(d, events):
    state = d.start
    valuation = EMPTY_VALUATION
    for event in events:
        scope = EvalScope(valuation)
        firing = [t for t in d.out(state) if scope.evaluate(t.condition, event)]
        assert len(firing) <= 1, f"{len(firing)} transitions fire at {state}"
        if not firing:
            return
        taken = firing[0]
        state = taken.target
        for r in taken.writes:
            valuation = valuation.set(r, event)


def test_acceptance_04_windowed_determinization_and_complement():
    with _criterion(4, budget=600.0):
        lib = universe_library()
        rng = Random(41)
        for _ in range(100):
            width = rng.choice((1, 2, 3))
            wexpr = random_windowed(rng, lib, width)
            unrolled = compile_windowed(wexpr)
            assert unrolled.is_acyclic() and unrolled.window == width

            d = determinize(unrolled)
            assert d.deterministic
            c = complete_and_complement(d)

            keys = {k: v for k, v in EVENTS4.items() if len(k) <= width + 1}
            accepted = acceptance_dfs(d, UNIVERSE, width + 1)
            rejected = acceptance_dfs(c, UNIVERSE, width + 1)
            derived = oracle_dfs(wexpr, UNIVERSE, width + 1)
            for key, events in keys.items():
                want = bool(derived[key])
                assert accepted[key] == want
                assert rejected[key] == (not want)
                _assert_single_run(d, events)


def _language(a, max_len=3):
    table = acceptance_dfs(a, UNIVERSE, max_len)
    return {key for key, ok in table.items() if ok}


def _set_concat(left, right, max_len=3):
    return {
        k1 + k2 for k1 in left for k2 in right if len(k1) + len(k2) <= max_len
    }


def _set_star(lang, max_len=3):
    closure = {()}
    frontier = {()}
    while frontier:
        grown = _set_concat(frontier, lang, max_len) - closure
        closure |= grown
        frontier = grown
    return closure


def test_acceptance_05_closure_operations_match_set_algebra():
    with _criterion(5):
        lib = universe_library()
        kind_a = Atom(lib.get("KindA"), (CURRENT,))
        kind_b = Atom(lib.get("KindB"), (CURRENT,))
        num_1 = Atom(lib.get("NumIs1"), (CURRENT,))
        same_num = Atom(lib.get("SameNum"), (CURRENT, R1))
        family = [
            EPSILON,
            Cond(kind_a),
            Cond(num_1),
            Concat(Cond(kind_a), Cond(kind_b)),
            Alt(Cond(kind_b), Concat(Cond(kind_a), Cond(kind_a))),
            Concat(CondWrite(kind_a, R1), Cond(same_num)),
        ]
        automata = [compile_expr(e) for e in family]
        langs = [_language(a) for a in automata]

        for (a1, l1), (a2, l2) in itertools.product(zip(automata, langs), repeat=2):
            assert _language(union_of(a1, a2)) == l1 | l2
            assert _language(intersect(a1, a2)) == l1 & l2
            assert _language(concat_of(a1, a2)) == _set_concat(l1, l2)
        for a, l in zip(automata, langs):
            assert _language(star_of(a)) == _set_star(l)

        writer_a = compile_expr(Concat(CondWrite(kind_a, R1), Cond(same_num)))
        writer_b = compile_expr(
            Concat(
                CondWrite(kind_b, R2),
                Cond(Atom(lib.get("SameNum"), (CURRENT, R2))),
            )
        )
        product = intersect(writer_a, writer_b)
        assert product.registers == frozenset({R1, R2})
        assert any(set(t.writes) == {R1, R2} for t in product.transitions)


def test_acceptance_06_translation_back_to_expressions():
    with _criterion(6):
        lib = universe_library()
        rng = Random(606)
        for _ in range(200):
            e = random_expr(rng, 3, lib)
            back = sra_to_srem(compile_expr(e))
            derived, derived_back = oracle_dfs(e, UNIVERSE, 4), oracle_dfs(back, UNIVERSE, 4)
            for key in EVENTS4:
                assert bool(derived_back[key]) == bool(derived[key])


def _valuation_grid():
    choices = [None, UNIVERSE[0], UNIVERSE[3]]
    for event in UNIVERSE:
        for first in choices:
            for second in choices:
                v = EMPTY_VALUATION
                if first is not None:
                    v = v.set(R1, first)
                if second is not None:
                    v = v.set(R2, second)
                yield event, v


def test_acceptance_07_minterms_partition_every_scenario():
    with _criterion(7):
        lib = universe_library()
        rng = Random(7)
        grid = list(_valuation_grid())
        for size in (1, 2, 3, 4, 5):
            for _ in range(30):
                pool = [random_condition(rng, lib) for _ in range(size)]
                parts = [m for m, _ in minterms(pool)]
                for event, valuation in grid:
                    scope = EvalScope(valuation)
                    fired = sum(
                        1 for part in parts if scope.evaluate(part, event)
                    )
                    assert fired == 1, (pool, event, valuation)


def test_acceptance_08_tree_learning_recovers_markov_source():
    with _criterion(8, budget=60.0):
        train = markov2_symbols(Random(88), 100_000)
        learned = Pst.learn(train, max_order=3)
        for context, p_a in ORDER2_TABLE.items():
            predicted = learned.predict(context)
            assert abs(predicted["a"] - p_a) < 0.02, context
            assert abs(predicted["b"] - (1.0 - p_a)) < 0.02, context

        held_out = markov2_symbols(Random(89), 10_000)
        root_only = Pst.learn(train, max_order=0)
        assert log_loss(learned, held_out) < log_loss(root_only, held_out)


def test_acceptance_09_step_cost_is_bounded_by_automaton_constants():
    with _criterion(9):
        _, e3 = parse(E3_TEXT)
        d = complete(determinize(compile_windowed(e3)))
        max_out_degree = max(len(d.out(q)) for q in d.states)
        register_count = len(d.registers)

        counters = EvalCounters()
        runner = DeterministicRunner(d, counters)
        stream = make_table1() * 10
        for event in stream:
            evals_before = counters.condition_evals
            reads_before = counters.register_reads
            runner.step(event)
            assert counters.condition_evals - evals_before <= max_out_degree
            assert counters.register_reads - reads_before <= register_count
        assert runner.consumed == len(stream)
