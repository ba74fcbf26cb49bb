import pytest

from cerf.algebra import (
    CURRENT,
    EMPTY_VALUATION,
    TRUE,
    And,
    Atom,
    EvalCounters,
    Event,
    Not,
    Predicate,
    Register,
    Valuation,
    comparison_predicate,
    conjoin,
)
from cerf.automaton import (
    ConfigurationCapExceeded,
    DeterministicRunner,
    NoTransition,
    NotDeterministic,
    Sra,
    StreamEngine,
    Transition,
    UnverifiableDeterminism,
    _fire,
    epsilon_closure,
    is_deterministic,
    run_accepts,
)
from random import Random

from cerf import algebra, automaton, compiler
from cerf.pattern import Window, accepts, parse, to_streaming
from cerf.serialize import to_dot

from conftest import E1_TEXT, E3_TEXT, make_table1, make_t_then_h_automaton
from gen import UNIVERSE, universe_library

R1 = Register("r1")


def _atom(name, *args):
    return Atom(universe_library().get(name), args)


class TestSraValidation:
    def test_endpoints_must_be_states(self):
        with pytest.raises(ValueError):
            Sra(
                states=frozenset({"a"}),
                start="a",
                finals=frozenset(),
                registers=frozenset(),
                transitions=(Transition("a", "b", TRUE),),
            )

    def test_start_must_be_a_state(self):
        with pytest.raises(ValueError):
            Sra(
                states=frozenset({"a"}),
                start="x",
                finals=frozenset(),
                registers=frozenset(),
                transitions=(),
            )

    def test_condition_reads_must_be_declared(self):
        with pytest.raises(ValueError):
            Sra(
                states=frozenset({"a"}),
                start="a",
                finals=frozenset(),
                registers=frozenset(),
                transitions=(Transition("a", "a", _atom("SameNum", CURRENT, R1)),),
            )

    def test_writes_must_be_declared(self):
        with pytest.raises(ValueError):
            Sra(
                states=frozenset({"a"}),
                start="a",
                finals=frozenset(),
                registers=frozenset(),
                transitions=(Transition("a", "a", TRUE, frozenset({R1})),),
            )

    def test_epsilon_cannot_write(self):
        with pytest.raises(ValueError):
            Transition("a", "b", None, frozenset({R1}))

    def test_stats_and_flags(self, t_then_h):
        st = t_then_h.stats()
        assert st["states"] == 3 and st["transitions"] == 4
        assert not t_then_h.has_epsilon
        assert t_then_h.is_single_write
        assert not t_then_h.is_acyclic()


class TestRuns:
    def test_table1_prefix_acceptance(self, t_then_h, table1):
        assert not run_accepts(t_then_h, table1[:3])
        assert run_accepts(t_then_h, table1[:4])
        assert run_accepts(t_then_h, table1[:5])
        assert not run_accepts(t_then_h, table1)

    def test_empty_string_needs_final_start(self, t_then_h):
        assert not run_accepts(t_then_h, [])
        accepting = Sra(
            states=frozenset({"s"}),
            start="s",
            finals=frozenset({"s"}),
            registers=frozenset(),
            transitions=(),
        )
        assert run_accepts(accepting, [])

    def test_epsilon_closure_then_fire(self):
        a = Sra(
            states=frozenset({"p", "q", "r"}),
            start="p",
            finals=frozenset({"r"}),
            registers=frozenset({R1}),
            transitions=(
                Transition("p", "q", None),
                Transition("q", "r", TRUE, frozenset({R1})),
            ),
        )
        # an ε-move consumes nothing and keeps the valuation
        assert epsilon_closure(a, "p") == frozenset({"p", "q"})
        assert epsilon_closure(a, "q") == frozenset({"q"})
        assert not run_accepts(a, [])
        ev = Event.of(x=1)
        # the kernel steps (state, slots) configurations; r1 is slot 0
        closed = [(q, (None,)) for q in sorted(epsilon_closure(a, "p"))]
        stepped = [(t.target, stored) for t, stored in _fire(a, closed, ev)]
        assert [state for state, _ in stepped] == ["r"]
        assert stepped[0][1] == (ev,)
        # the event move consumes exactly one element
        assert run_accepts(a, [ev])
        assert not run_accepts(a, [ev, ev])

    def test_cap_exceeded(self):
        # every event spawns a fresh binding that never dies
        a = Sra(
            states=frozenset({"s", "t"}),
            start="s",
            finals=frozenset(),
            registers=frozenset({R1}),
            transitions=(
                Transition("s", "s", TRUE),
                Transition("s", "t", TRUE, frozenset({R1})),
                Transition("t", "t", TRUE),
            ),
        )
        distinct = [Event.of(n=i) for i in range(10)]
        with pytest.raises(ConfigurationCapExceeded):
            run_accepts(a, distinct, cap=4)


class TestStreamEngine:
    def test_rejects_epsilon_automata(self):
        a = Sra(
            states=frozenset({"a", "b"}),
            start="a",
            finals=frozenset({"b"}),
            registers=frozenset(),
            transitions=(Transition("a", "b", None),),
        )
        with pytest.raises(ValueError):
            StreamEngine(a)

    def test_match_indexes_on_table1(self, table1):
        _, e1 = parse(E1_TEXT)
        a = compiler.eliminate_epsilon(compiler.compile_expr(to_streaming(e1)))
        engine = StreamEngine(a)
        hits = [i + 1 for i, ev in enumerate(table1) if engine.step(ev)]
        assert hits == [4, 5]
        assert engine.consumed == len(table1)

    def test_matched_at_start(self):
        lib = universe_library()
        _, e = parse("KindA(~)*", lib)
        a = compiler.eliminate_epsilon(compiler.compile_expr(to_streaming(e)))
        engine = StreamEngine(a)
        assert engine.matched_at_start
        # and a non-nullable pattern does not match the empty prefix
        _, e2 = parse("KindA(~)", lib)
        a2 = compiler.eliminate_epsilon(compiler.compile_expr(to_streaming(e2)))
        assert not StreamEngine(a2).matched_at_start

    def test_cap_applies_per_step(self, table1):
        _, e1 = parse(E1_TEXT)
        a = compiler.eliminate_epsilon(compiler.compile_expr(to_streaming(e1)))
        engine = StreamEngine(a, cap=2)
        with pytest.raises(ConfigurationCapExceeded):
            for ev in table1:
                engine.step(ev)

    def test_live_configurations_exposed(self, table1):
        _, e1 = parse(E1_TEXT)
        a = compiler.eliminate_epsilon(compiler.compile_expr(to_streaming(e1)))
        engine = StreamEngine(a)
        engine.step(table1[0])
        assert len(engine.live_configurations) >= 2


class TestDeterminism:
    def test_fig_style_automaton_is_nondeterministic(self, t_then_h, table1):
        v = EMPTY_VALUATION.set(R1, table1[0])
        assert (
            is_deterministic(t_then_h, universe=table1, valuations=[v, EMPTY_VALUATION])
            is False
        )

    def test_epsilon_means_nondeterministic(self):
        a = Sra(
            states=frozenset({"a", "b"}),
            start="a",
            finals=frozenset({"b"}),
            registers=frozenset(),
            transitions=(Transition("a", "b", None),),
        )
        assert is_deterministic(a) is False

    def test_syntactic_minterm_family_verifies(self):
        phi = _atom("KindA", CURRENT)
        a = Sra(
            states=frozenset({"s", "t"}),
            start="s",
            finals=frozenset({"t"}),
            registers=frozenset(),
            transitions=(
                Transition("s", "t", phi),
                Transition("s", "s", Not(phi)),
            ),
        )
        assert is_deterministic(a) is True

    def test_deep_minterm_family_verifies(self):
        # built directly: nothing bounds the depth of a condition in an
        # automaton document
        phi = _atom("KindA", CURRENT)
        shared = [_atom("NumIs1", CURRENT)] * 5000
        a = Sra(
            states=frozenset({"s", "t"}),
            start="s",
            finals=frozenset({"t"}),
            registers=frozenset(),
            transitions=(
                Transition("s", "t", conjoin(shared + [phi])),
                Transition("s", "s", conjoin(shared + [Not(phi)])),
            ),
        )
        assert is_deterministic(a) is True

    def test_needs_universe_when_syntax_is_inconclusive(self, two_state_dfa):
        with pytest.raises(UnverifiableDeterminism):
            is_deterministic(two_state_dfa)
        events = [Event.of(sym="a"), Event.of(sym="b")]
        assert is_deterministic(two_state_dfa, universe=events) is True

    def test_one_overlapping_event_is_a_witness(self):
        # KindA and NumIs1 are not syntactically exclusive and fire together
        # on the universe's (A, 1) event only
        a = Sra(
            states=frozenset({"s", "t"}),
            start="s",
            finals=frozenset({"t"}),
            registers=frozenset(),
            transitions=(
                Transition("s", "t", _atom("KindA", CURRENT)),
                Transition("s", "s", _atom("NumIs1", CURRENT)),
            ),
        )
        assert is_deterministic(a, universe=UNIVERSE) is False
        others = [ev for ev in UNIVERSE if ev != Event.of(kind="A", num=1)]
        assert is_deterministic(a, universe=others) is True

    def test_register_conditions_need_valuations(self, t_then_h, table1):
        with pytest.raises(UnverifiableDeterminism):
            is_deterministic(t_then_h, universe=table1)


class TestDeterministicRunner:
    def _runner(self):
        _, e3 = parse(
            'pred KindA(x): x.kind == "A"\n'
            'pred SameNum(x, y): x.num == y.num\n'
            "\n"
            "(TRUE* ; (KindA(~) -> r1) ; TRUE* ; SameNum(~, r1)) within 3"
        )
        d = compiler.complete(compiler.determinize(compiler.compile_windowed(e3)))
        return DeterministicRunner(d), d

    def test_requires_deterministic_flag(self, t_then_h):
        with pytest.raises(NotDeterministic):
            DeterministicRunner(t_then_h)

    def test_single_transition_per_event(self):
        runner, d = self._runner()
        for ev in UNIVERSE:
            taken = runner.step(ev)
            assert taken.source in d.states and taken.target == runner.state
        assert runner.consumed == len(UNIVERSE)

    def test_incomplete_raises_no_transition(self):
        phi = _atom("KindA", CURRENT)
        a = Sra(
            states=frozenset({"s", "t"}),
            start="s",
            finals=frozenset({"t"}),
            registers=frozenset(),
            transitions=(Transition("s", "t", phi),),
            deterministic=True,
        )
        runner = DeterministicRunner(a)
        with pytest.raises(NoTransition):
            runner.step(Event.of(kind="B", num=1))

    def test_counters_accumulate(self):
        counters = EvalCounters()
        runner, d = self._runner()
        runner.counters = counters
        runner.step(UNIVERSE[0])
        assert counters.condition_evals >= 1
        assert counters.register_reads <= len(d.registers)


    def test_register_reads_count_each_register_once(self):
        same = And(_atom("SameNum", CURRENT, R1), _atom("SameKind", CURRENT, R1))
        guarded = And(_atom("KindA", CURRENT), _atom("SameNum", CURRENT, R1))
        d = Sra(
            states=frozenset({"s", "t", "u", "f"}),
            start="s",
            finals=frozenset({"f"}),
            registers=frozenset({R1}),
            transitions=(
                Transition("s", "t", TRUE, frozenset({R1})),
                Transition("t", "u", same),
                Transition("u", "f", guarded),
                Transition("u", "f", Not(_atom("KindA", CURRENT))),
            ),
            deterministic=True,
        )
        counters = EvalCounters()
        runner = DeterministicRunner(d, counters)
        steps = []
        for ev in (Event.of(kind="A", num=1), Event.of(kind="A", num=1), Event.of(kind="B", num=1)):
            evals, reads = counters.condition_evals, counters.register_reads
            runner.step(ev)
            steps.append((counters.condition_evals - evals, counters.register_reads - reads))
        # TRUE reads nothing; both atoms of `same` read r1, counted once;
        # `guarded` fails at KindA before it reaches r1
        assert steps == [(1, 0), (1, 1), (2, 0)]
        assert runner.state == "f"
        assert runner.valuation == EMPTY_VALUATION.set(R1, Event.of(kind="A", num=1))

    def test_step_stops_at_the_transition_that_fires(self):
        # the step cost is exactly the 1-based position of the taken
        # transition among the state's outgoing transitions
        _, e3 = parse(E3_TEXT)
        d = compiler.complete(compiler.determinize(compiler.compile_windowed(Window(e3.body, 4))))
        rng = Random(7)
        positions = []
        for _ in range(40):
            counters = EvalCounters()
            runner = DeterministicRunner(d, counters)
            for _ in range(5):
                ev = Event.of(type=rng.choice("TH"), id=rng.randint(1, 3))
                state, before = runner.state, counters.condition_evals
                taken = runner.step(ev)
                position = d.out(state).index(taken) + 1
                assert counters.condition_evals - before == position
                positions.append(position)
        assert max(positions) > 1


def _sensor_events(seed: int, count: int) -> list[Event]:
    rng = Random(seed)
    return [
        Event.of(type=rng.choice("TH"), id=rng.randint(1, 5), value=rng.randint(0, 100))
        for _ in range(count)
    ]


class TestRegisterProjection:
    """Runs store in a register only the attributes its readers declare."""

    def test_e1_keeps_a_bounded_configuration_set(self):
        _, e1 = parse(E1_TEXT)
        a = compiler.streaming_automaton(compiler.eliminate_epsilon(compiler.compile_expr(e1)))
        assert a.observed_attributes == {R1: frozenset({"id"})}
        engine = StreamEngine(a)
        peak = 0
        for ev in _sensor_events(5, 5000):
            engine.step(ev)
            peak = max(peak, len(engine.live_configurations))
        assert peak <= len(a.states) * 5
        assert {v.lookup(R1) for _, v in engine.live_configurations} - {None} <= {
            Event.of(id=i) for i in range(1, 6)
        }

    def test_register_read_without_footprint_keeps_whole_events(self):
        declared = _atom("SameNum", CURRENT, R1)
        bare = Atom(Predicate("SameTag", 2, lambda x, y: x.get("tag") == y.get("tag")), (CURRENT, R1))
        for condition, names in ((declared, frozenset({"num"})), (And(declared, bare), None)):
            a = Sra(
                states=frozenset({"s", "t", "f"}),
                start="s",
                finals=frozenset({"f"}),
                registers=frozenset({R1}),
                transitions=(
                    Transition("s", "t", TRUE, frozenset({R1})),
                    Transition("t", "f", condition),
                ),
            )
            assert a.observed_attributes == {R1: names}
            first = Event.of(kind="A", num=1, tag="x")
            engine = StreamEngine(a)
            engine.step(first)
            ((state, stored),) = engine.live_configurations
            assert state == "t"
            kept = stored.lookup(R1)
            assert kept == (first if names is None else Event.of(num=1))
            # the hand-built reader sees the attribute the declared one does not
            assert run_accepts(a, [first, Event.of(num=1, tag="x")])
            assert run_accepts(a, [first, Event.of(num=1, tag="y")]) == (names is not None)

    def test_unread_register_keeps_whole_events(self):
        a = Sra(
            states=frozenset({"s", "t"}),
            start="s",
            finals=frozenset({"t"}),
            registers=frozenset({R1}),
            transitions=(Transition("s", "t", _atom("KindA", CURRENT), frozenset({R1})),),
        )
        assert a.observed_attributes == {R1: None}
        ev = Event.of(kind="A", num=2, tag="x")
        engine = StreamEngine(a)
        engine.step(ev)
        assert {v.lookup(R1) for _, v in engine.live_configurations} == {ev}

    def test_parameter_its_predicate_ignores_is_cut_to_nothing(self):
        # the register stays bound, so the atom still holds on it
        _, e = parse('pred NowA(x, y): x.kind == "A"\n\n(TRUE -> r1) ; NowA(~, r1)')
        a = compiler.eliminate_epsilon(compiler.compile_expr(e))
        (register,) = a.registers
        assert a.observed_attributes == {register: frozenset()}
        stream = [Event.of(kind="B", num=1), Event.of(kind="A", num=2)]
        assert run_accepts(a, stream) and accepts(e, stream)

    def test_map_is_built_on_first_write_only(self):
        _, e3 = parse(E3_TEXT)
        d = compiler.determinize(compiler.compile_windowed(e3))
        assert "observed_attributes" not in vars(d)
        runner = DeterministicRunner(d)
        runner.step(Event.of(type="H", id=1))
        assert "observed_attributes" not in vars(d)
        runner.step(Event.of(type="T", id=1))
        assert "observed_attributes" in vars(d)

    def test_conditions_are_compiled_once_as_states_are_reached(self, monkeypatch):
        _, e3 = parse(E3_TEXT)
        d = compiler.complete(compiler.determinize(compiler.compile_windowed(Window(e3.body, 4))))
        compiled = []
        original = algebra._compile_node
        monkeypatch.setattr(
            algebra, "_compile_node",
            lambda node, *args: compiled.append(node) or original(node, *args),
        )
        runner = DeterministicRunner(d)
        assert "_plan" not in vars(d) and not compiled
        runner.step(Event.of(type="H", id=1))
        # the first step compiles the start state's conditions alone
        assert {id(t.condition) for t in d.out(d.start)} <= {id(node) for node in compiled}
        assert set(d._plan) == {d.start}
        for ev in _sensor_events(3, 50):
            runner.step(ev)
        for state in d.states:
            d._plan[state]
        # each node object once, however many conditions share it
        ids = [id(node) for node in compiled]
        assert len(ids) == len(set(ids))
        assert {id(t.condition) for t in d.transitions} <= set(ids)
        # so no more closures than node objects, which minterms share widely
        nodes = [node for t in d.transitions for node in algebra._walk(t.condition)]
        assert len(compiled) <= len({id(node) for node in nodes}) < len(nodes) / 3

    def test_each_event_is_cut_once_per_step(self, monkeypatch):
        _, e3 = parse(E3_TEXT)
        a = compiler.streaming_automaton(compiler.compile_windowed(Window(e3.body, 4)))
        cuts = []
        original = Event.project
        monkeypatch.setattr(Event, "project", lambda ev, names: cuts.append(ev) or original(ev, names))
        engine = StreamEngine(a)
        for ev in _sensor_events(11, 300):
            before = len(cuts)
            engine.step(ev)
            assert len(cuts) - before <= 1
        assert len(cuts) > 50

    def test_shared_condition_nodes_are_walked_once(self, monkeypatch):
        _, e3 = parse(E3_TEXT)
        d = compiler.complete(compiler.determinize(compiler.compile_windowed(Window(e3.body, 4))))
        conditions = [t.condition for t in d.transitions]
        nodes = [node for c in conditions for node in algebra._walk(c)]
        distinct = {id(node) for node in nodes}
        observed = d.observed_attributes
        visits = []

        def counting(roots):
            for node in algebra._walk_distinct(roots):
                visits.append(node)
                yield node

        monkeypatch.setattr(automaton, "_walk_distinct", counting)
        a = Sra(d.states, d.start, d.finals, d.registers, d.transitions, d.window, d.deterministic)
        assert len(visits) == len(distinct)
        assert a.observed_attributes == observed
        assert len(visits) == 2 * len(distinct)
        # complete and determinize share subtrees, so most nodes repeat
        assert len(distinct) * 3 < len(nodes)


class TestDot:
    def test_dot_output_shape(self, t_then_h):
        dot = to_dot(t_then_h)
        assert dot.startswith("digraph")
        assert dot.count("doublecircle") == 1
        assert "q_s" in dot and "q_f" in dot
        # one edge line per transition plus the start arrow
        assert dot.count(" -> ") == len(t_then_h.transitions) + 1
        assert "↓ r1" in dot

    def test_epsilon_label(self):
        a = Sra(
            states=frozenset({"a", "b"}),
            start="a",
            finals=frozenset({"b"}),
            registers=frozenset(),
            transitions=(Transition("a", "b", None),),
        )
        assert "ε" in to_dot(a)
