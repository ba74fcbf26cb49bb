import io

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
    compile_condition,
    conjoin,
    registers_of,
)
from cerf.automaton import (
    ConfigurationCapExceeded,
    DeterministicRunner,
    NoTransition,
    NotDeterministic,
    Sra,
    StreamEngine,
    Transition,
    _fire,
    epsilon_closure,
    run_accepts,
)
from random import Random

from cerf import algebra, automaton, compiler
from cerf.diagram import UNSET, SubsetRunner, lag
from cerf.oracle import Oracle
from cerf.pattern import (
    EPSILON,
    Concat,
    Cond,
    CondWrite,
    Star,
    Window,
    accepts,
    parse,
    to_streaming,
)
from cerf.serialize import to_dot

from conftest import E1_TEXT, E3_TEXT, make_table1, make_t_then_h_automaton
from determinism import UnverifiableDeterminism, is_deterministic
from gen import UNIVERSE, random_expr, universe_library

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


def _runner(e: Window) -> SubsetRunner:
    return SubsetRunner(compiler.compile_windowed(e))


def _tree(*edges, finals=()) -> Sra:
    """A tree rooted at "n0" from (source, target, condition, writes)."""
    transitions = tuple(Transition(s, t, c, frozenset(w)) for s, t, c, w in edges)
    return Sra(
        states=frozenset({"n0"} | {t.target for t in transitions}), start="n0",
        finals=frozenset(finals),
        registers=frozenset(r for t in transitions for r in t.writes | registers_of(t.condition)),
        transitions=transitions,
    )


class TestSubsetRunner:
    """`cerf recognize` runs a windowed pattern as one subset of the states
    of its unrolled tree, whose subset machine is built as the stream
    reaches it, and one history of the last events, which the conditions
    read by lag."""

    # events with attributes no predicate reads, which registers drop
    RICH = UNIVERSE + tuple(
        Event.of(kind=kind, num=num, tag=tag) for kind in "AB" for num in (1, 2) for tag in "xy"
    )

    def _agree(self, e: Window, stream: list[Event]) -> None:
        """The runner, `StreamEngine` on the streaming automaton and the
        oracle agree at every index, and on the empty prefix."""
        runner = _runner(e)
        engine = StreamEngine(compiler.streaming_automaton(compiler.compile_windowed(e)))
        oracle = Oracle(to_streaming(e))
        pairs = oracle.start()
        expected = bool(Oracle.derived(pairs))
        assert runner.matched_at_start == engine.matched_at_start == expected
        for k, ev in enumerate(stream, start=1):
            pairs = oracle.step(pairs, ev)
            expected = bool(Oracle.derived(pairs))
            assert runner.step(ev) == engine.step(ev) == expected, (e, k)
        assert runner.consumed == len(stream)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_random_windowed_patterns(self, width):
        lib = universe_library()
        rng = Random(1800 + width)
        for _ in range(40):
            e = Window(random_expr(rng, 3, lib), width)
            self._agree(e, [rng.choice(self.RICH) for _ in range(30)])

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_patterns_whose_root_is_final(self, width):
        kind_a = Cond(_atom("KindA", CURRENT))
        rng = Random(1810 + width)
        for body in (EPSILON, Star(Cond(TRUE)), Star(kind_a), Concat(Star(kind_a), Star(kind_a))):
            e = Window(body, width)
            assert _runner(e).matched_at_start
            self._agree(e, [rng.choice(self.RICH) for _ in range(30)])

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_predicate_without_footprint(self, width):
        same_tag = Predicate("SameTag", 2, lambda x, y: x.get("tag") == y.get("tag"))
        body = Concat(
            CondWrite(_atom("KindA", CURRENT), R1),
            Concat(Star(Cond(TRUE)), Cond(Atom(same_tag, (CURRENT, R1)))),
        )
        tree = compiler.compile_windowed(Window(body, width))
        # whole events; at width 1 the body is pruned away with its register
        assert set(tree.observed_attributes.values()) == ({None} if width > 1 else set())
        rng = Random(1820 + width)
        self._agree(Window(body, width), [rng.choice(self.RICH) for _ in range(60)])

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_events_are_stored_whole(self, width, monkeypatch):
        # the runner keeps the last events in its history and writes no
        # register, so it cuts no event; the stream engine beside it still
        # cuts
        cuts = []
        original = Event.project
        monkeypatch.setattr(Event, "project", lambda ev, names: cuts.append(ev) or original(ev, names))
        same_tag = Predicate("SameTag", 2, lambda x, y: x.get("tag") == y.get("tag"))
        footprintless = Concat(
            CondWrite(_atom("KindA", CURRENT), R1),
            Concat(Star(Cond(TRUE)), Cond(Atom(same_tag, (CURRENT, R1)))),
        )
        lib = universe_library()
        rng = Random(2400 + width)
        for body in [random_expr(rng, 3, lib) for _ in range(40)] + [footprintless]:
            e = Window(body, width)
            runner = _runner(e)
            engine = StreamEngine(compiler.streaming_automaton(compiler.compile_windowed(e)))
            stream = [rng.choice(self.RICH) for _ in range(30)]
            for k, ev in enumerate(stream, start=1):
                before = len(cuts)
                matched = runner.step(ev)
                assert len(cuts) == before, (e, k)
                assert matched == engine.step(ev), (e, k)
                # slot j holds the event j steps back, the very object
                history = runner._history
                assert history[0] is None
                held = range(1, min(k, len(history) - 1) + 1)
                assert all(history[j] is stream[k - j] for j in held)
        # within 1 no register is read, so it keeps whole events anyway
        assert bool(cuts) == (width > 1)

    @staticmethod
    def _signs(runner: SubsetRunner, members: frozenset, event: Event, history: tuple) -> tuple:
        """The sign vector one step of the runner keys its table with, from
        the subset of `members` with `history` as the last events."""
        subset = runner._subset(members)
        subset.table.clear()
        runner._state, runner._history = subset, history
        runner.step(event)
        (signs,) = subset.table
        return signs

    def _check_signs(self, tree: Sra, rng: Random, subsets: int, pool=RICH) -> None:
        """On random subsets of the tree's states, random events of the
        pool and random histories, the diagram's sign vector is the vector
        of the subset's lagged conditions compiled one by one."""
        runner = SubsetRunner(tree)
        states, slots = sorted(tree.states), runner._slots
        for _ in range(subsets):
            members = frozenset(rng.sample(states, rng.randint(1, len(states))))
            lagged = automaton.outgoing(runner._lagged, members)
            conditions = [compile_condition(c, slots) for c in lagged]
            for _ in range(8):
                event = rng.choice(pool)
                history = (None, *(rng.choice((None, *pool)) for _ in runner._history[1:]))
                expected = tuple(holds(event, history) for holds in conditions)
                assert self._signs(runner, members, event, history) == expected

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_diagram_signs_are_the_per_condition_signs(self, width):
        lib = universe_library()
        rng = Random(2100 + width)
        for _ in range(25):
            e = Window(random_expr(rng, 3, lib), width)
            self._check_signs(compiler.compile_windowed(e), rng, 10)
        _, e3 = parse(E3_TEXT)
        tree = compiler.compile_windowed(Window(e3.body, width))
        self._check_signs(tree, rng, 40, _sensor_events(width, 12))

    def test_diagram_branches_once_on_the_most_shared_head(self):
        # four heads, each heading two conditions and the third three; each
        # tail is a head too, so a deeper expansion would find more to share
        heads = [Atom(comparison_predicate(f"N{i}", "num", "==", i % 3), (CURRENT,))
                 for i in range(4)]
        tails = [_atom("KindA", CURRENT), _atom("SameNum", CURRENT, R1)]
        conditions = [And(h, t) for h in heads for t in tails]
        conditions += [And(heads[2], heads[0]), heads[3], TRUE]
        tree = _tree(("n0", "s", TRUE, {R1}),
                     *(("s", f"t{i}", c, ()) for i, c in enumerate(conditions)))
        runner = SubsetRunner(tree)
        diagram = runner._subset(frozenset({"s"})).diagram
        head = runner._canonical[heads[2]]
        assert diagram.test is compile_condition(head, runner._slots, runner._compiled)
        assert isinstance(diagram.hi, list) and isinstance(diagram.lo, list)
        self._check_signs(tree, Random(7), 30)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_e3_agrees_with_the_stream_engine(self, width):
        _, e3 = parse(E3_TEXT)
        e = Window(e3.body, width)
        runner = _runner(e)
        engine = StreamEngine(compiler.streaming_automaton(compiler.compile_windowed(e)))
        for k, ev in enumerate(_sensor_events(2100 + width, 5000), start=1):
            assert runner.step(ev) == engine.step(ev), (width, k)

    def test_e3_table_size(self):
        # the table grows with the tree, not with the distinct values
        _, e3 = parse(E3_TEXT)
        e = Window(e3.body, 4)
        sizes = []
        for ids in (5, 10**5):
            rng = Random(18)
            runner, engine = _runner(e), StreamEngine(
                compiler.streaming_automaton(compiler.compile_windowed(e))
            )
            for _ in range(20_000):
                ev = Event.of(type=rng.choice("TH"), id=rng.randint(1, ids), value=rng.randint(0, 100))
                assert runner.step(ev) == engine.step(ev)
            sizes.append((runner.subsets, runner.entries))
        assert sizes == [(25, 84), (12, 21)]  # (subsets, entries) at 5 and 10^5 ids
        assert sizes[1][1] <= sizes[0][1]

    def test_machine_shape(self):
        _, e3 = parse(E3_TEXT)
        tree = compiler.compile_windowed(e3)
        runner = SubsetRunner(tree)
        lagged = runner._lagged
        # the same tree, writing nothing, reading by lag
        assert lagged.states == tree.states and lagged.start == tree.start
        assert lagged.finals == tree.finals
        assert not any(t.writes for t in lagged.transitions)
        assert lagged.registers == {lag(1), lag(2)} and len(runner._history) == 3
        # equal conditions at depths 1 and 2 read two different events
        (h_same_id, *_) = (t.condition for t in tree.transitions if isinstance(t.condition, And))
        (r,) = registers_of(h_same_id)
        reads = {t.condition for t in lagged.transitions}
        assert {algebra.substitute_registers(h_same_id, {r: lag(j)}) for j in (1, 2)} <= reads
        # every step adds the root, so every reached subset holds it
        for ev in _sensor_events(7, 500):
            runner.step(ev)
        assert runner.subsets > 1 and all(tree.start in s for s in runner._subsets)

    def test_each_lag_condition_is_compiled_once(self, monkeypatch):
        _, e3 = parse(E3_TEXT)
        tree = compiler.compile_windowed(Window(e3.body, 4))
        compiled = []
        original = algebra._compile_node
        monkeypatch.setattr(
            algebra, "_compile_node",
            lambda node, *args: compiled.append(node) or original(node, *args),
        )
        runner = SubsetRunner(tree)
        for ev in _sensor_events(3, 2000):
            runner.step(ev)
        # distinct conjuncts of the lagged conditions, each compiled once
        assert compiled and len(compiled) == len(set(compiled))
        # equal lagged conditions are one object
        conditions = [t.condition for t in runner._lagged.transitions]
        assert len({id(c) for c in conditions}) == len(set(conditions))

    def test_registers_are_read_on_each_path(self):
        # r1 written into depth 1 and read at depth 2, written into depth 2
        # and read there, written twice on one path, and read where no path
        # wrote it
        kind_a, kind_b = _atom("KindA", CURRENT), _atom("KindB", CURRENT)
        same = _atom("SameNum", CURRENT, R1)
        tree = _tree(
            ("n0", "a1", kind_a, {R1}), ("a1", "a2", TRUE, ()), ("a2", "a3", same, ()),
            ("n0", "b1", TRUE, ()), ("b1", "b2", kind_b, {R1}), ("b2", "b3", same, ()),
            ("n0", "c1", kind_a, {R1}), ("c1", "c2", kind_b, {R1}), ("c2", "c3", same, ()),
            ("n0", "d1", TRUE, ()), ("d1", "d2", same, ()),
            finals=("a3", "b3", "c3", "d2"),
        )
        runner = SubsetRunner(tree)
        reads = {t.target: t.condition.args[1] for t in runner._lagged.transitions
                 if t.condition.__class__ is Atom and len(t.condition.args) == 2}
        assert reads == {"a3": lag(2), "b3": lag(1), "c3": lag(1), "d2": UNSET}
        engine = StreamEngine(compiler.streaming_automaton(tree))
        rng = Random(31)
        for k in range(1, 400):
            ev = rng.choice(self.RICH)
            assert runner.step(ev) == engine.step(ev), k

    def test_refuses_a_state_reached_twice(self):
        _, e3 = parse(E3_TEXT)
        tree = compiler.compile_windowed(e3)
        looped = compiler.streaming_automaton(tree)
        with pytest.raises(compiler.NotUnrolled):
            SubsetRunner(Sra(looped.states, looped.start, looped.finals, looped.registers,
                             looped.transitions, tree.window))
        # reached at depths 1 and 2, and twice at depth 1
        kind_a = _atom("KindA", CURRENT)
        for edges in ((("n0", "x", TRUE, ()), ("x", "y", TRUE, ()), ("n0", "y", kind_a, ())),
                      (("n0", "x", TRUE, ()), ("n0", "x", kind_a, ()))):
            with pytest.raises(compiler.NotUnrolled):
                SubsetRunner(_tree(*edges))

    def test_rejects_epsilon_automata(self):
        a = Sra(
            states=frozenset({"s", "f"}),
            start="s",
            finals=frozenset({"f"}),
            registers=frozenset(),
            transitions=(Transition("s", "f", None),),
        )
        with pytest.raises(compiler.NotUnrolled):
            SubsetRunner(a)


def _dot(a) -> str:
    buf = io.StringIO()
    to_dot(a, buf)
    return buf.getvalue()


class TestDot:
    def test_dot_output_shape(self, t_then_h):
        dot = _dot(t_then_h)
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
        assert "ε" in _dot(a)
