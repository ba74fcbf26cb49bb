import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import tokenize
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import cerf
from cerf import serialize
from cerf.algebra import Event, Predicate, _walk_distinct
from cerf.automaton import (
    DeterministicRunner,
    NoTransition,
    NotDeterministic,
    PreconditionFailed,
    Sra,
    Transition,
    run_accepts,
)
from cerf.cli import main
from cerf.compiler import complete, determinize
from cerf.construct import NotUnrolled, NotWindowed, WindowedInput, compile_windowed
from cerf.forecast import (
    NotComplete,
    Pst,
    SymbolMap,
    WaitingTimes,
    forecast_classification,
    forecast_regression,
)
from cerf.oracle import Oracle
from cerf.pattern import (
    MAX_NESTING,
    UnknownRegister,
    Window,
    accepts,
    parse,
    unparse_pattern,
)
from cerf.shell import MalformedInput, read_events

from cli_runner import CliRunner
from conftest import E1_TEXT, E3_TEXT, make_table1, make_two_state_dfa
from determinism import UnverifiableDeterminism
from gen import markov2_symbols, random_expr, universe_library

TABLE1_JSONL = "\n".join(
    json.dumps(row)
    for row in (
        {"type": "T", "id": 1, "value": 22},
        {"type": "T", "id": 1, "value": 24},
        {"type": "T", "id": 2, "value": 32},
        {"type": "H", "id": 1, "value": 70},
        {"type": "H", "id": 1, "value": 68},
        {"type": "T", "id": 2, "value": 33},
    )
) + "\n"

TABLE1_CSV = (
    "type,id,value\n"
    "T,1,22\n"
    "T,1,24\n"
    "T,2,32\n"
    "H,1,70\n"
    "H,1,68\n"
    "T,2,33\n"
)


def _indexes(stdout):
    return [json.loads(line)["index"] for line in stdout.splitlines() if line]


class TestSerializeAutomaton:
    def test_round_trip_preserves_language_and_shape(self):
        _, e3 = parse(E3_TEXT)
        d = determinize(compile_windowed(e3))
        doc = serialize.automaton_to_doc(d)
        back, _library = serialize.automaton_from_doc(doc)
        assert back.stats() == d.stats()
        assert back.start == d.start
        assert back.deterministic and back.window == d.window
        stream = make_table1()
        for n in range(4):
            assert run_accepts(back, stream[:n]) == run_accepts(d, stream[:n])

    def test_round_trip_keeps_footprints(self):
        _, e3 = parse(E3_TEXT)
        d = determinize(compile_windowed(e3))
        back, library = serialize.automaton_from_doc(serialize.automaton_to_doc(d))
        assert back.observed_attributes == d.observed_attributes
        assert set(back.observed_attributes.values()) == {frozenset({"id"})}
        footprints = {p.name: p.footprint for p in library}
        assert footprints == {
            "TypeIsT": (frozenset({"type"}),),
            "TypeIsH": (frozenset({"type"}),),
            "EqualId": (frozenset({"id"}), frozenset({"id"})),
        }

    def test_loading_shares_equal_condition_subtrees(self):
        # Conditions are hash-consed, so the built and the loaded automaton
        # each hold every set of equal subtrees as one object.
        _, e3 = parse(E3_TEXT)
        d = complete(determinize(compile_windowed(e3)))
        doc = serialize.automaton_to_doc(d)
        back, _library = serialize.automaton_from_doc(doc)

        def nodes(a):
            conditions = (t.condition for t in a.transitions if t.condition is not None)
            return list(_walk_distinct(conditions))

        assert len(nodes(back)) == len(set(nodes(d))) == len(nodes(d))
        assert serialize.automaton_to_doc(back) == doc

    def test_doc_shape(self, two_state_dfa):
        doc = serialize.automaton_to_doc(two_state_dfa)
        assert doc["format"] == "sra" and doc["version"] == 1
        assert doc["states"] == ["1", "2"]
        assert all(set(t) == {"source", "target", "condition", "writes"}
                   for t in doc["transitions"])
        json.dumps(doc)

    def test_unsourced_predicate_rejected(self):
        with pytest.raises(ValueError):
            serialize.automaton_to_doc(_unsourced_automaton())

    def test_an_unwritable_automaton_fails_before_the_first_byte(
        self, tmp_path, monkeypatch, capsys
    ):
        from cerf.cmd_automata import _emit_automaton

        a = _unsourced_automaton()
        buf = io.StringIO()
        with pytest.raises(ValueError, match="no declaration source"):
            serialize.dump(serialize.lazy_automaton_doc(a), buf)
        assert buf.getvalue() == ""
        monkeypatch.chdir(tmp_path)
        Path("a.json").write_text("kept\n")
        for out in ("a.json", None):
            with pytest.raises(ValueError, match="no declaration source"):
                _emit_automaton(a, out, "a.dot", False)
        assert Path("a.json").read_text() == "kept\n"
        assert not Path("a.dot").exists()
        assert capsys.readouterr().out == ""

    def test_always_is_not_serializable(self):
        from cerf.algebra import ALWAYS, CURRENT, Atom

        a = Sra(
            states=frozenset({"q"}),
            start="q",
            finals=frozenset({"q"}),
            registers=frozenset(),
            transitions=(Transition("q", "q", Atom(ALWAYS, (CURRENT,))),),
        )
        assert run_accepts(a, [Event.of(x=1)])
        with pytest.raises(ValueError, match="cannot be serialized"):
            serialize.automaton_to_doc(a)

    def test_wide_guards_render_in_memory_linear_in_their_text(self):
        # `complete` guards a state with `!m1 & ... & !mk`, one left-nested
        # chain; keeping the text of every prefix would take memory growing
        # with the square of the chain's length.
        n = 60
        declarations = "".join(
            f"pred P{i}(x): x.v == {i}\npred Q{i}(x): x.w == {i}\n" for i in range(n)
        )
        ps = " + ".join(f"P{i}(~)" for i in range(n))
        qs = " + ".join(f"Q{i}(~)" for i in range(n))
        _, expr = parse(f"{declarations}\n(({ps}) ; ({qs})) within 2\n")
        d = complete(determinize(compile_windowed(expr)))
        tracemalloc.start()
        try:
            doc = serialize.automaton_to_doc(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = sum(len(t["condition"]) for t in doc["transitions"])
        assert text > 1_000_000
        assert peak < 3 * text

    def test_malformed_documents(self, tmp_path, two_state_dfa):
        doc = serialize.automaton_to_doc(two_state_dfa)
        broken = [
            {k: v for k, v in doc.items() if k != "window"},
            dict(doc, window="3"),
            dict(doc, transitions=["1 -> 2"]),
            dict(doc, start="nowhere"),
        ]
        for bad in broken:
            with pytest.raises(serialize.MalformedDocument):
                serialize.automaton_from_doc(bad)
        with pytest.raises(serialize.MalformedDocument):
            serialize.pst_from_doc({"format": "pst", "version": 1, "max_order": 1})
        with pytest.raises(serialize.MalformedDocument):
            serialize.model_from_doc({"format": "cerf-model", "version": 1, "automaton": doc})
        target = tmp_path / "a.json"
        target.write_text('{"format": ')
        with pytest.raises(serialize.MalformedDocument):
            serialize.load(str(target))

    def test_header_validation(self, two_state_dfa):
        doc = serialize.automaton_to_doc(two_state_dfa)
        wrong_format = dict(doc, format="something-else")
        with pytest.raises(ValueError):
            serialize.automaton_from_doc(wrong_format)
        wrong_version = dict(doc, version=99)
        with pytest.raises(ValueError):
            serialize.automaton_from_doc(wrong_version)

    def test_dump_and_load(self, tmp_path, two_state_dfa):
        doc = serialize.automaton_to_doc(two_state_dfa)
        target = tmp_path / "a.json"
        serialize.dump(doc, str(target))
        text = target.read_text()
        assert text.endswith("\n") and json.loads(text) == doc
        assert serialize.load(str(target)) == doc
        buf = io.StringIO()
        serialize.dump(doc, buf)
        assert json.loads(buf.getvalue()) == doc

    @pytest.mark.parametrize("kind", ["automaton", "model"])
    def test_dump_writes_the_indented_text(self, tmp_path, kind):
        _, e3 = parse(E3_TEXT)
        d = complete(determinize(compile_windowed(e3)))
        if kind == "automaton":
            doc = serialize.automaton_to_doc(d)
        else:
            smap = SymbolMap.for_automaton(d)
            from cerf.forecast import symbolize

            pst = Pst.learn(symbolize(d, make_table1() * 20, smap), max_order=2,
                            alphabet=smap.symbols)
            doc = serialize.model_to_doc(d, smap, pst)
        text = json.dumps(doc, indent=2) + "\n"
        target = tmp_path / "doc.json"
        serialize.dump(doc, str(target))
        assert target.read_bytes() == text.encode("utf-8")
        buf = io.StringIO()
        serialize.dump(doc, buf)
        assert buf.getvalue() == text

    def test_dump_holds_no_copy_of_the_text(self):
        # E3 within 7 has 4,512 transitions and a 1.19 MB document; writing
        # it chunk by chunk as encoded keeps a few kilobytes at a time.
        _, e3 = parse(E3_TEXT)
        doc = serialize.automaton_to_doc(determinize(compile_windowed(Window(e3.body, 7))))

        class Discard:
            written = 0

            def write(self, chunk):
                self.written += len(chunk)
                return len(chunk)

        sink = Discard()
        tracemalloc.start()
        try:
            serialize.dump(doc, sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        text = len(json.dumps(doc, indent=2)) + 1
        assert sink.written == text > 1_000_000
        assert peak < text / 4

    def test_to_dot_holds_no_copy_of_the_text(self):
        # E3 within 7 renders to 862,230 characters of DOT; each line goes
        # to the stream as it is made. The memo is filled by the document
        # first, as `--out` and `--dot` share it.
        _, e3 = parse(E3_TEXT)
        a = determinize(compile_windowed(Window(e3.body, 7)))
        memo: dict = {}
        serialize.automaton_to_doc(a, memo)
        buf = io.StringIO()
        serialize.to_dot(a, buf, memo=memo)
        text = len(buf.getvalue())

        class Discard:
            written = 0

            def write(self, chunk):
                self.written += len(chunk)
                return len(chunk)

        sink = Discard()
        tracemalloc.start()
        try:
            serialize.to_dot(a, sink, memo=memo)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.written == text > 800_000
        assert peak < text / 4

    def test_writing_from_the_automaton_holds_no_document(self):
        # A lazy document's transition entries are made as they are written,
        # so neither their list nor the text is ever held.
        _, e3 = parse(E3_TEXT)
        a = determinize(compile_windowed(Window(e3.body, 7)))
        tracemalloc.start()
        try:
            doc = serialize.automaton_to_doc(a)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del doc
        sink = _Discard()
        tracemalloc.start()
        try:
            serialize.dump(serialize.lazy_automaton_doc(a), sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.written > retained > 1_000_000
        assert peak < retained / 4

    def test_load_drops_a_byte_order_mark(self, tmp_path, two_state_dfa):
        doc = serialize.automaton_to_doc(two_state_dfa)
        buf = io.StringIO()
        serialize.dump(doc, buf)
        target = tmp_path / "marked.json"
        target.write_text("\ufeff" + buf.getvalue(), encoding="utf-8")
        assert serialize.load(str(target)) == doc
        assert serialize.load(io.StringIO("\ufeff" + buf.getvalue())) == doc


def _unsourced_automaton() -> Sra:
    """One state looping on a predicate declared by no source line."""
    from cerf.algebra import CURRENT, Atom

    bare = Predicate("NoSrc", 1, lambda e: True)
    return Sra(
        states=frozenset({"q"}),
        start="q",
        finals=frozenset({"q"}),
        registers=frozenset(),
        transitions=(Transition("q", "q", Atom(bare, (CURRENT,))),),
    )


class _Discard:
    """A text sink that counts what it is given and keeps none of it."""

    written = 0

    def write(self, chunk):
        self.written += len(chunk)
        return len(chunk)


class _Lazy(list):
    """A list that `_lazily` hands to `dump` as a generator."""


def _lazily(o):
    """The document with each `_Lazy` list in it, at any depth, a generator."""
    if isinstance(o, _Lazy):
        return (_lazily(item) for item in o)
    if isinstance(o, list):
        return [_lazily(item) for item in o]
    if isinstance(o, dict):
        return {key: _lazily(value) for key, value in o.items()}
    return o


_TRICKY_TEXT = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é😀𝄞'))
_JSON_DOCUMENTS = st.recursive(
    st.none()
    | st.booleans()
    | _TRICKY_TEXT
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(_Lazy)
    | st.dictionaries(
        _TRICKY_TEXT | st.integers() | st.floats() | st.booleans() | st.none(), children, max_size=4
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_JSON_DOCUMENTS)
def test_dump_writes_what_json_dumps_makes(doc):
    text = json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    serialize.dump(_lazily(doc), buf)
    assert buf.getvalue() == text
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        serialize.dump(_lazily(doc), path)
        assert Path(path).read_bytes() == text.encode("utf-8")


class TestSerializeModel:
    def _model(self):
        _, e3 = parse(E3_TEXT)
        d = complete(determinize(compile_windowed(e3)))
        smap = SymbolMap.for_automaton(d)
        from cerf.forecast import symbolize

        symbols = symbolize(d, make_table1() * 50, smap)
        pst = Pst.learn(symbols, max_order=2, alphabet=smap.symbols)
        return d, smap, pst

    def test_pst_floats_bit_exact(self):
        _, _, pst = self._model()
        doc = serialize.pst_to_doc(pst)
        back = serialize.pst_from_doc(doc)
        assert back.max_order == pst.max_order
        assert back.alphabet == pst.alphabet
        assert back.nodes == pst.nodes

    @pytest.mark.parametrize("value", [float("nan"), True, float("inf"), "1", None])
    def test_pst_probability_must_be_a_finite_number(self, value):
        _, _, pst = self._model()
        doc = serialize.pst_to_doc(pst)
        root = doc["nodes"][0]
        assert root["context"] == []
        first, *rest = root["distribution"]
        root["distribution"] = {first: value, **{sym: 0.0 for sym in rest}}
        with pytest.raises(serialize.MalformedDocument, match="not a finite number"):
            serialize.pst_from_doc(doc)

    @pytest.mark.parametrize("value", [3.5, True, -1, "2", None])
    def test_pst_max_order_must_be_a_non_negative_integer(self, value):
        _, _, pst = self._model()
        doc = serialize.pst_to_doc(pst)
        doc["max_order"] = value
        with pytest.raises(serialize.MalformedDocument, match="max_order must be a non-negative"):
            serialize.pst_from_doc(doc)

    def test_model_parses_each_condition_text_once(self, monkeypatch):
        doc = serialize.model_to_doc(*self._model())
        texts = [t["condition"] for t in doc["automaton"]["transitions"] if t["condition"]]
        texts += [e["condition"] for e in doc["symbol_map"]]
        parsed = []
        original = serialize.parse_condition
        monkeypatch.setattr(
            serialize, "parse_condition", lambda text, *a: parsed.append(text) or original(text, *a)
        )
        d, smap, _, _ = serialize.model_from_doc(doc)
        assert sorted(parsed) == sorted(set(texts)) and len(parsed) < len(texts)
        assert {c for c, _ in smap.items()} == {t.condition for t in d.transitions}

    def test_model_with_a_non_text_condition_is_malformed(self):
        doc = serialize.model_to_doc(*self._model())
        doc["symbol_map"][0]["condition"] = ["TRUE"]
        with pytest.raises(serialize.MalformedDocument, match="expected string"):
            serialize.model_from_doc(doc)

    def test_model_round_trip(self):
        d, smap, pst = self._model()
        doc = serialize.model_to_doc(d, smap, pst)
        assert doc["format"] == "cerf-model"
        d2, smap2, pst2, _library = serialize.model_from_doc(doc)
        assert d2.stats() == d.stats()
        assert [s for _, s in smap2.items()] == [s for _, s in smap.items()]
        assert pst2.nodes == pst.nodes

    def test_symbol_map_entry_order(self, two_state_dfa, dfa_symbol_map):
        entries = serialize.symbol_map_to_entries(dfa_symbol_map)
        assert [e["symbol"] for e in entries] == ["a", "b"]
        lib_doc = serialize.automaton_to_doc(two_state_dfa)
        _, library = serialize.automaton_from_doc(lib_doc)
        parsed = serialize._condition_parser(library, [])
        back = serialize.symbol_map_from_entries(entries, parsed)
        assert back.symbols == dfa_symbol_map.symbols


class TestReadEvents:
    def test_jsonl_happy_path(self):
        fp = io.StringIO('{"a": 1}\n\n{"a": 2, "b": "x"}\n')
        events = list(read_events(fp))
        assert [e.get("a") for e in events] == [1, 2]
        assert events[1].get("b") == "x"

    def test_jsonl_skips_bad_lines_with_diagnostics(self):
        fp = io.StringIO('{"a": 1}\nnot json\n{"a": []}\n{"a": 2}\n')
        seen = []
        events = list(read_events(fp, on_error=seen.append))
        assert [e.get("a") for e in events] == [1, 2]
        assert len(seen) == 2 and "line 2" in seen[0] and "line 3" in seen[1]

    def test_jsonl_strict_raises(self):
        fp = io.StringIO('{"a": 1}\nnot json\n')
        with pytest.raises(MalformedInput):
            list(read_events(fp, strict=True))

    def test_booleans_and_non_objects_rejected(self):
        for line in ('{"a": true}', "[1, 2]", "{}", '"scalar"'):
            with pytest.raises(MalformedInput):
                list(read_events(io.StringIO(line + "\n"), strict=True))

    def test_jsonl_non_finite_numbers_are_malformed(self):
        lines = ['{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', '{"a": 1e400}']
        for line in lines:
            with pytest.raises(MalformedInput, match="finite"):
                list(read_events(io.StringIO(line + "\n"), strict=True))
        seen = []
        fp = io.StringIO('{"a": 1}\n' + "\n".join(lines) + '\n{"a": 1.5}\n')
        events = list(read_events(fp, on_error=seen.append))
        assert [e.get("a") for e in events] == [1, 1.5]
        assert len(seen) == 4 and "line 2" in seen[0] and "line 5" in seen[3]

    def test_csv_non_finite_cells_stay_text(self):
        fp = io.StringIO("a,b,c,d,e\nnan,inf,-Infinity,1e400,2e3\n")
        (event,) = list(read_events(fp, fmt="csv"))
        assert event.as_dict() == {
            "a": "nan", "b": "inf", "c": "-Infinity", "d": "1e400", "e": 2000.0
        }

    def test_csv_coercion(self):
        fp = io.StringIO("name,count,ratio\nalpha,3,0.5\n")
        (event,) = list(read_events(fp, fmt="csv"))
        assert event.get("name") == "alpha"
        assert event.get("count") == 3 and isinstance(event.get("count"), int)
        assert event.get("ratio") == 0.5 and isinstance(event.get("ratio"), float)
        cells = ["12_34", "1_0.5", "\u0663", "\uff11\uff12", "\u0661.\u0665"]
        fp = io.StringIO(",".join(f"c{i}" for i in range(len(cells))) + "\n" + ",".join(cells))
        (event,) = list(read_events(fp, fmt="csv"))
        assert [event.get(f"c{i}") for i in range(len(cells))] == cells

    def test_csv_row_length_mismatch_skipped(self):
        fp = io.StringIO("a,b\n1,2\n1\n3,4\n")
        seen = []
        events = list(read_events(fp, fmt="csv", on_error=seen.append))
        assert [e.get("a") for e in events] == [1, 3]
        assert len(seen) == 1 and "line 3" in seen[0]

    def test_csv_bad_header_fatal(self):
        fp = io.StringIO("a,a\n1,2\n")
        with pytest.raises(MalformedInput):
            list(read_events(fp, fmt="csv"))

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            list(read_events(io.StringIO(""), fmt="xml"))


NOTHING_TO_CUT = {
    "nocut": (
        'pred TypeIsT(x): x.type == "T"\n'
        "pred EqualId(x, y): x.id == y.id\n\n"
        "(TRUE* ; (TypeIsT(~) -> r1) ; TRUE* ; EqualId(~, r1)) within 3\n"
    ),
    "range": (
        "pred Above(x): x.value > 10\n"
        "pred Below(x): x.value < 50\n"
        "pred NotFive(x): x.value != 5\n"
        "pred SameId(x, y): x.id == y.id\n\n"
        "(TRUE* ; ((Above(~) & NotFive(~)) -> r1) ; TRUE* ; (Below(~) & SameId(~, r1))) within 3\n"
    ),
}


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("e1.pat").write_text(E1_TEXT)
    Path("e3.pat").write_text(E3_TEXT)
    Path("events.jsonl").write_text(TABLE1_JSONL)
    Path("events.csv").write_text(TABLE1_CSV)
    return tmp_path


class TestCompileCommand:
    def test_default_stage_writes_document(self, runner, workdir):
        result = runner.invoke(main, ["compile", "e1.pat"])
        assert result.exit_code == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["format"] == "sra"
        assert all(t["condition"] is not None for t in doc["transitions"])

    def test_dsra_stage_pinned_shape(self, runner, workdir):
        result = runner.invoke(main, ["compile", "e3.pat", "--stage", "dsra"])
        assert result.exit_code == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["deterministic"] is True and doc["window"] == 3
        assert len(doc["states"]) == 10 and len(doc["transitions"]) == 12

    @pytest.mark.parametrize(
        "pattern, stage, width, digest",
        [
            ("nocut", "dsra", 4, "5bf57a81f669a4e2224e353505f5b279e48750379d576a2dd1258cba0c651e1a"),
            ("nocut", "complement", 4, "2ea64dfc638595461c947169fa2e82630f12c1392f8b3f65eb8bd11ebd2066c3"),
            ("range", "complement", 3, "8baea6fd4201d9f0929b9820dafa15cf6fad4f5f76bf71f3ad0cad8acfee3018"),
        ],
    )
    def test_documents_with_nothing_to_cut_are_unchanged(
        self, runner, workdir, pattern, stage, width, digest
    ):
        # Digests of the documents written before `minterms` cut conflicting
        # sign vectors; no two positive literals of these patterns conflict.
        Path(f"{pattern}.pat").write_text(NOTHING_TO_CUT[pattern])
        result = runner.invoke(
            main, ["compile", f"{pattern}.pat", "--stage", stage, "--window", str(width)]
        )
        assert result.exit_code == 0, result.stderr
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "pattern, stage, digest",
        [
            ("e3", "sra", "f0a54a59f8858500be086161a7f7d745c0c01ad42b20d40b2557c3e3752fd889"),
            ("e3", "nsra-unrolled", "ee67ea315918ba6428ee5f76e9a9f1739d235aa5b7a9afbaa23a796c00e256a6"),
            ("e1", "sra", "2bed943d3a1c837c291a62a02f60a7703de40105c8634dc311219d82e362733e"),
        ],
    )
    def test_undeterminized_documents_are_pinned(self, runner, workdir, pattern, stage, digest):
        # Digests of what `compile` wrote while documents went through `json.dump`.
        result = runner.invoke(main, ["compile", f"{pattern}.pat", "--stage", stage])
        assert result.exit_code == 0, result.stderr
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "stage, width, doc_digest, dot_digest",
        [
            ("dsra", 1, "00cded714045564b7ad1f1b0012ac3c4c2032e3d67c922aa35f767e8af6ff42c", "66a57682b492cf78b7e129359f889ab0eacc6ed93f9d2240793761a89711289d"),
            ("dsra", 2, "22ed880c7de11ee16b4a04d7cf53ae343c1b4481ddeb386e9a81d0816996534e", "4d2c85c96d8cbbadd9615e8027e7acb40e64d186def9256ea4bc6885c6b99c2f"),
            ("dsra", 3, "84d4889cd94abc2a00569aba6098e2c189625b37cfcb5be5a1523c10abe5c9e3", "bd46681e934169cdd34add2db7390f7a2656db3d11736027a8bced5d8226733a"),
            ("dsra", 4, "e6c133b2447e6faae93ac0f86841f7301fe267cbb7bb577844c115ac8d69a48b", "c4fd8f9972b330cb5b8903fe7402f85ffe31c5355b852f30f4e6114eb51b4910"),
            ("dsra", 5, "91ba6317e16ec803e12ace46c812481f6e927bfb9ac87cf7b1caef00cb33f9f2", "66023a9b7d0333e5151f4a709ebd462ae18f635d3e31654588722bac296d26be"),
            ("dsra", 6, "c7c9044e04ecf1bae1fd77bbf334e970be7834deabec97a04fb6e22a62129fb2", "1cc325fc20ef004c466de0aae54454a1a9cc52bbe9cf5473e20df6621a945779"),
            ("dsra", 7, "681e3a58c9bc070b1c9b8c1e62637aebfdc3e8fb941751e525d2cf7c4db37529", "036b5ca4483365ae8d8bd657a946e4dfd2a27458563c03f16092e86bab36b20f"),
            ("complement", 1, "cdf87c36f8181f11a332cd35130cf596edba879d37193bf5d2e665b5685ed802", "5bcd5f442cb0d2c009f59508f23aa0786d5c1004838c03dedc90e7b68139252c"),
            ("complement", 2, "d2d8d15761f839cc45f15fc11b7f6f1c02935edb3c02e85bd085eef05fd20190", "2f8d1f84f1664874a64678ccc0fec2c6fc93739d038e2c9e3754a8716cc0d925"),
            ("complement", 3, "9ad7c2d5f8ac691b37a1a4271596cfee4bfb089c2857a947406cbf8a3b9ba70c", "dbab65b443936ce3ab37bc01e3e544d2fcdd3122df541bc88b6dda2d65974b3e"),
            ("complement", 4, "34e6d397c6621034cbf56e3643fcfaadab6e78860032864502ce6c5c421288d8", "102c46460ff4bcb541a1f507539eb0c6735310cf68e60658d27d0ff5ea20a97a"),
            ("complement", 5, "c95bea9b611de75602063f5e6f2b1ca624f9b08695db546153140f8758965867", "6128826a254b484d48b5a57a99daecffae0873a013ddefab441b932319a6dd37"),
            ("complement", 6, "514a79dbff75be0ed3e1e75974615f385a0ba0d243ed3347d6c8c6dd89863b7b", "7fecd3c173f3e4ac6d600fb9a64fb33fc22f9d3217aeef1a672638b3dd5b845a"),
            ("complement", 7, "9d16b67c1c88b11c41efe067c3db511a3d280afb2996ca61bbfb071dbc54dc8a", "e4614d048d1920a3a0b242391d66f785e265665116e33d1c0c640d14a1b8c0fd"),
        ],
    )
    def test_documents_and_dot_are_pinned(
        self, runner, workdir, stage, width, doc_digest, dot_digest
    ):
        # Digests of what `compile --dot` wrote before the DOT renderer moved
        # into `serialize` and came to share the document's memo.
        result = runner.invoke(
            main,
            ["compile", "e3.pat", "--stage", stage, "--window", str(width),
             "--out", "a.json", "--dot", "a.dot"],
        )
        assert result.exit_code == 0, result.stderr
        assert result.stdout == ""
        assert hashlib.sha256(Path("a.json").read_bytes()).hexdigest() == doc_digest
        assert hashlib.sha256(Path("a.dot").read_bytes()).hexdigest() == dot_digest

    def test_complement_stage_pinned_shape(self, runner, workdir):
        result = runner.invoke(main, ["compile", "e3.pat", "--stage", "complement"])
        doc = json.loads(result.stdout)
        assert len(doc["states"]) == 11 and len(doc["transitions"]) == 23
        assert len(doc["finals"]) == 7

    def test_window_flag_overrides(self, runner, workdir):
        kept = runner.invoke(main, ["compile", "e3.pat", "--stage", "nsra-unrolled"])
        assert json.loads(kept.stdout)["window"] == 3
        assert len(json.loads(kept.stdout)["states"]) == 8
        result = runner.invoke(
            main, ["compile", "e3.pat", "--stage", "nsra-unrolled", "--window", "2"]
        )
        assert result.exit_code == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["window"] == 2 and len(doc["states"]) == 3

    def test_unrolled_without_window_fails(self, runner, workdir):
        result = runner.invoke(main, ["compile", "e1.pat", "--stage", "nsra-unrolled"])
        assert result.exit_code == 3
        assert "error:" in result.stderr

    def test_syntax_error_exit_code(self, runner, workdir):
        Path("bad.pat").write_text("TRUE ;;\n")
        result = runner.invoke(main, ["compile", "bad.pat"])
        assert result.exit_code == 2 and "error:" in result.stderr

    def test_unknown_predicate_exit_code(self, runner, workdir):
        Path("bad.pat").write_text("Missing(~)\n")
        result = runner.invoke(main, ["compile", "bad.pat"])
        assert result.exit_code == 2 and "Missing" in result.stderr

    def test_unknown_register_exit_code(self, runner, workdir):
        Path("bad.pat").write_text(
            'pred EqualId(x, y): x.id == y.id\n\n(TRUE -> r1) ; EqualId(~, r2)\n'
        )
        result = runner.invoke(main, ["compile", "bad.pat"])
        assert result.exit_code == 2 and "r2" in result.stderr

    def test_out_dot_and_stats(self, runner, workdir):
        result = runner.invoke(
            main,
            ["compile", "e3.pat", "--stage", "dsra",
             "--out", "a.json", "--dot", "a.dot", "--stats"],
        )
        assert result.exit_code == 0
        assert result.stdout == ""
        assert json.loads(Path("a.json").read_text())["deterministic"] is True
        assert Path("a.dot").read_text().startswith("digraph")
        assert "states=10" in result.stderr


class TestRecognizeCommand:
    def test_streaming_matches(self, runner, workdir):
        result = runner.invoke(main, ["recognize", "e1.pat", "--input", "events.jsonl"])
        assert result.exit_code == 0, result.stderr
        assert _indexes(result.stdout) == [4, 5]

    def test_windowed_matches(self, runner, workdir):
        result = runner.invoke(main, ["recognize", "e3.pat", "--input", "events.jsonl"])
        assert result.exit_code == 0, result.stderr
        assert _indexes(result.stdout) == [4]

    def test_window_override_widens(self, runner, workdir):
        result = runner.invoke(
            main, ["recognize", "e3.pat", "--input", "events.jsonl", "--window", "4"]
        )
        assert _indexes(result.stdout) == [4, 5]

    def test_csv_input(self, runner, workdir):
        result = runner.invoke(
            main, ["recognize", "e1.pat", "--input", "events.csv", "--format", "csv"]
        )
        assert _indexes(result.stdout) == [4, 5]

    def test_stdin_input(self, runner, workdir):
        result = runner.invoke(main, ["recognize", "e1.pat"], input=TABLE1_JSONL)
        assert _indexes(result.stdout) == [4, 5]

    @pytest.mark.parametrize(
        "args, stdin",
        [
            (["e1.pat", "--input", "marked.csv", "--format", "csv"], None),
            (["e1.pat", "--format", "csv"], "\ufeff" + TABLE1_CSV),
            (["e1.pat", "--input", "marked.jsonl", "--strict"], None),
            (["e1.pat", "--strict"], "\ufeff" + TABLE1_JSONL),
            (["marked.pat", "--input", "events.jsonl"], None),
        ],
        ids=["csv-file", "csv-stdin", "jsonl-file", "jsonl-stdin", "pattern"],
    )
    def test_byte_order_mark_is_dropped(self, runner, workdir, args, stdin):
        Path("marked.csv").write_text("\ufeff" + TABLE1_CSV, encoding="utf-8")
        Path("marked.jsonl").write_text("\ufeff" + TABLE1_JSONL, encoding="utf-8")
        Path("marked.pat").write_text("\ufeff" + E1_TEXT, encoding="utf-8")
        result = runner.invoke(main, ["recognize", *args], input=stdin)
        assert result.exit_code == 0, result.stderr
        assert result.stderr == ""
        assert _indexes(result.stdout) == [4, 5]

    def test_malformed_line_diagnostic_vs_strict(self, runner, workdir):
        lines = TABLE1_JSONL.splitlines()
        lines.insert(2, "not json")
        Path("dirty.jsonl").write_text("\n".join(lines) + "\n")
        tolerant = runner.invoke(main, ["recognize", "e1.pat", "--input", "dirty.jsonl"])
        assert tolerant.exit_code == 0
        assert _indexes(tolerant.stdout) == [4, 5]
        assert "line 3" in tolerant.stderr
        strict = runner.invoke(
            main, ["recognize", "e1.pat", "--input", "dirty.jsonl", "--strict"]
        )
        assert strict.exit_code == 2

    def test_empty_attribute_name_is_a_malformed_line(self, runner, workdir):
        lines = TABLE1_JSONL.splitlines()
        lines.insert(2, '{"": 1}')
        Path("dirty.jsonl").write_text("\n".join(lines) + "\n")
        tolerant = runner.invoke(main, ["recognize", "e1.pat", "--input", "dirty.jsonl"])
        assert tolerant.exit_code == 0, tolerant.stderr
        assert _indexes(tolerant.stdout) == [4, 5]
        assert "line 3" in tolerant.stderr
        strict = runner.invoke(
            main, ["recognize", "e1.pat", "--input", "dirty.jsonl", "--strict"]
        )
        assert strict.exit_code == 2

    def test_non_finite_value_is_a_malformed_line(self, runner, workdir):
        lines = TABLE1_JSONL.splitlines()
        lines.insert(2, '{"type": "T", "id": NaN, "value": 1}')
        Path("dirty.jsonl").write_text("\n".join(lines) + "\n")
        tolerant = runner.invoke(main, ["recognize", "e1.pat", "--input", "dirty.jsonl"])
        assert tolerant.exit_code == 0, tolerant.stderr
        assert _indexes(tolerant.stdout) == [4, 5]
        assert "line 3" in tolerant.stderr and "finite" in tolerant.stderr
        strict = runner.invoke(
            main, ["recognize", "e1.pat", "--input", "dirty.jsonl", "--strict"]
        )
        assert strict.exit_code == 2

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"type": "T", "id": ' + "9" * 5000 + "}", "too many digits"),
            ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ],
        ids=["long-integer", "deep-arrays"],
    )
    def test_undecodable_json_is_a_malformed_line(self, runner, workdir, line, reason):
        # past Python's integer-string digit limit, and past its recursion limit
        lines = TABLE1_JSONL.splitlines()
        lines.insert(2, line)
        Path("dirty.jsonl").write_text("\n".join(lines) + "\n")
        tolerant = runner.invoke(main, ["recognize", "e1.pat", "--input", "dirty.jsonl"])
        assert tolerant.exit_code == 0, tolerant.output
        assert _indexes(tolerant.stdout) == [4, 5]
        assert "line 3" in tolerant.stderr and reason in tolerant.stderr
        strict = runner.invoke(
            main, ["recognize", "e1.pat", "--input", "dirty.jsonl", "--strict"]
        )
        assert strict.exit_code == 2 and "line 3" in strict.stderr

    def test_csv_cell_past_the_field_limit_is_a_malformed_row(self, runner, workdir):
        rows = TABLE1_CSV.splitlines()
        rows.insert(3, "T,2," + "9" * (csv.field_size_limit() + 1))
        Path("dirty.csv").write_text("\n".join(rows) + "\n")
        args = ["recognize", "e1.pat", "--input", "dirty.csv", "--format", "csv"]
        tolerant = runner.invoke(main, args)
        assert tolerant.exit_code == 0, tolerant.output
        assert _indexes(tolerant.stdout) == [4, 5]
        assert "line 4" in tolerant.stderr and "field limit" in tolerant.stderr
        strict = runner.invoke(main, [*args, "--strict"])
        assert strict.exit_code == 2 and "line 4" in strict.stderr
        Path("dirty.csv").write_text("x" * (csv.field_size_limit() + 1) + "\n" + TABLE1_CSV)
        header = runner.invoke(main, args)
        assert header.exit_code == 2 and "bad CSV header" in header.stderr

    def test_report_empty_match(self, runner, workdir):
        Path("any.pat").write_text("TRUE*\n")
        result = runner.invoke(
            main,
            ["recognize", "any.pat", "--input", "events.jsonl", "--report-empty-match"],
        )
        assert _indexes(result.stdout) == [0, 1, 2, 3, 4, 5, 6]
        plain = runner.invoke(main, ["recognize", "any.pat", "--input", "events.jsonl"])
        assert _indexes(plain.stdout) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("text", ["TRUE*", "EPS"], ids=["star", "epsilon"])
    def test_report_empty_match_windowed(self, runner, workdir, text):
        # the windowed machine's clock states are final when the body
        # matches the empty string
        Path("any.pat").write_text(text + "\n")
        args = ["recognize", "any.pat", "--input", "events.jsonl", "--window", "2"]
        result = runner.invoke(main, [*args, "--report-empty-match"])
        assert result.exit_code == 0, result.stderr
        assert _indexes(result.stdout) == [0, 1, 2, 3, 4, 5, 6]
        assert _indexes(runner.invoke(main, args).stdout) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("joiner", [" ; ", " & "])
    def test_nesting_bound(self, runner, workdir, joiner):
        declarations = 'pred TypeIsT(x): x.type == "T"\n\n'
        Path("deep.pat").write_text(declarations + joiner.join(["TypeIsT(~)"] * 1500))
        result = runner.invoke(main, ["recognize", "deep.pat", "--input", "events.jsonl"])
        assert result.exit_code == 2
        assert f"at most {MAX_NESTING}" in result.stderr
        at_bound = joiner.join(["TypeIsT(~)"] * (MAX_NESTING - 1))
        Path("deep.pat").write_text(declarations + at_bound)
        for command in ("recognize", "oracle"):
            result = runner.invoke(main, [command, "deep.pat", "--input", "events.jsonl"])
            assert result.exit_code == 0, result.stderr

    def test_cap_exceeded(self, runner, workdir):
        result = runner.invoke(
            main, ["recognize", "e1.pat", "--input", "events.jsonl", "--cap", "1"]
        )
        assert result.exit_code == 4

    def test_cap_bounds_only_the_unwindowed_engine(self, runner, workdir):
        # a windowed pattern runs one configuration of its subset machine
        Path("stream.jsonl").write_text(TABLE1_JSONL * 50)
        args = ["recognize", "e3.pat", "--input", "stream.jsonl", "--window", "4"]
        capped = runner.invoke(main, [*args, "--cap", "1"])
        assert capped.exit_code == 0, capped.stderr
        assert capped.stdout == runner.invoke(main, args).stdout
        assert len(_indexes(capped.stdout)) == 100

    def test_windowed_recognize_cuts_no_event(self, runner, workdir, monkeypatch):
        # one configuration, never deduplicated, keeps its events whole;
        # the unwindowed engine deduplicates, so it still cuts them
        Path("stream.jsonl").write_text(TABLE1_JSONL * 50)
        windowed = ["recognize", "e3.pat", "--input", "stream.jsonl", "--window", "4"]
        unwindowed = ["recognize", "e1.pat", "--input", "stream.jsonl"]
        expected = [runner.invoke(main, args).stdout for args in (windowed, unwindowed)]
        cuts = []
        original = Event.project
        monkeypatch.setattr(Event, "project", lambda ev, names: cuts.append(ev) or original(ev, names))
        result = runner.invoke(main, windowed)
        assert result.exit_code == 0, result.stderr
        assert result.stdout == expected[0] and len(_indexes(result.stdout)) == 100
        assert cuts == []
        assert runner.invoke(main, unwindowed).stdout == expected[1] and cuts


class TestPipelineCommands:
    def test_determinize_pattern(self, runner, workdir):
        result = runner.invoke(main, ["determinize", "e3.pat"])
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.stdout)["deterministic"] is True

    def test_determinize_needs_window(self, runner, workdir):
        result = runner.invoke(main, ["determinize", "e1.pat"])
        assert result.exit_code == 3

    def test_determinize_saved_automaton(self, runner, workdir):
        save = runner.invoke(
            main, ["compile", "e3.pat", "--stage", "nsra-unrolled", "--out", "u.json"]
        )
        assert save.exit_code == 0
        result = runner.invoke(main, ["determinize", "--automaton", "u.json"])
        assert result.exit_code == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["deterministic"] is True and len(doc["states"]) == 10

    def test_a_document_names_the_declaration_its_pattern_parsed(self, runner, workdir):
        # P(x) and P(y) declare equal predicates. While the atom of the
        # first pattern lives, the second pattern's document still writes
        # the second's own declaration line.
        first = parse('pred P(x): x.v == 1\n\nP(~) within 2\n')
        Path("p.pat").write_text('pred P(y): y.v == 1\n\nP(~) within 2\n')
        result = runner.invoke(main, ["determinize", "p.pat"])
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.stdout)["predicates"] == ["pred P(y): y.v == 1"]
        assert first[1].body.condition.predicate.source == "pred P(x): x.v == 1"

    def test_float_literals_survive_a_saved_document(self, runner, workdir):
        Path("tiny.pat").write_text(
            "pred Tiny(x): x.value > 0.00001\n"
            "pred Huge(x): x.value < 100000000000000000000.0\n\n"
            "(Tiny(~) ; Huge(~)) within 2\n"
        )
        save = runner.invoke(
            main, ["compile", "tiny.pat", "--stage", "nsra-unrolled", "--out", "u.json"]
        )
        assert save.exit_code == 0, save.stderr
        result = runner.invoke(main, ["determinize", "--automaton", "u.json"])
        assert result.exit_code == 0, result.stderr

    def test_document_missing_a_key(self, runner, workdir):
        runner.invoke(main, ["compile", "e3.pat", "--stage", "nsra-unrolled", "--out", "u.json"])
        doc = json.loads(Path("u.json").read_text())
        del doc["window"]
        Path("u.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["determinize", "--automaton", "u.json"])
        assert result.exit_code == 2
        assert "error:" in result.stderr and "window" in result.stderr
        Path("u.json").write_text("not json")
        result = runner.invoke(main, ["determinize", "--automaton", "u.json"])
        assert result.exit_code == 2 and "error:" in result.stderr

    def test_document_condition_nested_too_deeply(self, runner, workdir):
        runner.invoke(main, ["compile", "e3.pat", "--stage", "nsra-unrolled", "--out", "u.json"])
        doc = json.loads(Path("u.json").read_text())
        t = doc["transitions"][0]
        t["condition"] = "(" * 1500 + t["condition"] + ")" * 1500
        Path("u.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["determinize", "--automaton", "u.json"])
        assert result.exit_code == 2
        assert "nest too deeply" in result.stderr

    @pytest.mark.parametrize("command", ["determinize", "forecast"])
    @pytest.mark.parametrize("nesting", ["arrays", "negations"])
    def test_saved_document_nested_too_deeply_exits_2(self, runner, workdir, command, nesting):
        if command == "determinize":
            runner.invoke(main, ["compile", "e3.pat", "--stage", "nsra-unrolled", "--out", "a.json"])
            args = ["determinize", "--automaton", "a.json"]
        else:
            runner.invoke(main, ["learn", "e3.pat", "--train", "events.jsonl", "--max-order", "1",
                                 "--out", "a.json"])
            args = ["forecast", "--model", "a.json", "--input", "events.jsonl"]
        if nesting == "arrays":
            Path("a.json").write_text("[" * 100_000 + "]" * 100_000)
        else:
            doc = json.loads(Path("a.json").read_text())
            t = (doc if command == "determinize" else doc["automaton"])["transitions"][0]
            t["condition"] = "!" * 700 + "(" + t["condition"] + ")"
            Path("a.json").write_text(json.dumps(doc))
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        wanted = "not a JSON document" if nesting == "arrays" else "nest too deeply"
        assert wanted in result.stderr

    def test_unwindowed_pattern_fails_alike_everywhere(self, runner, workdir):
        # every route to an unrolled machine goes through compile_windowed
        for args in (
            ["compile", "e1.pat", "--stage", "nsra-unrolled"],
            ["compile", "e1.pat", "--stage", "dsra"],
            ["compile", "e1.pat", "--stage", "complement"],
            ["determinize", "e1.pat"],
            ["complement", "e1.pat"],
            ["learn", "e1.pat", "--train", "events.jsonl", "--out", "model.json"],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 3, (args, result.output)
            assert result.stderr == (
                "error: unrolling needs a window (use 'within N' or --window)\n"
            ), args
            assert result.stdout == ""

    def test_precondition_failures_exit_3(self, runner, workdir):
        runner.invoke(main, ["compile", "e3.pat", "--stage", "nsra-unrolled", "--out", "u.json"])
        result = runner.invoke(main, ["complement", "--automaton", "u.json"])
        assert result.exit_code == 3 and "error:" in result.stderr

    def test_complement_of_a_document_with_epsilon_moves_exits_3(self, runner, workdir):
        runner.invoke(main, ["compile", "e3.pat", "--stage", "dsra", "--out", "d.json"])
        doc = json.loads(Path("d.json").read_text())
        doc["transitions"].append(
            {"source": doc["start"], "target": doc["start"], "condition": None, "writes": []}
        )
        Path("d.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["complement", "--automaton", "d.json"])
        assert result.exit_code == 3 and "epsilon" in result.stderr

    def test_document_with_integer_state_names_exits_2(self, runner, workdir):
        save = runner.invoke(main, ["determinize", "e3.pat", "--window", "3", "--out", "d.json"])
        assert save.exit_code == 0, save.stderr
        doc = json.loads(Path("d.json").read_text())
        number = {name: index for index, name in enumerate(doc["states"])}
        doc["states"] = list(number.values())
        doc["start"] = number[doc["start"]]
        doc["finals"] = [number[q] for q in doc["finals"]]
        for t in doc["transitions"]:
            t["source"], t["target"] = number[t["source"]], number[t["target"]]
        Path("d.json").write_text(json.dumps(doc))
        for command in ("complement", "to-srem"):
            result = runner.invoke(main, [command, "--automaton", "d.json"])
            assert result.exit_code == 2, (command, result.output)
            assert "names must be strings" in result.stderr

    def test_precondition_errors_share_one_base(self):
        for cls in (NotWindowed, NotUnrolled, NotDeterministic, NotComplete, WindowedInput,
                    UnverifiableDeterminism, NoTransition):
            assert issubclass(cls, PreconditionFailed), cls
        assert issubclass(NoTransition, RuntimeError)

    def test_pattern_and_automaton_are_exclusive(self, runner, workdir):
        result = runner.invoke(main, ["determinize", "e3.pat", "--automaton", "u.json"])
        assert result.exit_code == 2

    def test_complement_pattern(self, runner, workdir):
        result = runner.invoke(main, ["complement", "e3.pat"])
        doc = json.loads(result.stdout)
        assert len(doc["finals"]) == 7 and len(doc["states"]) == 11
        assert len(doc["transitions"]) == 23

    def test_complement_saved_dsra(self, runner, workdir):
        runner.invoke(main, ["compile", "e3.pat", "--stage", "dsra", "--out", "d.json"])
        result = runner.invoke(main, ["complement", "--automaton", "d.json"])
        assert result.exit_code == 0, result.stderr
        assert len(json.loads(result.stdout)["finals"]) == 7

    def test_complement_saved_dsra_with_a_byte_order_mark(self, runner, workdir):
        runner.invoke(main, ["compile", "e3.pat", "--stage", "dsra", "--out", "d.json"])
        Path("marked.json").write_text(
            "\ufeff" + Path("d.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
        plain = runner.invoke(main, ["complement", "--automaton", "d.json"])
        marked = runner.invoke(main, ["complement", "--automaton", "marked.json"])
        assert marked.exit_code == 0, marked.stderr
        assert marked.stdout == plain.stdout

    def test_to_srem_round_trip(self, runner, workdir):
        result = runner.invoke(main, ["to-srem", "e1.pat"])
        assert result.exit_code == 0, result.stderr
        library, back = parse(result.stdout)
        _, original = parse(E1_TEXT)
        stream = make_table1()
        for n in range(7):
            assert accepts(back, stream[:n]) == accepts(original, stream[:n])

    def test_to_srem_saved_automaton(self, runner, workdir):
        runner.invoke(main, ["compile", "e1.pat", "--out", "a.json"])
        result = runner.invoke(main, ["to-srem", "--automaton", "a.json"])
        assert result.exit_code == 0, result.stderr
        _, back = parse(result.stdout)
        _, original = parse(E1_TEXT)
        stream = make_table1()
        for n in range(7):
            assert accepts(back, stream[:n]) == accepts(original, stream[:n])

    def test_to_srem_of_a_wide_complement(self, runner, workdir, monkeypatch):
        # The complement's pattern alternates over about a thousand minterms.
        # That nests past MAX_NESTING, so the printed pattern is read back,
        # and its derivatives taken, with the nesting bound and the
        # recursion limit raised.
        declarations = "".join(f"pred A{i}(x): x.a{i} == 1\n" for i in range(10))
        alternatives = " + ".join(f"A{i}(~)" for i in range(10))
        Path("wide.pat").write_text(f"{declarations}\n({alternatives}) within 1\n")
        assert runner.invoke(main, ["complement", "wide.pat", "--out", "c.json"]).exit_code == 0
        result = runner.invoke(main, ["to-srem", "--automaton", "c.json"])
        assert result.exit_code == 0, result.output
        a, _ = serialize.automaton_from_doc(serialize.load("c.json"))
        events = [
            Event.of(**{f"a{i}": int(i in ones) for i in range(10)})
            for ones in ((), (0,), (9,), (3, 7))
        ]
        monkeypatch.setattr("cerf.pattern.MAX_NESTING", 4000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(4000)
        try:
            _, back = parse(result.stdout)
            oracle = Oracle(back)
            for n in range(3):
                for string in itertools.product(events, repeat=n):
                    pairs = oracle.start()
                    for event in string:
                        pairs = oracle.step(pairs, event)
                    assert bool(Oracle.derived(pairs)) == run_accepts(a, list(string))
        finally:
            sys.setrecursionlimit(limit)


_LEARN = ["learn", "e3.pat", "--train", "train.jsonl", "--out", "model.json"]
_OPTIONS = [("--gamma", "1.5"), ("--gamma", "nan"), ("--p-min", "-1"), ("--ratio", "0"),
            ("--alpha", "-1"), ("--window", "0"), ("--format", "xml")]


class TestLearnAndForecast:
    def _train_file(self, copies=200):
        rows = TABLE1_JSONL * copies
        Path("train.jsonl").write_text(rows)

    def test_learn_writes_model(self, runner, workdir):
        self._train_file()
        result = runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
             "--out", "model.json"],
        )
        assert result.exit_code == 0, result.stderr
        assert "trained on 1200 symbols" in result.stderr
        doc = json.loads(Path("model.json").read_text())
        assert doc["format"] == "cerf-model"
        for node in doc["pst"]["nodes"]:
            total = sum(p for _, p in node["distribution"].items())
            assert abs(total - 1.0) < 1e-9

    def test_model_reload_is_bit_exact(self, runner, workdir):
        self._train_file()
        runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
             "--out", "model.json"],
        )
        doc = serialize.load("model.json")
        serialize.dump(doc, "again.json")
        assert Path("model.json").read_bytes() == Path("again.json").read_bytes()

    def test_learned_model_is_pinned(self, runner, workdir):
        # Digest of the model `learn` wrote while documents went through
        # `json.dump`; its tree holds probabilities that are not round.
        rng = random.Random(23)
        Path("train.jsonl").write_text("".join(
            json.dumps({"type": rng.choice("TH"), "id": rng.randint(1, 3),
                        "value": rng.randint(0, 99)}) + "\n"
            for _ in range(2000)
        ))
        result = runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--window", "4", "--max-order", "3",
             "--out", "model.json"],
        )
        assert result.exit_code == 0, result.stderr
        digest = hashlib.sha256(Path("model.json").read_bytes()).hexdigest()
        assert digest == "17cb6dc605455ad1f26ca5b213b9f11beee0fa2280aa5c6b76b59cb4bb345e96"

    def test_learn_insufficient_data(self, runner, workdir):
        self._train_file(copies=1)
        result = runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "50",
             "--out", "model.json"],
        )
        assert result.exit_code == 5

    def test_learn_symbolizes_events_as_it_reads_them(self, runner, workdir, monkeypatch):
        # symbolize gets the one-pass event reader, not a list of events
        from cerf.forecast import symbolize

        given = []

        def recording(d, events, symbol_map):
            given.append(events)
            return symbolize(d, events, symbol_map)

        monkeypatch.setattr("cerf.forecast.symbolize", recording)
        self._train_file()
        result = runner.invoke(
            main, ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
                   "--out", "model.json"]
        )
        assert result.exit_code == 0, result.stderr
        assert len(given) == 1 and iter(given[0]) is given[0]

    def test_learn_reports_skipped_lines_before_its_summary(self, runner, workdir):
        Path("train.jsonl").write_text(
            TABLE1_JSONL * 3 + "{not json\n" + TABLE1_JSONL + "[1]\n" + TABLE1_JSONL
        )
        result = runner.invoke(
            main, ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
                   "--out", "model.json"]
        )
        assert result.exit_code == 0, result.stderr
        assert result.stderr == (
            "line 19: invalid JSON (Expecting property name enclosed in double quotes)\n"
            "line 26: expected a non-empty JSON object\n"
            "trained on 30 symbols, tree has 5 contexts\n"
        )

    def test_nine_alternatives_learn_and_forecast(self, runner, workdir):
        # `complete` guards the start state with one chain of 511 negated
        # minterms, which the symbol map hashes
        declarations = "".join(f"pred A{i}(x): x.a{i} == 1\n" for i in range(9))
        alternatives = " + ".join(f"A{i}(~)" for i in range(9))
        Path("wide.pat").write_text(f"{declarations}\n({alternatives}) within 1\n")
        rng = random.Random(7)
        Path("wide.jsonl").write_text("".join(
            json.dumps({f"a{i}": rng.randint(0, 1) for i in range(9)}) + "\n" for _ in range(50)
        ))
        learned = runner.invoke(
            main,
            ["learn", "wide.pat", "--train", "wide.jsonl", "--max-order", "1",
             "--out", "model.json"],
        )
        assert learned.exit_code == 0, learned.output
        result = runner.invoke(main, ["forecast", "--model", "model.json", "--input", "wide.jsonl"])
        assert result.exit_code == 0, result.output
        assert _indexes(result.stdout) == list(range(1, 51))

    def test_forecast_stream(self, runner, workdir):
        self._train_file()
        runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
             "--out", "model.json"],
        )
        result = runner.invoke(
            main,
            ["forecast", "--model", "model.json", "--input", "events.jsonl",
             "--emit-dist", "--horizon", "8"],
        )
        assert result.exit_code == 0, result.stderr
        records = [json.loads(line) for line in result.stdout.splitlines()]
        assert [r["index"] for r in records] == [1, 2, 3, 4, 5, 6]
        for r in records:
            assert isinstance(r["classification"], bool)
            assert 1 <= r["regression"] <= 8
            assert abs(sum(r["dist"]) + r["residual"] - 1.0) < 1e-9
        replay = runner.invoke(
            main,
            ["forecast", "--model", "model.json", "--input", "events.jsonl",
             "--emit-dist", "--horizon", "8"],
        )
        assert replay.stdout == result.stdout

    @pytest.mark.parametrize("horizon, window, threshold", [(16, 2, 0.3), (12, 5, 0.45)])
    def test_forecast_records_are_what_json_dumps_makes(
        self, runner, workdir, horizon, window, threshold
    ):
        # acceptance 08's Markov source keeps the run off the dead state for
        # 40 events, so the distributions hold many distinct floats
        def write(path, symbols):
            Path(path).write_text("".join(json.dumps({"kind": s.upper()}) + "\n" for s in symbols))

        write("train.jsonl", markov2_symbols(random.Random(88), 1200))
        write("held.jsonl", markov2_symbols(random.Random(89), 60))
        Path("aba.pat").write_text(
            'pred KindA(x): x.kind == "A"\npred KindB(x): x.kind == "B"\n\n'
            "(TRUE* ; KindA(~) ; KindB(~) ; KindA(~)) within 40\n"
        )
        learned = runner.invoke(
            main, ["learn", "aba.pat", "--train", "train.jsonl", "--max-order", "2",
                   "--out", "model.json"]
        )
        assert learned.exit_code == 0, learned.stderr
        with open("model.json") as fp:
            d, symbol_map, pst, _ = serialize.model_from_doc(serialize.load(fp))
        for emit_dist in (False, True):
            # each record built and dumped as a dict, event by event
            run, waits = DeterministicRunner(d), WaitingTimes(d, symbol_map, pst, horizon)
            history, expected = [], []
            with open("held.jsonl") as fp:
                for index, event in enumerate(read_events(fp), start=1):
                    history.append(symbol_map.symbol_for(run.step(event).condition))
                    wd = waits(run.state, history)
                    record = {
                        "index": index,
                        "regression": forecast_regression(wd),
                        "classification": forecast_classification(wd, window, threshold),
                    }
                    if emit_dist:
                        record["dist"] = list(wd.masses)
                        record["residual"] = wd.residual
                    expected.append(json.dumps(record) + "\n")
            args = ["forecast", "--model", "model.json", "--input", "held.jsonl",
                    "--horizon", str(horizon), "--classify-window", str(window),
                    "--threshold", str(threshold)]
            result = runner.invoke(main, args + ["--emit-dist"] * emit_dist)
            assert result.exit_code == 0, result.stderr
            assert result.stdout == "".join(expected)
        masses = {m for line in expected for m in json.loads(line)["dist"]}
        assert len(masses) > 50
        assert {json.loads(line)["classification"] for line in expected} == {True, False}

    def test_forecast_threshold_flags(self, runner, workdir):
        self._train_file()
        runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
             "--out", "model.json"],
        )
        low = runner.invoke(
            main,
            ["forecast", "--model", "model.json", "--input", "events.jsonl",
             "--classify-window", "8", "--threshold", "0.0"],
        )
        records = [json.loads(line) for line in low.stdout.splitlines()]
        assert all(r["classification"] for r in records)


    def test_incomplete_model_exits_3(self, runner, workdir):
        self._train_file()
        runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
             "--out", "model.json"],
        )
        doc = json.loads(Path("model.json").read_text())
        automaton = doc["automaton"]
        automaton["transitions"] = [
            t for t in automaton["transitions"] if t["source"] != automaton["start"]
        ]
        Path("model.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["forecast", "--model", "model.json", "--input", "events.jsonl"])
        assert result.exit_code == 3 and "no transition fires" in result.stderr

    def test_model_with_a_nan_probability_exits_2(self, runner, workdir):
        self._train_file()
        runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
             "--out", "model.json"],
        )
        doc = json.loads(Path("model.json").read_text())
        dist = doc["pst"]["nodes"][-1]["distribution"]
        dist[next(iter(dist))] = float("nan")
        Path("model.json").write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["forecast", "--model", "model.json", "--input", "events.jsonl", "--emit-dist"]
        )
        assert result.exit_code == 2 and result.stdout == ""
        assert "not a finite number" in result.stderr

    # a true order loads as order 1 when every context fits it
    @pytest.mark.parametrize("learned, value", [("2", 3.5), ("1", True)])
    def test_model_with_a_non_integer_max_order_exits_2(self, runner, workdir, learned, value):
        self._train_file()
        runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", learned,
             "--out", "model.json"],
        )
        doc = json.loads(Path("model.json").read_text())
        doc["pst"]["max_order"] = value
        Path("model.json").write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["forecast", "--model", "model.json", "--input", "events.jsonl", "--emit-dist"]
        )
        assert result.exit_code == 2 and result.stdout == ""
        assert "max_order must be a non-negative integer" in result.stderr

    def test_model_missing_a_symbol_exits_2(self, runner, workdir):
        self._train_file()
        runner.invoke(
            main,
            ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "2",
             "--out", "model.json"],
        )
        doc = json.loads(Path("model.json").read_text())
        dropped = doc["symbol_map"].pop()
        Path("model.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["forecast", "--model", "model.json", "--input", "events.jsonl"])
        assert result.exit_code == 2
        assert "no symbol for " + dropped["condition"] in result.stderr


    @pytest.mark.parametrize(
        "args, named",
        [
            *(([*_LEARN, option, value], option) for option, value in _OPTIONS),
            (["learns", "e3.pat", "--train", "train.jsonl", "--out", "model.json"], "learns"),
            (_LEARN[:1] + _LEARN[2:], "PATTERN"),
            (["learn", "adir", *_LEARN[2:]], "adir"),
            ([*_LEARN[:3], "missing.jsonl", *_LEARN[4:]], "missing.jsonl"),
            (["oracle", "e3.pat", "--input", "events.jsonl", "--max-len", "-1"], "--max-len"),
        ],
        ids=[*(f"{option}-{value}" for option, value in _OPTIONS), "unknown-command",
             "no-pattern", "directory-pattern", "missing-train", "oracle---max-len--1"],
    )
    def test_learn_option_out_of_range_exits_2(self, runner, workdir, args, named):
        # and every other usage error: it exits 2 with one error line, after
        # the usage, that names the argument or path at fault
        self._train_file()
        Path("adir").mkdir()
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and result.stdout == ""
        assert "Traceback" not in result.stderr
        assert named in result.stderr.splitlines()[-1]
        assert not Path("model.json").exists()

    def test_classify_window_beyond_horizon_exits_2_before_reading(self, runner, workdir):
        Path("model.json").write_text("not json")
        result = runner.invoke(
            main,
            ["forecast", "--model", "model.json", "--input", "events.jsonl",
             "--classify-window", "40", "--horizon", "32"],
        )
        assert result.exit_code == 2
        assert "--classify-window" in result.stderr and "--horizon" in result.stderr
        assert "not a JSON document" not in result.stderr

    def test_internal_value_error_is_not_exit_3(self, runner, workdir, monkeypatch):
        def broken(*_args):
            raise ValueError("internal fault")

        monkeypatch.setattr("cerf.forecast.symbolize", broken)
        self._train_file()
        result = runner.invoke(
            main, ["learn", "e3.pat", "--train", "train.jsonl", "--out", "model.json"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)


class TestOracleCommand:
    def test_csv_and_jsonl_streams_agree(self, runner, workdir):
        Path("ids.pat").write_text(
            'pred Joined(x): x.id == "12_34"\npred Arabic(x): x.id == "\u0663"\n\n'
            "Joined(~) ; Arabic(~)\n",
            encoding="utf-8",
        )
        Path("ids.csv").write_text("type,id\nT,12_34\nT,\u0663\n", encoding="utf-8")
        Path("ids.jsonl").write_text(
            '{"type": "T", "id": "12_34"}\n{"type": "T", "id": "\\u0663"}\n'
        )
        verdicts = [
            runner.invoke(main, ["oracle", "ids.pat", "--input", f"ids.{fmt}", "--format", fmt])
            for fmt in ("csv", "jsonl")
        ]
        assert [(r.exit_code, r.stdout) for r in verdicts] == [(0, '{"accepts": true}\n')] * 2

    def test_repeated_predicate_name_exits_2(self, runner, workdir):
        Path("dup.pat").write_text("pred P(x): x.a == 1\npred P(x): x.a == 1\n\nP(~)\n")
        result = runner.invoke(main, ["oracle", "dup.pat", "--input", "events.jsonl"])
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr == "error: line 2, column 6: predicate P is already declared\n"

    def test_membership(self, runner, workdir):
        full = runner.invoke(main, ["oracle", "e1.pat", "--input", "events.jsonl"])
        assert json.loads(full.stdout) == {"accepts": False}
        Path("first5.jsonl").write_text(
            "".join(TABLE1_JSONL.splitlines(keepends=True)[:5])
        )
        first5 = runner.invoke(main, ["oracle", "e1.pat", "--input", "first5.jsonl"])
        assert json.loads(first5.stdout) == {"accepts": True}
        Path("first3.jsonl").write_text(
            "".join(TABLE1_JSONL.splitlines(keepends=True)[:3])
        )
        first3 = runner.invoke(main, ["oracle", "e1.pat", "--input", "first3.jsonl"])
        assert json.loads(first3.stdout) == {"accepts": False}

    def test_long_stream(self, runner, workdir, monkeypatch):
        Path("star.pat").write_text('pred TypeIsT(x): x.type == "T"\n\nTypeIsT(~)*\n')
        Path("long.jsonl").write_text('{"type": "T"}\n' * 20_000)
        live = []
        step = Oracle.step

        def counted(self, pairs, event):
            pairs = step(self, pairs, event)
            live.append(len(pairs))
            return pairs

        monkeypatch.setattr(Oracle, "step", counted)
        started = time.monotonic()
        result = runner.invoke(main, ["oracle", "star.pat", "--input", "long.jsonl"])
        elapsed = time.monotonic() - started
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.stdout) == {"accepts": True}
        assert len(live) == 20_000 and max(live) == 1
        # the span-memo oracle took 3.4 s on 1,200 of these events
        assert elapsed < 10.0

    def test_enumerate_walks_long_prefixes_without_recursion(self, runner, workdir):
        Path("star.pat").write_text('pred TypeIsT(x): x.type == "T"\n\nTypeIsT(~)*\n')
        Path("one.jsonl").write_text('{"type": "T"}\n')
        result = runner.invoke(
            main,
            ["oracle", "star.pat", "--enumerate", "--universe", "one.jsonl",
             "--max-len", "3000", "--sample", "3", "--seed", "1"],
        )
        assert result.exit_code == 0, result.stderr
        records = [json.loads(line) for line in result.stdout.splitlines()]
        picked = random.Random(1).sample(range(3001), 3)
        assert [len(r["events"]) for r in records] == picked
        assert all(r["accepts"] for r in records)

    def test_enumerate_counts_and_payloads(self, runner, workdir):
        Path("universe.jsonl").write_text(
            '{"type": "T", "id": 1, "value": 22}\n{"type": "H", "id": 1, "value": 70}\n'
        )
        result = runner.invoke(
            main,
            ["oracle", "e1.pat", "--enumerate", "--universe", "universe.jsonl",
             "--max-len", "2"],
        )
        assert result.exit_code == 0, result.stderr
        records = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(records) == 7
        assert records[0]["events"] == [] and records[0]["accepts"] is False
        accepted = [r["events"] for r in records if r["accepts"]]
        assert accepted == [
            [{"type": "T", "id": 1, "value": 22}, {"type": "H", "id": 1, "value": 70}]
        ]

    def test_enumerate_sampling_is_seeded(self, runner, workdir):
        Path("universe.jsonl").write_text(
            '{"type": "T", "id": 1, "value": 22}\n{"type": "H", "id": 1, "value": 70}\n'
        )
        args = ["oracle", "e1.pat", "--enumerate", "--universe", "universe.jsonl",
                "--max-len", "3", "--sample", "5", "--seed", "9"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.stdout == second.stdout
        assert len(first.stdout.splitlines()) == 5

    @staticmethod
    def _four_event_universe():
        rows = [{"type": t, "id": i, "value": 1} for t in "TH" for i in (1, 2)]
        Path("universe.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        return [Event.from_mapping(r) for r in rows]

    def test_enumerate_sample_draws_from_the_full_list(self, runner, workdir):
        universe = self._four_event_universe()
        _, expr = parse(E1_TEXT)
        strings = [list(s) for n in range(4) for s in itertools.product(universe, repeat=n)]
        args = ["oracle", "e1.pat", "--enumerate", "--universe", "universe.jsonl",
                "--max-len", "3"]

        def lines(picked):
            return [
                json.dumps({"events": [e.as_dict() for e in s], "accepts": accepts(expr, s)})
                for s in picked
            ]

        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.stderr
        assert result.stdout.splitlines() == lines(strings)
        for seed, size in ((0, 1), (3, 5), (7, 40), (11, 84)):
            result = runner.invoke(main, args + ["--sample", str(size), "--seed", str(seed)])
            assert result.exit_code == 0, result.stderr
            assert result.stdout.splitlines() == lines(random.Random(seed).sample(strings, size))

    def test_enumerate_sample_does_not_build_every_string(self, runner, workdir):
        self._four_event_universe()
        args = ["oracle", "e1.pat", "--enumerate", "--universe", "universe.jsonl",
                "--max-len", "9", "--sample", "5"]
        tracemalloc.start()
        try:
            result = runner.invoke(main, args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.stderr
        assert len(result.stdout.splitlines()) == 5
        # all 349,525 strings as lists would take tens of megabytes
        assert peak < 5_000_000

    def test_enumerate_steps_each_configuration_and_event_once(self, runner, workdir, monkeypatch):
        universe = self._four_event_universe()
        step = Oracle.step
        oracles, calls = [], []

        def counted(self, pairs, event):
            oracles.append(self)
            calls.append((pairs, universe.index(event)))
            return step(self, pairs, event)

        monkeypatch.setattr(Oracle, "step", counted)
        args = ["oracle", "e1.pat", "--enumerate", "--universe", "universe.jsonl"]
        result = runner.invoke(main, args + ["--max-len", "5"])
        assert result.exit_code == 0, result.stderr
        assert len(result.stdout.splitlines()) == 1365
        # every configuration a string shorter than 5 reaches, on every event
        oracle = oracles[0]
        reached = frontier = {oracle.start()}
        for _ in range(4):
            frontier = {step(oracle, c, ev) for c in frontier for ev in universe} - reached
            reached = reached | frontier
        assert set(oracles) == {oracle}
        assert len(calls) == len(set(calls))
        assert set(calls) == {(c, i) for c in reached for i in range(len(universe))}
        calls.clear()
        result = runner.invoke(main, args + ["--max-len", "9", "--sample", "200", "--seed", "4"])
        assert result.exit_code == 0, result.stderr
        assert len(calls) == len(set(calls)) > 0

    def test_enumerate_long_strings_in_full(self, runner, workdir, monkeypatch):
        Path("star.pat").write_text('pred TypeIsT(x): x.type == "T"\n\nTypeIsT(~)*\n')
        Path("one.jsonl").write_text('{"type": "T"}\n')
        steps = []
        step = Oracle.step

        def counted(self, pairs, event):
            steps.append(event)
            return step(self, pairs, event)

        monkeypatch.setattr(Oracle, "step", counted)
        result = runner.invoke(
            main, ["oracle", "star.pat", "--enumerate", "--universe", "one.jsonl", "--max-len", "300"]
        )
        assert result.exit_code == 0, result.stderr
        assert result.stdout.splitlines() == [
            json.dumps({"events": [{"type": "T"}] * n, "accepts": True}) for n in range(301)
        ]
        assert len(steps) <= 2

    def test_enumerate_empty_universe(self, runner, workdir):
        Path("empty.jsonl").write_text("")
        for extra in ([], ["--max-len", "0"], ["--sample", "3"]):
            result = runner.invoke(
                main, ["oracle", "e1.pat", "--enumerate", "--universe", "empty.jsonl", *extra]
            )
            assert (result.exit_code, result.stdout) == (0, '{"events": [], "accepts": false}\n')

    def test_enumerate_max_len_zero(self, runner, workdir):
        self._four_event_universe()
        Path("star.pat").write_text('pred TypeIsT(x): x.type == "T"\n\nTypeIsT(~)*\n')
        for pattern, verdict in (("e1.pat", "false"), ("star.pat", "true")):
            result = runner.invoke(
                main,
                ["oracle", pattern, "--enumerate", "--universe", "universe.jsonl", "--max-len", "0"],
            )
            assert (result.exit_code, result.stdout) == (0, f'{{"events": [], "accepts": {verdict}}}\n')

    def test_enumerate_reads_the_universe_from_stdin(self, runner, workdir):
        self._four_event_universe()
        args = ["oracle", "e1.pat", "--enumerate", "--max-len", "3", "--universe"]
        from_file = runner.invoke(main, args + ["universe.jsonl"])
        from_stdin = runner.invoke(main, args + ["-"], input=Path("universe.jsonl").read_text())
        assert from_file.exit_code == from_stdin.exit_code == 0, from_stdin.stderr
        assert from_stdin.stdout == from_file.stdout
        assert len(from_file.stdout.splitlines()) == 85

    def test_enumerate_needs_universe(self, runner, workdir):
        result = runner.invoke(main, ["oracle", "e1.pat", "--enumerate"])
        assert result.exit_code == 2

    def test_membership_needs_input(self, runner, workdir):
        result = runner.invoke(main, ["oracle", "e1.pat"])
        assert result.exit_code == 2


# Attribute values for enumeration universes: the ones the universe
# predicates test, text that JSON escapes, and numbers of every kind.
_UNIVERSE_VALUES = st.one_of(
    st.sampled_from(["A", "B", 1, 2]),
    st.text(alphabet='AB "\\\t\né日😀', max_size=4),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    rows=st.lists(
        st.dictionaries(st.sampled_from(["kind", "num", "é", 'say "hi"']), _UNIVERSE_VALUES,
                        min_size=1, max_size=3),
        max_size=3,
    ),
    max_len=st.integers(min_value=0, max_value=3),
    sample=st.one_of(st.none(), st.integers(min_value=1, max_value=45)),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_enumerate_prints_what_json_dumps_prints(rng, rows, max_len, sample, seed):
    lib = universe_library()
    text = unparse_pattern(lib, random_expr(rng, 3, lib))
    try:
        _, expr = parse(text)
    except UnknownRegister:  # it reads a register that it never writes
        assume(False)
    universe = [Event.from_mapping(row) for row in rows]
    strings = [list(s) for n in range(max_len + 1) for s in itertools.product(universe, repeat=n)]
    args = ["oracle", "p.pat", "--enumerate", "--universe", "u.jsonl", "--max-len", str(max_len)]
    if sample is not None:
        args += ["--sample", str(sample), "--seed", str(seed)]
        if sample < len(strings):
            strings = random.Random(seed).sample(strings, sample)
    with CliRunner().isolated_filesystem():
        Path("p.pat").write_text(text, encoding="utf-8")
        Path("u.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.stderr
    assert result.stdout.splitlines() == [
        json.dumps({"events": [e.as_dict() for e in s], "accepts": accepts(expr, s)})
        for s in strings
    ]


# Commands whose file option names a path that cannot be opened, and that path.
_UNOPENABLE = [
    (["recognize", "e1.pat", "--input", "missing.jsonl"], "missing.jsonl"),
    (["recognize", "empty.pat", "--input", "adir", "--report-empty-match"], "adir"),
    (["forecast", "--model", "model.json", "--input", "missing.jsonl"], "missing.jsonl"),
    (["forecast", "--model", "model.json", "--input", "adir"], "adir"),
    (["oracle", "e1.pat", "--input", "missing.jsonl"], "missing.jsonl"),
    (["oracle", "e1.pat", "--input", "adir"], "adir"),
    (["compile", "e1.pat", "--out", "nodir/a.json"], "nodir/a.json"),
    (["compile", "e1.pat", "--dot", "nodir/a.dot"], "nodir/a.dot"),
    (["determinize", "e3.pat", "--out", "nodir/a.json"], "nodir/a.json"),
    (["determinize", "e3.pat", "--dot", "nodir/a.dot"], "nodir/a.dot"),
    (["complement", "e3.pat", "--out", "nodir/a.json"], "nodir/a.json"),
    (["complement", "e3.pat", "--dot", "nodir/a.dot"], "nodir/a.dot"),
    (["to-srem", "e1.pat", "--out", "nodir/a.pat"], "nodir/a.pat"),
    (["learn", "e3.pat", "--train", "train.jsonl", "--out", "nodir/m.json"], "nodir/m.json"),
]


@pytest.fixture()
def socket_path():
    """A path naming a Unix socket: it exists and is no directory, so it
    passes the options' path check, but opening it fails."""
    if not hasattr(socket, "AF_UNIX"):
        pytest.skip("no Unix sockets")
    # A socket path is limited to about 108 bytes, which tmp_path can exceed.
    with tempfile.TemporaryDirectory(prefix="cerf") as short:
        path = os.path.join(short, "s")
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind(path)
            yield path


class TestUnopenablePaths:
    @pytest.mark.parametrize(
        "args, path", _UNOPENABLE, ids=[f"{args[0]}-{path}" for args, path in _UNOPENABLE]
    )
    def test_exits_2_naming_the_path(self, runner, workdir, args, path):
        Path("adir").mkdir()
        Path("empty.pat").write_text("TRUE*\n")
        Path("train.jsonl").write_text(TABLE1_JSONL * 200)
        if "model.json" in args:
            learned = runner.invoke(
                main, ["learn", "e3.pat", "--train", "train.jsonl", "--out", "model.json"]
            )
            assert learned.exit_code == 0, learned.stderr
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.startswith(f"error: cannot open {path}: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "option",
        [["forecast", "--model"], ["determinize", "--automaton"],
         ["complement", "--automaton"], ["to-srem", "--automaton"]],
        ids=lambda option: option[0],
    )
    def test_saved_document_that_cannot_be_opened(self, runner, workdir, socket_path, option):
        result = runner.invoke(main, [*option, socket_path])
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.startswith(f"error: cannot open {socket_path}: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["compile", "determinize", "complement"])
    def test_unopenable_dot_creates_no_out_file(self, runner, workdir, command):
        result = runner.invoke(main, [command, "e3.pat", "--out", "a.json", "--dot", "nodir/a.dot"])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot open nodir/a.dot: ")
        assert not Path("a.json").exists()
        # a file that was there keeps its content
        Path("a.json").write_text("kept")
        result = runner.invoke(main, [command, "e3.pat", "--out", "a.json", "--dot", "nodir/a.dot"])
        assert result.exit_code == 2 and Path("a.json").read_text() == "kept"

    def test_output_replaces_a_longer_file(self, runner, workdir):
        printed = runner.invoke(main, ["compile", "e1.pat"])
        Path("a.json").write_text("x" * 100_000)
        result = runner.invoke(main, ["compile", "e1.pat", "--out", "a.json"])
        assert result.exit_code == 0, result.stderr
        assert Path("a.json").read_text() == printed.stdout

    def test_learn_checks_out_before_training(self, runner, workdir):
        Path("train.jsonl").write_text(TABLE1_JSONL * 20 + "{not json\n")
        args = ["learn", "e3.pat", "--train", "train.jsonl", "--strict"]
        result = runner.invoke(main, [*args, "--out", "nodir/m.json"])
        assert result.exit_code == 2
        assert result.stderr == "error: cannot open nodir/m.json: No such file or directory\n"
        result = runner.invoke(main, [*args, "--out", "m.json"])
        assert result.exit_code == 2 and "invalid JSON" in result.stderr

    @pytest.mark.parametrize(
        "args, code, message",
        [
            (["e3.pat", "--train", "bad.jsonl", "--strict"], 2,
             "line 7: invalid JSON (Expecting property name enclosed in double quotes)"),
            (["e3.pat", "--train", "train.jsonl", "--max-order", "50"], 5,
             "need at least 51 symbols, got 6"),
            (["e1.pat", "--train", "train.jsonl"], 3,
             "unrolling needs a window (use 'within N' or --window)"),
        ],
        ids=["malformed", "insufficient", "unwindowed"],
    )
    def test_failed_learn_leaves_no_model(self, runner, workdir, args, code, message):
        Path("train.jsonl").write_text(TABLE1_JSONL)
        Path("bad.jsonl").write_text(TABLE1_JSONL + "{not json\n")
        result = runner.invoke(main, ["learn", *args, "--out", "m.json"])
        assert result.exit_code == code, result.stderr
        assert result.stderr == f"error: {message}\n"
        assert not Path("m.json").exists()
        Path("m.json").write_text("kept")
        result = runner.invoke(main, ["learn", *args, "--out", "m.json"])
        assert result.exit_code == code and Path("m.json").read_text() == "kept"


class TestReadme:
    @staticmethod
    def _library_code():
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library", 1)[1]
        return section.split("```python\n", 1)[1].split("```", 1)[0]

    @pytest.mark.parametrize("text", [E1_TEXT, E3_TEXT], ids=["e1", "e3"])
    def test_library_example_matches_recognize(self, runner, workdir, text):
        rng = random.Random(8)
        rows = [
            {"type": rng.choice("TH"), "id": rng.randint(1, 3), "value": rng.randint(0, 100)}
            for _ in range(300)
        ]
        Path("pattern.pat").write_text(text)
        Path("stream.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(self._library_code(), {"events": [Event.from_mapping(r) for r in rows]})
        found = [int(line.split()[-1]) for line in printed.getvalue().splitlines()]
        result = runner.invoke(main, ["recognize", "pattern.pat", "--input", "stream.jsonl"])
        assert result.exit_code == 0, result.stderr
        assert found and found == _indexes(result.stdout)


def _cerf_env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(cerf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Runs cerf.cli as `python -m cerf.cli` does, then writes the cerf modules
# loaded, and dataclasses and click if they were loaded, to loaded.txt,
# whether or not the command failed.
_RUN_CLI = (
    "import runpy, sys\n"
    "LISTED = ('cerf', 'dataclasses', 'click')\n"
    "try:\n"
    "    runpy.run_module('cerf.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    with open('loaded.txt', 'w') as fp:\n"
    "        fp.write(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in LISTED)))\n"
)


def _run_fresh(*args):
    """The command run in a new interpreter, where only the modules it
    imports are loaded, and the cerf modules it loaded, with `dataclasses`
    and `click` if they were loaded too."""
    done = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, *args],
        env=_cerf_env(), capture_output=True, text=True, timeout=60,
    )
    return done, Path("loaded.txt").read_text().split()


def _buffered_env() -> dict:
    """`_cerf_env` without PYTHONUNBUFFERED, which would make every write
    to stdout reach its reader at once."""
    env = _cerf_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _event_line(kind: str, ident: int) -> bytes:
    return (json.dumps({"type": kind, "id": ident, "value": 7}) + "\n").encode()


def _recognize_e3_from_stdin(tmp_path, stdout) -> subprocess.Popen:
    Path(tmp_path, "e3.pat").write_text(E3_TEXT)
    return subprocess.Popen(
        [sys.executable, "-m", "cerf.cli", "recognize", "e3.pat", "--input", "-"],
        cwd=tmp_path, env=_buffered_env(), stdin=subprocess.PIPE, stdout=stdout,
        stderr=subprocess.PIPE,
    )


class TestRecordOutput:
    """A record reaches the reader while the input is still open, as a
    recognizer of an unbounded stream must deliver it."""

    # T then H of the same id complete a match at the second event
    MATCH = _event_line("T", 1) + _event_line("H", 1)

    def test_a_pipe_reader_gets_each_record_before_the_input_ends(self, tmp_path):
        proc = _recognize_e3_from_stdin(tmp_path, subprocess.PIPE)
        try:
            proc.stdin.write(self.MATCH)
            proc.stdin.flush()
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                assert selector.select(timeout=60), "no record while the input was open"
            assert proc.stdout.readline() == b'{"index": 2}\n'
            assert proc.poll() is None
        finally:
            proc.stdin.close()
            proc.wait(timeout=60)
            proc.stdout.close()
            proc.stderr.close()
        assert proc.returncode == 0

    def test_a_file_gets_each_record_before_the_input_ends(self, tmp_path):
        path = tmp_path / "matches.jsonl"
        with open(path, "wb") as out:
            proc = _recognize_e3_from_stdin(tmp_path, out)
        try:
            proc.stdin.write(self.MATCH)
            proc.stdin.flush()
            deadline = time.monotonic() + 60
            while not path.read_bytes() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert path.read_bytes() == b'{"index": 2}\n'
            assert proc.poll() is None
        finally:
            proc.stdin.close()
            proc.wait(timeout=60)
            proc.stderr.close()
        assert proc.returncode == 0

    def test_a_reader_that_goes_away_ends_the_command_quietly(self, tmp_path):
        Path(tmp_path, "e3.pat").write_text(E3_TEXT)
        Path(tmp_path, "in.jsonl").write_bytes(self.MATCH * 1000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cerf.cli", "recognize", "e3.pat", "--input", "in.jsonl"],
            cwd=tmp_path, env=_buffered_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before the first record
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1 and stderr == b""

    def test_an_interrupt_ends_the_command_in_one_line(self, tmp_path):
        proc = _recognize_e3_from_stdin(tmp_path, subprocess.PIPE)
        try:
            proc.stdin.write(self.MATCH)
            proc.stdin.flush()
            assert proc.stdout.readline() == b'{"index": 2}\n'  # it is reading
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=60)
            stderr = proc.stderr.read()
        finally:
            proc.stdin.close()
            proc.stdout.close()
            proc.stderr.close()
        assert proc.returncode == 1 and stderr == b"\nAborted!\n"

    def test_a_file_gets_what_json_dumps_makes_of_each_record(self, tmp_path):
        Path(tmp_path, "e3.pat").write_text(E3_TEXT)
        rng = random.Random(21)
        events = [(rng.choice("TH"), rng.randint(1, 3)) for _ in range(10_000)]
        Path(tmp_path, "in.jsonl").write_bytes(b"".join(_event_line(*e) for e in events))
        with open(tmp_path / "out.jsonl", "wb") as out:
            done = subprocess.run(
                [sys.executable, "-m", "cerf.cli", "recognize", "e3.pat", "--input",
                 "in.jsonl", "--report-empty-match"],
                cwd=tmp_path, env=_buffered_env(), stdout=out, stderr=subprocess.PIPE,
                timeout=120,
            )
        assert done.returncode == 0, done.stderr
        piped = CliRunner().invoke(
            main, ["recognize", str(tmp_path / "e3.pat"), "--input", str(tmp_path / "in.jsonl")]
        )
        indexes = [json.loads(line)["index"] for line in piped.stdout.splitlines()]
        expected = "".join(json.dumps({"index": i}) + "\n" for i in indexes)
        assert len(expected) > 2 * io.DEFAULT_BUFFER_SIZE  # more than one write buffer
        assert (tmp_path / "out.jsonl").read_text() == expected


class TestFreshProcess:
    """In-process runs cannot show what a command loads: the suite has
    imported every module already."""

    @pytest.mark.parametrize(
        "args, loaded",
        [
            (["oracle", "e3.pat", "--input", "events.jsonl"],
             ["algebra", "cmd_oracle", "oracle", "pattern", "shell"]),
            (["recognize", "e3.pat", "--input", "events.jsonl"],
             ["algebra", "automaton", "cmd_stream", "construct", "diagram", "pattern", "shell"]),
            (["determinize", "e3.pat"],
             ["algebra", "automaton", "cmd_automata", "compiler", "construct", "pattern",
              "serialize", "shell"]),
            (["compile", "e3.pat", "--stage", "dsra"],
             ["algebra", "automaton", "cmd_automata", "compiler", "construct", "pattern",
              "serialize", "shell"]),
            (["complement", "e3.pat"],
             ["algebra", "automaton", "cmd_automata", "compiler", "construct", "pattern",
              "serialize", "shell"]),
            (["to-srem", "e3.pat"],
             ["algebra", "automaton", "closure", "cmd_automata", "construct", "pattern", "shell"]),
            (["forecast", "--model", "model.json", "--input", "events.jsonl"],
             ["algebra", "automaton", "cmd_stream", "forecast", "pattern", "serialize", "shell"]),
            (["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "1",
              "--out", "again.json"],
             ["algebra", "automaton", "cmd_stream", "compiler", "construct", "forecast",
              "pattern", "serialize", "shell"]),
        ],
        ids=["oracle", "recognize", "determinize", "compile", "complement", "to-srem",
             "forecast", "learn"],
    )
    def test_each_command_loads_only_the_modules_it_runs(self, runner, workdir, args, loaded):
        Path("train.jsonl").write_text(TABLE1_JSONL * 20)
        learned = runner.invoke(
            main, ["learn", "e3.pat", "--train", "train.jsonl", "--max-order", "1",
                   "--out", "model.json"],
        )
        assert learned.exit_code == 0, learned.stderr
        done, modules = _run_fresh(*args)
        assert done.returncode == 0, done.stderr
        # value types are written-out classes: nothing generates them
        assert "dataclasses" not in modules
        # the command line is parsed by argparse
        assert "click" not in modules
        # `python -m cerf.cli` runs cli.py as __main__; importing `cerf.cli`
        # too would compile it a second time
        assert "cerf.cli" not in modules
        assert modules == ["cerf", *(f"cerf.{name}" for name in loaded)]

    @pytest.mark.parametrize(
        "args, code, command",
        [(["--help"], 0, []), (["--version"], 0, []), (["compiles", "e3.pat"], 2, []),
         (["recognize", "e3.pat", "--window", "0"], 2, ["cmd_stream"])],
        ids=["help", "version", "unknown-command", "usage-error"],
    )
    def test_the_command_line_loads_no_more_than_the_command(self, workdir, args, code, command):
        done, modules = _run_fresh(*args)
        assert done.returncode == code, done.stderr
        # a command's module declares its arguments, and a usage error is
        # found before the command loads what it runs
        assert modules == ["cerf", "cerf.algebra", *(f"cerf.{name}" for name in command),
                           "cerf.pattern", "cerf.shell"]

    def test_modules_loaded_after_algebra_stay_under_4096_tokens(self):
        # Run from source without cached bytecode, a module is compiled when
        # it loads, and the parser holds its tokens in an array that doubles
        # at 4,096. Compiled alone, one source raised a bare interpreter's
        # peak RSS by about 0.08 MB at 3,016 tokens (`automaton`), 0.8 MB
        # at 4,575 (`compiler` before `construct` was split from it) and
        # 1.0 MB at 5,287 (`algebra`). Every command loads `algebra` first,
        # through `shell`, and `pattern` next: in a command, their compiles
        # set the high-water mark that a module loaded later compiles
        # within, while it stays under 4,096. So they alone may be larger.
        # Tokens are counted as `tokenize` gives them, less COMMENT, NL and
        # ENCODING.
        early = ("algebra", "pattern")
        done = subprocess.run(
            [sys.executable, "-c", "import sys, cerf.cli; print(' '.join(sys.modules))"],
            env=_cerf_env(), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        # a module takes its place in sys.modules when it has loaded: `cli`
        # and `shell`, compiled before `algebra`, come after it
        order = [name for name in done.stdout.split() if name.startswith("cerf")]
        assert order == ["cerf", *(f"cerf.{name}" for name in early), "cerf.shell", "cerf.cli"]
        skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        sizes = {}
        for path in Path(cerf.__file__).parent.glob("*.py"):
            with path.open("rb") as fp:
                sizes[path.stem] = sum(t.type not in skipped for t in tokenize.tokenize(fp.readline))
        assert {"compiler", "construct", *early} <= sizes.keys()
        assert {name: n for name, n in sizes.items() if n >= 4096 and name not in early} == {}

    @pytest.mark.parametrize(
        "args, code",
        [
            (["oracle", "bad.pat", "--input", "events.jsonl"], 2),
            (["forecast", "--model", "bad.json", "--input", "events.jsonl"], 2),
            (["determinize", "e1.pat"], 3),
            (["recognize", "e1.pat", "--input", "events.jsonl", "--cap", "1"], 4),
            (["learn", "e3.pat", "--train", "events.jsonl", "--max-order", "50",
              "--out", "model.json"], 5),
        ],
        ids=["oracle-syntax", "forecast-model", "determinize-window", "recognize-cap",
             "learn-data"],
    )
    def test_each_exit_code_is_one_error_line(self, workdir, args, code):
        Path("bad.pat").write_text("TRUE ;;\n")
        Path("bad.json").write_text('{"format": "cerf-model", "version": 1}\n')
        done, _ = _run_fresh(*args)
        assert done.returncode == code
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("error: ")


class TestEntryPoint:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0 and "0.1.0" in result.stdout

    def test_version_from_module_and_script(self):
        env = _cerf_env()
        commands = [[sys.executable, "-m", "cerf.cli", "--version"]]
        script = shutil.which("cerf")
        if script is not None:
            commands.append([script, "--version"])
        for command in commands:
            done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            assert cerf.__version__ in done.stdout

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fp:
            declared = tomllib.load(fp)["project"]["version"]
        assert cerf.__version__ == declared

    @pytest.mark.parametrize(
        "module, loaded",
        [("cerf", ["cerf"]), ("cerf.automaton", ["cerf", "cerf.algebra", "cerf.automaton"])],
    )
    def test_import_loads_only_what_the_module_needs(self, module, loaded):
        code = (
            f"import sys, {module}; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'cerf')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=_cerf_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == loaded

    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        for name in ("compile", "recognize", "determinize", "complement",
                     "to-srem", "learn", "forecast", "oracle"):
            assert name in result.stdout
