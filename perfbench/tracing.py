"""Traced in-process replay of every workload, for the per-layer metrics.

Each replay calls the public functions of `cerf` in the order its command
calls them, on smaller inputs, and the benchmark records a span around each
call: name, replay, start, end and parent span. The whole replay runs twice,
first untraced and then traced, so the difference of the two totals is the
cost of tracing and counting. Spans stay in memory and are written to
.perfbench_work/spans-<seed>.jsonl at the end.

Span names are `<layer>.<function>` with this repository's module names as
layers. `algebra.minterms` and `algebra.entails` are recorded by wrapping the
two names `cerf.compiler` calls during the traced determinizations; there are
no spans inside other `cerf` functions.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import statistics
import sys
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import inputs
import reference
from cerf import compiler, forecast, serialize
from cerf.algebra import EvalCounters
from cerf.automaton import DeterministicRunner, StreamEngine
from cerf.cli import read_events
from cerf.forecast import Pst, SymbolMap, symbolize
from cerf.pattern import Window, accepts, parse, to_streaming

E3_EVENTS = 3_000
E1_EVENTS = 1_000
SWEEP_WIDTHS = (3, 4, 5, 6, 7)
SWEEP_CHECKED_STRINGS = 100
TRAIN_EVENTS = 1_000
TEST_EVENTS = 300
ORACLE_PATTERNS = 2
LAYERS = ("cli", "pattern", "algebra", "automaton", "compiler", "forecast", "serialize")


class Tracer:
    """Spans as [id, parent, name, replay, start, end], kept in memory."""

    on = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.replay = ""

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, self.replay, 0.0, 0.0])
        self._stack.append(sid)
        self.spans[sid][4] = time.perf_counter()
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced


class NullTracer(Tracer):
    """The same calls with nothing recorded: the untraced pass."""

    on = False

    def begin(self, name: str) -> int:
        return 0

    def end(self, sid: int) -> None:
        pass

    def wrap(self, name: str, fn):
        return fn


def _events(name: str, seed: int, count: int) -> list[dict]:
    return inputs.sensor_events(random.Random(f"trace/{name}/{seed}"), count)


def replay_recognize(tr: Tracer, work: Path, seed: int, windowed: bool, counts: dict) -> list[str]:
    """`cerf recognize` with E3 --window 4 or with E1."""
    events = _events("e3w4" if windowed else "e1open", seed, E3_EVENTS if windowed else E1_EVENTS)
    stream = inputs.write_jsonl(work / "trace-stream.jsonl", events)
    text = inputs.E3_TEXT if windowed else inputs.E1_TEXT
    with tr.span("pattern.parse"):
        _, expr = parse(text)
    if windowed:
        with tr.span("compiler.compile_expr"):
            a = compiler.compile_expr(expr.body)
        with tr.span("compiler.eliminate_epsilon"):
            a = compiler.eliminate_epsilon(a)
        with tr.span("compiler.to_single_register"):
            a = compiler.to_single_register(a)
        with tr.span("compiler.unroll"):
            a, _ = compiler.unroll(a, 4)
        with tr.span("compiler.streaming_automaton"):
            a = compiler.streaming_automaton(a)
    else:
        with tr.span("compiler.compile_expr"):
            a = compiler.compile_expr(to_streaming(expr))
        with tr.span("compiler.eliminate_epsilon"):
            a = compiler.eliminate_epsilon(a)
    engine = StreamEngine(a)
    matches, live, conditions = [], [], 0
    with open(stream, "r", encoding="utf-8") as fp:
        source = read_events(fp, "jsonl", False, None)
        while True:
            sid = tr.begin("cli.read_events")
            event = next(source, None)
            tr.end(sid)
            if event is None:
                break
            if tr.on:
                conditions += sum(len(a.out(q)) for q, _ in engine.live_configurations)
            sid = tr.begin("automaton.StreamEngine.step")
            hit = engine.step(event)
            tr.end(sid)
            if tr.on:
                live.append(len(engine.live_configurations))
            if hit:
                matches.append(engine.consumed)
    if tr.on:
        counts.update(events=len(events), live=live, conditions=conditions)
    expected = reference.expected_matches(events, 4 if windowed else None)
    return [] if matches == expected else [f"{len(matches)} matches, {len(expected)} expected"]


def replay_sweep(tr: Tracer, work: Path, seed: int, counts: dict) -> list[str]:
    """`cerf determinize E3 --window w --out ...` for each width, then
    `complete` on each result (the stage `cerf learn` adds)."""
    problems, compilers = [], {}
    original = compiler.minterms, compiler.entails
    compiler.minterms = tr.wrap("algebra.minterms", original[0])
    compiler.entails = tr.wrap("algebra.entails", original[1])
    try:
        for w in SWEEP_WIDTHS:
            tr.replay = f"determinize-e3-sweep/w{w}"
            with tr.span("pattern.parse"):
                _, expr = parse(inputs.E3_TEXT)
            expr = Window(expr.body, w)
            with tr.span("compiler.compile_expr"):
                a = compiler.compile_expr(expr.body)
            with tr.span("compiler.eliminate_epsilon"):
                a = compiler.eliminate_epsilon(a)
            with tr.span("compiler.to_single_register"):
                a = compiler.to_single_register(a)
            with tr.span("compiler.unroll"):
                unrolled, _ = compiler.unroll(a, w)
            with tr.span("compiler.determinize"):
                d = compiler.determinize(unrolled)
            with tr.span("serialize.automaton_to_doc"):
                doc = serialize.automaton_to_doc(d)
            path = work / f"trace-dsra-w{w}.json"
            with tr.span("serialize.dump"):
                serialize.dump(doc, str(path))
            with tr.span("compiler.complete"):
                compiler.complete(d)
            if tr.on:
                counts[w] = (len(unrolled.states), len(d.states), len(d.transitions), path.stat().st_size)
            sample = reference.dsra_sample(seed, w, SWEEP_CHECKED_STRINGS)
            problems += reference.check_dsra(json.loads(path.read_text()), w, sample, compilers)
    finally:
        compiler.minterms, compiler.entails = original
    return problems


def replay_learn_forecast(tr: Tracer, work: Path, seed: int, counts: dict) -> list[str]:
    """`cerf learn E3 --window 4 --max-order 3`, then `cerf forecast
    --emit-dist` with the model it wrote."""
    train = _events("learn", seed, TRAIN_EVENTS)
    test = _events("forecast", seed, TEST_EVENTS)
    train_path = inputs.write_jsonl(work / "trace-train.jsonl", train)
    test_path = inputs.write_jsonl(work / "trace-test.jsonl", test)
    model_path = work / "trace-model.json"

    tr.replay = "learn-forecast-e3-w4/learn"
    with tr.span("pattern.parse"):
        _, expr = parse(inputs.E3_TEXT)
    with tr.span("compiler.compile_expr"):
        a = compiler.compile_expr(expr.body)
    with tr.span("compiler.eliminate_epsilon"):
        a = compiler.eliminate_epsilon(a)
    with tr.span("compiler.to_single_register"):
        a = compiler.to_single_register(a)
    with tr.span("compiler.unroll"):
        a, _ = compiler.unroll(a, 4)
    with tr.span("compiler.determinize"):
        d = compiler.determinize(a)
    with tr.span("compiler.complete"):
        d = compiler.complete(d)
    symbol_map = SymbolMap.for_automaton(d)
    with open(train_path, "r", encoding="utf-8") as fp, tr.span("cli.read_events"):
        events = list(read_events(fp, "jsonl", False, None))
    with tr.span("forecast.symbolize"):
        symbols = symbolize(d, events, symbol_map)
    with tr.span("forecast.Pst.learn"):
        pst = Pst.learn(symbols, max_order=3, alphabet=symbol_map.symbols)
    with tr.span("serialize.model_to_doc"):
        doc = serialize.model_to_doc(d, symbol_map, pst)
    with tr.span("serialize.dump"):
        serialize.dump(doc, str(model_path))

    tr.replay = "learn-forecast-e3-w4/forecast"
    with tr.span("serialize.load"):
        loaded = serialize.load(str(model_path))
    with tr.span("serialize.model_from_doc"):
        d, symbol_map, pst, _ = serialize.model_from_doc(loaded)
    counters = EvalCounters() if tr.on else None
    runner = DeterministicRunner(d, counters)
    history: deque = deque(maxlen=pst.max_order)
    records = []
    with open(test_path, "r", encoding="utf-8") as fp:
        source = read_events(fp, "jsonl", False, None)
        while True:
            sid = tr.begin("cli.read_events")
            event = next(source, None)
            tr.end(sid)
            if event is None:
                break
            sid = tr.begin("automaton.DeterministicRunner.step")
            taken = runner.step(event)
            tr.end(sid)
            history.append(symbol_map.symbol_for(taken.condition))
            sid = tr.begin("forecast.waiting_time")
            wd = forecast.waiting_time(d, symbol_map, pst, runner.state, tuple(history), horizon=32)
            tr.end(sid)
            records.append({
                "index": len(records) + 1,
                "regression": forecast.forecast_regression(wd),
                "classification": forecast.forecast_classification(wd, 1, 0.5),
                "dist": list(wd.masses),
                "residual": wd.residual,
            })
    if tr.on:
        counts.update(
            train=len(events), test=len(test), contexts=len(pst.nodes),
            doc_bytes=model_path.stat().st_size,
            condition_evals=counters.condition_evals, register_reads=counters.register_reads,
        )
    model_doc = json.loads(model_path.read_text(encoding="utf-8"))
    stdout = "\n".join(json.dumps(r) for r in records)
    sampled = reference.forecast_sample(seed, 6, TEST_EVENTS)
    return reference.check_model(model_doc, train) + reference.check_forecast(
        stdout, model_doc, test, sampled
    )


def replay_oracle(tr: Tracer, work: Path) -> list[str]:
    """`cerf oracle --enumerate --max-len 5` on the first pool patterns."""
    universe_path = inputs.write_jsonl(work / "trace-universe.jsonl", inputs.ORACLE_UNIVERSE)
    preds = reference.parse_predicates(inputs.ORACLE_PREDICATES.splitlines())
    problems = []
    for i, tree in enumerate(inputs.oracle_pool()[:ORACLE_PATTERNS]):
        tr.replay = f"oracle-random/{i}"
        with tr.span("pattern.parse"):
            _, expr = parse(inputs.ORACLE_PREDICATES + "\n" + inputs.render_expr(tree) + "\n")
        with open(universe_path, "r", encoding="utf-8") as fp, tr.span("cli.read_events"):
            universe = list(read_events(fp, "jsonl", False, None))
        records = []
        for s in reference.oracle_strings(universe, inputs.ORACLE_MAX_LEN):
            sid = tr.begin("pattern.accepts")
            verdict = accepts(expr, s)
            tr.end(sid)
            records.append({"events": [ev.as_dict() for ev in s], "accepts": verdict})
        stdout = "\n".join(json.dumps(r) for r in records)
        problems += reference.check_oracle(
            stdout, tree, inputs.ORACLE_UNIVERSE, inputs.ORACLE_MAX_LEN, preds
        )
    return problems


def replay_all(tr: Tracer, work: Path, seed: int) -> tuple[list[list[str]], dict]:
    """Every replay once: (problems of each replay, counts)."""
    counts: dict = {"e3w4": {}, "e1open": {}, "sweep": {}, "learn": {}}
    tr.replay = "recognize-e3-w4"
    problems = [replay_recognize(tr, work, seed, True, counts["e3w4"])]
    tr.replay = "recognize-e1-open"
    problems.append(replay_recognize(tr, work, seed, False, counts["e1open"]))
    problems.append(replay_sweep(tr, work, seed, counts["sweep"]))
    problems.append(replay_learn_forecast(tr, work, seed, counts["learn"]))
    problems.append(replay_oracle(tr, work))
    return problems, counts


# --- metrics from spans -----------------------------------------------------


def layer_times(spans: list[list]) -> dict[str, tuple[float, float]]:
    """Per layer (self seconds, total seconds). Self time is a span's
    duration less its children's; the total counts only the outermost spans
    of the layer, so nested spans of one layer are not counted twice."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += s[5] - s[4]
    result = {layer: [0.0, 0.0] for layer in LAYERS}
    for s in spans:
        layer = s[2].split(".", 1)[0]
        duration = s[5] - s[4]
        result[layer][0] += duration - child_time[s[0]]
        parent = s[1]
        while parent is not None and spans[parent][2].split(".", 1)[0] != layer:
            parent = spans[parent][1]
        if parent is None:
            result[layer][1] += duration
    return {layer: (v[0], v[1]) for layer, v in result.items()}


def per_layer_metrics(spans: list[list], counts: dict, traced_s: float, untraced_s: float) -> dict:
    def durations(replay: str, name: str) -> list[float]:
        return [s[5] - s[4] for s in spans if s[2] == name and s[3].startswith(replay)]

    def total_ms(replay: str, name: str) -> float:
        return sum(durations(replay, name)) * 1e3

    out: dict[str, tuple[float, str]] = {}
    e3 = counts["e3w4"]
    out["cli.read_events.us_per_event"] = (total_ms("recognize-e3-w4", "cli.read_events") * 1e3 / e3["events"], "us")
    out["pattern.parse.ms"] = (total_ms("recognize-e3-w4", "pattern.parse"), "ms")
    accepts_us = durations("oracle-random", "pattern.accepts")
    out["pattern.accepts.us_per_string"] = (sum(accepts_us) * 1e6 / len(accepts_us), "us")
    for name in ("minterms", "entails"):
        spent = durations("determinize-e3-sweep", f"algebra.{name}")
        out[f"algebra.{name}.calls"] = (len(spent), "count")
        out[f"algebra.{name}.ms"] = (sum(spent) * 1e3, "ms")
    for stage in ("compile_expr", "eliminate_epsilon", "to_single_register", "unroll", "streaming_automaton"):
        out[f"compiler.{stage}.ms"] = (total_ms("recognize-e3-w4", f"compiler.{stage}"), "ms")
    for stage in ("determinize", "complete"):
        out[f"compiler.{stage}.ms"] = (total_ms("learn-forecast-e3-w4/learn", f"compiler.{stage}"), "ms")
        for w in SWEEP_WIDTHS:
            out[f"compiler.{stage}.w{w}.ms"] = (total_ms(f"determinize-e3-sweep/w{w}", f"compiler.{stage}"), "ms")
    sweep = counts["sweep"]
    out["compiler.unroll.states"] = (sum(v[0] for v in sweep.values()), "count")
    out["compiler.determinize.states"] = (sum(v[1] for v in sweep.values()), "count")
    out["compiler.determinize.transitions"] = (sum(v[2] for v in sweep.values()), "count")
    for tag, replay in (("e3w4", "recognize-e3-w4"), ("e1open", "recognize-e1-open")):
        steps = sorted(durations(replay, "automaton.StreamEngine.step"))
        pct = statistics.quantiles(steps, n=100)
        c = counts[tag]
        prefix = f"automaton.StreamEngine.{tag}"
        out[f"{prefix}.step.us_p50"] = (statistics.median(steps) * 1e6, "us")
        out[f"{prefix}.step.us_p99"] = (pct[98] * 1e6, "us")
        out[f"{prefix}.live_configs.mean"] = (statistics.fmean(c["live"]), "count")
        out[f"{prefix}.live_configs.peak"] = (max(c["live"]), "count")
        out[f"{prefix}.conditions_per_event"] = (c["conditions"] / c["events"], "count")
    learn = counts["learn"]
    fc = "learn-forecast-e3-w4/forecast"
    out["automaton.DeterministicRunner.step.us_per_event"] = (
        total_ms(fc, "automaton.DeterministicRunner.step") * 1e3 / learn["test"], "us")
    out["automaton.DeterministicRunner.condition_evals_per_event"] = (learn["condition_evals"] / learn["test"], "count")
    out["automaton.DeterministicRunner.register_reads_per_event"] = (learn["register_reads"] / learn["test"], "count")
    lr = "learn-forecast-e3-w4/learn"
    out["forecast.symbolize.us_per_event"] = (total_ms(lr, "forecast.symbolize") * 1e3 / learn["train"], "us")
    out["forecast.Pst.learn.ms"] = (total_ms(lr, "forecast.Pst.learn"), "ms")
    out["forecast.Pst.contexts"] = (learn["contexts"], "count")
    waits = durations(fc, "forecast.waiting_time")
    out["forecast.waiting_time.us_per_call"] = (sum(waits) * 1e6 / len(waits), "us")
    out["serialize.model_to_doc.ms"] = (total_ms(lr, "serialize.model_to_doc"), "ms")
    out["serialize.dump.ms"] = (total_ms(lr, "serialize.dump"), "ms")
    out["serialize.load.ms"] = (total_ms(fc, "serialize.load"), "ms")
    out["serialize.model_from_doc.ms"] = (total_ms(fc, "serialize.model_from_doc"), "ms")
    out["serialize.doc_bytes"] = (learn["doc_bytes"], "bytes")
    out["serialize.automaton_to_doc.ms"] = (total_ms("determinize-e3-sweep", "serialize.automaton_to_doc"), "ms")
    out["serialize.dump.sweep.ms"] = (total_ms("determinize-e3-sweep", "serialize.dump"), "ms")
    out["serialize.doc_bytes.sweep"] = (sum(v[3] for v in sweep.values()), "bytes")
    for layer, (self_s, total_s) in layer_times(spans).items():
        out[f"{layer}.self_ms"] = (self_s * 1e3, "ms")
        out[f"{layer}.total_ms"] = (total_s * 1e3, "ms")
    out["trace.untraced_ms"] = (untraced_s * 1e3, "ms")
    out["trace.traced_ms"] = (traced_s * 1e3, "ms")
    out["trace.overhead_pct"] = ((traced_s - untraced_s) / untraced_s * 100.0, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def run(seed: int, work_root: Path) -> dict:
    """Replay untraced, traced, and untraced again (the two untraced passes
    bracket the traced one, so drift during the run cancels); write the
    spans; return the result."""
    work = work_root / f"trace-{seed}-{os.getpid()}"
    work.mkdir()
    passes = []
    try:
        for tr in (NullTracer(), Tracer(), NullTracer()):
            gc.collect()
            start = time.perf_counter()
            problems, counts = replay_all(tr, work, seed)
            passes.append((tr, problems, counts, time.perf_counter() - start))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tr, _, counts, traced_s = passes[1]
    untraced_s = (passes[0][3] + passes[2][3]) / 2

    origin = tr.spans[0][4]
    spans_path = work_root / f"spans-{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fp:
        for sid, parent, name, replay, begin, end in tr.spans:
            fp.write(json.dumps({
                "id": sid, "parent": parent, "name": name, "replay": replay,
                "start_us": round((begin - origin) * 1e6, 3), "end_us": round((end - origin) * 1e6, 3),
            }) + "\n")
    problems = [p for _, replays, _, _ in passes for p in replays]
    for p in sum(problems, []):
        print(f"  FAILED {p}", file=sys.stderr)
    metrics = per_layer_metrics(tr.spans, counts, traced_s, untraced_s)
    print(f"traced replay: {len(tr.spans)} spans written to {spans_path}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    failed = sum(1 for p in problems if p)
    return {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": metrics,
    }
