"""The commands that run over event streams: `recognize`, `learn` and
`forecast`. `cerf.cli` imports this module when it runs one of them."""

from __future__ import annotations

import contextlib
import json
import math
from collections import deque

import click

from .pattern import Window
from .shell import (
    _build_stage,
    _emit_line,
    _load_pattern,
    _mapped_errors,
    _open,
    _open_input,
    _output,
    _stderr_diagnostic,
    read_events,
)


class _Range(click.FloatRange):
    """A FloatRange that also refuses NaN, which compares false against
    both bounds and so passes FloatRange."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if math.isnan(rv):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return rv


@click.command()
@click.argument("pattern", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", default="-", show_default=True,
              help="Event stream file, '-' for stdin.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--window", type=click.IntRange(min=1), default=None,
              help="Window width; overrides any 'within' in the pattern.")
@click.option("--cap", type=click.IntRange(min=1), default=100_000, show_default=True,
              help="Maximum simultaneous configurations of an unwindowed pattern; "
                   "a windowed pattern runs as one configuration.")
@click.option("--report-empty-match", is_flag=True,
              help="Also report a match at index 0 when the pattern accepts the empty stream.")
@click.option("--strict", is_flag=True, help="Abort on the first malformed input line.")
def recognize(pattern, input_path, fmt, window, cap, report_empty_match, strict):
    """Run a pattern over an event stream, reporting match indexes as JSONL."""
    from . import compiler
    from .automaton import StreamEngine

    with _mapped_errors():
        _, expr = _load_pattern(pattern, window)
        if isinstance(expr, Window):
            from .diagram import SubsetRunner

            engine = SubsetRunner(_build_stage(expr, "nsra-unrolled"))
        else:
            engine = StreamEngine(compiler.streaming_automaton(_build_stage(expr, "sra")), cap=cap)
        with contextlib.closing(_open_input(input_path)) as fp:
            # each record is the text json.dumps makes of {"index": n}
            if report_empty_match and engine.matched_at_start:
                _emit_line('{"index": 0}\n')
            for event in read_events(fp, fmt, strict, _stderr_diagnostic):
                if engine.step(event):
                    _emit_line('{"index": %d}\n' % engine.consumed)


@click.command()
@click.argument("pattern", type=click.Path(exists=True, dir_okay=False))
@click.option("--train", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Training event stream.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--window", type=click.IntRange(min=1), default=None)
@click.option("--max-order", type=click.IntRange(min=0), default=5, show_default=True)
@click.option("--p-min", type=_Range(0.0, 1.0), default=0.001, show_default=True,
              help="Least empirical probability of a context in the tree.")
@click.option("--ratio", type=_Range(min=1.0), default=1.05, show_default=True,
              help="Least ratio of a next-symbol probability to the parent context's "
                   "that makes a context meaningful.")
@click.option("--gamma", type=_Range(0.0, 1.0), default=0.01, show_default=True,
              help="Smoothing mass spread uniformly over the alphabet.")
@click.option("--alpha", type=_Range(min=0.0), default=0.0, show_default=True,
              help="Only next symbols at least (1+alpha)*gamma probable make a context "
                   "meaningful.")
@click.option("--strict", is_flag=True, help="Abort on the first malformed input line.")
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True),
              help="Where to write the learned model document.")
def learn(pattern, train, fmt, window, max_order, p_min, ratio, gamma, alpha, strict, out):
    """Learn a forecasting model for a windowed pattern from a training stream."""
    from . import compiler, forecast, serialize

    # The model file is opened before training, so a bad --out fails at once,
    # and a failed training leaves no model file behind.
    with _mapped_errors(), _output(out) as out_fp:
        _, expr = _load_pattern(pattern, window)
        d = compiler.complete(_build_stage(expr, "dsra"))
        symbol_map = forecast.SymbolMap.for_automaton(d)
        # Events are symbolized as they are read: only the symbols are kept.
        with contextlib.closing(_open_input(train)) as fp:
            events = read_events(fp, fmt, strict, _stderr_diagnostic)
            symbols = forecast.symbolize(d, events, symbol_map)
        pst = forecast.Pst.learn(
            symbols,
            max_order=max_order,
            p_min=p_min,
            ratio=ratio,
            gamma=gamma,
            alpha=alpha,
            alphabet=symbol_map.symbols,
        )
        serialize.dump(serialize.lazy_model_doc(d, symbol_map, pst), out_fp)
        click.echo(
            f"trained on {len(symbols)} symbols, tree has {len(pst.nodes)} contexts",
            err=True,
        )


@click.command(name="forecast")
@click.option("--model", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", default="-", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--horizon", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--classify-window", type=click.IntRange(min=1), default=1, show_default=True,
              help="How many future steps count as an imminent match.")
@click.option("--threshold", type=_Range(0.0, 1.0), default=0.5, show_default=True)
@click.option("--emit-dist", is_flag=True, help="Include the waiting time distribution.")
@click.option("--strict", is_flag=True, help="Abort on the first malformed input line.")
def forecast_cmd(model, input_path, fmt, horizon, classify_window, threshold, emit_dist, strict):
    """Emit per-event match forecasts for an event stream."""
    if classify_window > horizon:
        raise click.UsageError(
            f"--classify-window ({classify_window}) must not exceed --horizon ({horizon})"
        )
    from . import forecast, serialize
    from .automaton import DeterministicRunner

    with _mapped_errors():
        with _open(model) as fp:
            d, symbol_map, pst, _library = serialize.model_from_doc(serialize.load(fp))
        runner = DeterministicRunner(d)
        waits = forecast.WaitingTimes(d, symbol_map, pst, horizon)
        history: deque = deque(maxlen=pst.max_order)
        # By distribution, the text json.dumps makes of a record after its
        # "index"; `waits` keeps every distribution, so no id is reused.
        tails: dict[int, str] = {}
        index = 0
        with contextlib.closing(_open_input(input_path)) as fp:
            for event in read_events(fp, fmt, strict, _stderr_diagnostic):
                taken = runner.step(event)
                index += 1
                history.append(symbol_map.symbol_for(taken.condition))
                wd = waits(runner.state, history)
                tail = tails.get(id(wd))
                if tail is None:
                    record = {
                        "regression": forecast.forecast_regression(wd),
                        "classification": forecast.forecast_classification(
                            wd, classify_window, threshold
                        ),
                    }
                    if emit_dist:
                        record["dist"] = list(wd.masses)
                        record["residual"] = wd.residual
                    tail = tails[id(wd)] = ", " + json.dumps(record)[1:] + "\n"
                _emit_line('{"index": %d' % index + tail)
