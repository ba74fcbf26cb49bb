"""The commands that run over event streams: `recognize`, `learn` and
`forecast`. `cerf.cli` imports this module when it runs one of them."""

from __future__ import annotations

import contextlib
import json
import sys
from collections import deque

from .pattern import Window
from .shell import (
    _build_stage,
    _emit_line,
    _event_arguments,
    _load_pattern,
    _mapped_errors,
    _open,
    _open_input,
    _output,
    _parser,
    _ranged,
    _stderr_diagnostic,
    read_events,
)


def recognize(argv: list[str]) -> None:
    """Run a pattern over an event stream, reporting match indexes as JSONL."""
    parser = _parser("recognize", recognize)
    parser.add_argument("pattern", metavar="PATTERN")
    parser.add_argument("--input", default="-",
                        help="Event stream file, '-' for stdin. (default: %(default)s)")
    _event_arguments(parser)
    parser.add_argument("--window", type=_ranged(int, 1),
                        help="Window width; overrides any 'within' in the pattern.")
    parser.add_argument("--cap", type=_ranged(int, 1), default=100_000,
                        help="Maximum simultaneous configurations of an unwindowed pattern; "
                             "a windowed pattern runs as one configuration. "
                             "(default: %(default)s)")
    parser.add_argument("--report-empty-match", action="store_true",
                        help="Also report a match at index 0 when the pattern accepts the "
                             "empty stream.")
    args = parser.parse_args(argv)
    from .automaton import StreamEngine
    from .construct import streaming_automaton

    with _mapped_errors():
        _, expr = _load_pattern(args.pattern, args.window)
        if isinstance(expr, Window):
            from .diagram import SubsetRunner

            engine = SubsetRunner(_build_stage(expr, "nsra-unrolled"))
        else:
            engine = StreamEngine(streaming_automaton(_build_stage(expr, "sra")), cap=args.cap)
        with contextlib.closing(_open_input(args.input)) as fp:
            # each record is the text json.dumps makes of {"index": n}
            if args.report_empty_match and engine.matched_at_start:
                _emit_line('{"index": 0}\n')
            for event in read_events(fp, args.format, args.strict, _stderr_diagnostic):
                if engine.step(event):
                    _emit_line('{"index": %d}\n' % engine.consumed)


def learn(argv: list[str]) -> None:
    """Learn a forecasting model for a windowed pattern from a training stream."""
    parser = _parser("learn", learn)
    parser.add_argument("pattern", metavar="PATTERN")
    parser.add_argument("--train", required=True, help="Training event stream.")
    _event_arguments(parser)
    parser.add_argument("--window", type=_ranged(int, 1))
    parser.add_argument("--max-order", type=_ranged(int, 0), default=5,
                        help="(default: %(default)s)")
    parser.add_argument("--p-min", type=_ranged(float, 0.0, 1.0), default=0.001,
                        help="Least empirical probability of a context in the tree. "
                             "(default: %(default)s)")
    parser.add_argument("--ratio", type=_ranged(float, 1.0), default=1.05,
                        help="Least ratio of a next-symbol probability to the parent "
                             "context's that makes a context meaningful. (default: %(default)s)")
    parser.add_argument("--gamma", type=_ranged(float, 0.0, 1.0), default=0.01,
                        help="Smoothing mass spread uniformly over the alphabet. "
                             "(default: %(default)s)")
    parser.add_argument("--alpha", type=_ranged(float, 0.0), default=0.0,
                        help="Only next symbols at least (1+alpha)*gamma probable make a "
                             "context meaningful. (default: %(default)s)")
    parser.add_argument("--out", required=True,
                        help="Where to write the learned model document.")
    args = parser.parse_args(argv)
    from . import compiler, forecast, serialize

    # The model file is opened before training, so a bad --out fails at once,
    # and a failed training leaves no model file behind.
    with _mapped_errors(), _output(args.out) as out_fp:
        _, expr = _load_pattern(args.pattern, args.window)
        d = compiler.complete(_build_stage(expr, "dsra"))
        symbol_map = forecast.SymbolMap.for_automaton(d)
        # Events are symbolized as they are read: only the symbols are kept.
        with _open(args.train) as fp:
            events = read_events(fp, args.format, args.strict, _stderr_diagnostic)
            symbols = forecast.symbolize(d, events, symbol_map)
        pst = forecast.Pst.learn(
            symbols,
            max_order=args.max_order,
            p_min=args.p_min,
            ratio=args.ratio,
            gamma=args.gamma,
            alpha=args.alpha,
            alphabet=symbol_map.symbols,
        )
        serialize.dump(serialize.lazy_model_doc(d, symbol_map, pst), out_fp)
        print(
            f"trained on {len(symbols)} symbols, tree has {len(pst.nodes)} contexts",
            file=sys.stderr,
        )


def forecast_cmd(argv: list[str]) -> None:
    """Emit per-event match forecasts for an event stream."""
    parser = _parser("forecast", forecast_cmd)
    parser.add_argument("--model", required=True)
    parser.add_argument("--input", default="-", help="(default: %(default)s)")
    _event_arguments(parser)
    parser.add_argument("--horizon", type=_ranged(int, 1), default=32,
                        help="(default: %(default)s)")
    parser.add_argument("--classify-window", type=_ranged(int, 1), default=1,
                        help="How many future steps count as an imminent match. "
                             "(default: %(default)s)")
    parser.add_argument("--threshold", type=_ranged(float, 0.0, 1.0), default=0.5,
                        help="(default: %(default)s)")
    parser.add_argument("--emit-dist", action="store_true",
                        help="Include the waiting time distribution.")
    args = parser.parse_args(argv)
    if args.classify_window > args.horizon:
        parser.error(
            f"--classify-window ({args.classify_window}) must not exceed "
            f"--horizon ({args.horizon})"
        )
    from . import forecast, serialize
    from .automaton import DeterministicRunner

    with _mapped_errors():
        with _open(args.model) as fp:
            d, symbol_map, pst, _library = serialize.model_from_doc(serialize.load(fp))
        runner = DeterministicRunner(d)
        waits = forecast.WaitingTimes(d, symbol_map, pst, args.horizon)
        history: deque = deque(maxlen=pst.max_order)
        # By distribution, the text json.dumps makes of a record after its
        # "index"; `waits` keeps every distribution, so no id is reused.
        tails: dict[int, str] = {}
        index = 0
        with contextlib.closing(_open_input(args.input)) as fp:
            for event in read_events(fp, args.format, args.strict, _stderr_diagnostic):
                taken = runner.step(event)
                index += 1
                history.append(symbol_map.symbol_for(taken.condition))
                wd = waits(runner.state, history)
                tail = tails.get(id(wd))
                if tail is None:
                    record = {
                        "regression": forecast.forecast_regression(wd),
                        "classification": forecast.forecast_classification(
                            wd, args.classify_window, args.threshold
                        ),
                    }
                    if args.emit_dist:
                        record["dist"] = list(wd.masses)
                        record["residual"] = wd.residual
                    tail = tails[id(wd)] = ", " + json.dumps(record)[1:] + "\n"
                _emit_line('{"index": %d' % index + tail)
