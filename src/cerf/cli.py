"""Command line front end.

Exit codes: 0 success, 2 bad option value (a path that cannot be opened
among them) or pattern, input or document parse failure, 3 pipeline
precondition failure (window, determinism, completeness; any
PreconditionFailed), 4 configuration cap exceeded, 5 not enough training
data."""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import random
import stat
import sys
from collections import deque
from typing import IO, Callable, Iterator, Optional

from . import __version__, compiler, forecast, serialize
from .algebra import Event, UnknownPredicate
from .automaton import (
    ConfigurationCapExceeded,
    DeterministicRunner,
    PreconditionFailed,
    Sra,
    StreamEngine,
)
from .forecast import InsufficientData, Pst, SymbolMap, symbolize
from .pattern import (
    Expr,
    Oracle,
    PatternSyntaxError,
    UnknownRegister,
    Window,
    parse,
    unparse_pattern,
)
from .serialize import MalformedDocument

# Imported after the package's modules: run from source, each of them is
# compiled on import, and compiling them before click is loaded keeps about
# 0.7 MB (4%) off every command's peak RSS.
import click


class MalformedInput(ValueError):
    """An input line that does not decode to a well-formed event."""


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


@contextlib.contextmanager
def _mapped_errors():
    try:
        yield
    except ConfigurationCapExceeded as exc:
        _fail(4, str(exc))
    except InsufficientData as exc:
        _fail(5, str(exc))
    except PatternSyntaxError as exc:
        _fail(2, str(exc))
    except (UnknownPredicate, UnknownRegister) as exc:
        _fail(2, str(exc.args[0] if exc.args else exc))
    except (MalformedInput, MalformedDocument) as exc:
        _fail(2, str(exc))
    except PreconditionFailed as exc:
        _fail(3, str(exc))


class _Range(click.FloatRange):
    """A FloatRange that also refuses NaN, which compares false against
    both bounds and so passes FloatRange."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if math.isnan(rv):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return rv


# --- event ingestion ---------------------------------------------------


def _coerce_csv_value(text: str):
    """A CSV cell as an integer, else a finite float, else the text itself.
    Only plain ASCII numbers convert: `nan`, `inf`, `1_000` and non-ASCII
    digits stay text, as they would be in JSON."""
    if not text.isascii() or "_" in text:
        return text
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def _event_from_json_line(line: str, lineno: int) -> Event:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"line {lineno}: invalid JSON ({exc.msg})")
    except ValueError:  # an integer literal past Python's digit limit
        raise MalformedInput(f"line {lineno}: invalid JSON (a number has too many digits)")
    except RecursionError:
        raise MalformedInput(f"line {lineno}: invalid JSON (nested too deeply)")
    if not isinstance(record, dict) or not record:
        raise MalformedInput(f"line {lineno}: expected a non-empty JSON object")
    for name, value in record.items():
        if not name:
            raise MalformedInput(f"line {lineno}: attribute names must be non-empty")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise MalformedInput(
                f"line {lineno}: attribute {name!r} must be a string or number"
            )
        # json reads NaN, Infinity and overflowing literals such as 1e400
        # as non-finite floats; NaN never equals itself, so such an event
        # would never deduplicate.
        if isinstance(value, float) and not math.isfinite(value):
            raise MalformedInput(f"line {lineno}: attribute {name!r} must be a finite number")
    return Event.from_mapping(record)


def read_events(
    fp: IO[str],
    fmt: str = "jsonl",
    strict: bool = False,
    on_error: Optional[Callable[[str], None]] = None,
) -> Iterator[Event]:
    """Decode an event stream; every line becomes an event or a diagnostic.

    Malformed lines raise MalformedInput when strict, otherwise they are
    reported through on_error and skipped. One leading byte-order mark is
    dropped, as a file or stdin saved with one reads like one without."""

    def report(exc: MalformedInput) -> None:
        if strict:
            raise exc
        if on_error is not None:
            on_error(str(exc))

    lines = iter(fp)
    first = next(lines, None)
    if first is not None:
        lines = itertools.chain([first.removeprefix("\ufeff")], lines)
    if fmt == "jsonl":
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                yield _event_from_json_line(line, lineno)
            except MalformedInput as exc:
                report(exc)
    elif fmt == "csv":
        reader = csv.reader(lines)
        header: Optional[list[str]] = None
        for lineno in itertools.count(1):
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                # a cell past csv.field_size_limit(); the reader resumes at
                # the next row, but a bad header is fatal
                if header is None:
                    raise MalformedInput(f"line {lineno}: bad CSV header ({exc})")
                report(MalformedInput(f"line {lineno}: {exc}"))
                continue
            if not row:
                continue
            if header is None:
                header = [name.strip() for name in row]
                if len(set(header)) != len(header) or any(not h for h in header):
                    raise MalformedInput(f"line {lineno}: bad CSV header")
                continue
            if len(row) != len(header):
                report(
                    MalformedInput(
                        f"line {lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                )
                continue
            yield Event.of(**{h: _coerce_csv_value(v) for h, v in zip(header, row)})
    else:
        raise ValueError(f"unknown input format {fmt!r}")


def _cannot_open(path: str, exc: OSError) -> None:
    """A file that cannot be opened is a bad option value, reported as one
    error line (exit 2)."""
    _fail(2, f"cannot open {path}: {exc.strerror or exc}")


def _open(path: str) -> IO[str]:
    """The named file as text, for reading."""
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        _cannot_open(path, exc)


def _open_input(path: str) -> IO[str]:
    return sys.stdin if path == "-" else _open(path)


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[IO[str]]:
    """A context holding the named file opened for writing, else stdout.

    The file is opened on entry, so a command enters the context before its
    work and a path that cannot be opened fails it (exit 2) before that work
    is done. The file is not truncated on opening: what the context writes
    replaces its content when the context ends normally. When the context
    ends in an error, a command failure included, a file it created is
    removed, and one that was there before keeps what the context did not
    overwrite."""
    if not path:
        yield sys.stdout
        return
    try:
        try:
            fd, created = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
        except FileExistsError:
            fd, created = os.open(path, os.O_WRONLY), False
    except OSError as exc:
        _cannot_open(path, exc)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    with os.fdopen(fd, "w", encoding="utf-8") as fp:
        try:
            yield fp
        except BaseException:
            if created:
                os.remove(path)
            raise
        if regular:
            fp.truncate()


def _stderr_diagnostic(message: str) -> None:
    click.echo(message, err=True)


# --- pattern and stage helpers ------------------------------------------


def _load_pattern(path: str, window: Optional[int]):
    with _open(path) as fp:
        text = fp.read()
    library, expr = parse(text.removeprefix("\ufeff"))
    if window is not None:
        body = expr.body if isinstance(expr, Window) else expr
        expr = Window(body, window)
    return library, expr


def _build_stage(expr: Expr, stage: str) -> Sra:
    """The pattern's automaton at one stage of the pipeline; each stage past
    "sra" is built from the one before it."""
    if stage == "sra":
        body = expr.body if isinstance(expr, Window) else expr
        return compiler.eliminate_epsilon(compiler.compile_expr(body))
    if stage == "nsra-unrolled":
        return compiler.compile_windowed(expr)
    if stage == "dsra":
        return compiler.determinize(_build_stage(expr, "nsra-unrolled"))
    if stage == "complement":
        return compiler.complete_and_complement(_build_stage(expr, "dsra"))
    raise ValueError(f"unknown stage {stage!r}")


def _emit_automaton(a: Sra, out: Optional[str], dot: Optional[str], stats: bool) -> None:
    # With --dot, one memo renders each condition node once for both files.
    memo = {} if dot else None
    doc = serialize.automaton_to_doc(a, memo)
    # Both files are opened before either is written, so a path that cannot
    # be opened leaves stdout empty and neither file created.
    with _output(out) as out_fp, _output(dot) as dot_fp:
        serialize.dump(doc, out_fp)
        if dot:
            dot_fp.write(serialize.to_dot(a, memo=memo))
    if stats:
        parts = ", ".join(f"{k}={v}" for k, v in a.stats().items())
        click.echo(parts, err=True)


def _emit_record(record: dict) -> None:
    click.echo(json.dumps(record))


# --- commands -----------------------------------------------------------


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Symbolic register automata for event recognition and forecasting."""


@main.command(name="compile")
@click.argument("pattern", type=click.Path(exists=True, dir_okay=False))
@click.option("--stage", type=click.Choice(["sra", "nsra-unrolled", "dsra", "complement"]),
              default="sra", show_default=True, help="How far to take the pipeline.")
@click.option("--window", type=click.IntRange(min=1), default=None,
              help="Window width; overrides any 'within' in the pattern.")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write the automaton document here instead of stdout.")
@click.option("--dot", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Also write a Graphviz rendering.")
@click.option("--stats", is_flag=True, help="Print state and transition counts to stderr.")
def compile_cmd(pattern, stage, window, out, dot, stats):
    """Compile a pattern file into an automaton document."""
    with _mapped_errors():
        _, expr = _load_pattern(pattern, window)
        a = _build_stage(expr, stage)
        _emit_automaton(a, out, dot, stats)


@main.command()
@click.argument("pattern", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", default="-", show_default=True,
              help="Event stream file, '-' for stdin.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--window", type=click.IntRange(min=1), default=None,
              help="Window width; overrides any 'within' in the pattern.")
@click.option("--cap", type=click.IntRange(min=1), default=100_000, show_default=True,
              help="Maximum simultaneous configurations.")
@click.option("--report-empty-match", is_flag=True,
              help="Also report a match at index 0 when the pattern accepts the empty stream.")
@click.option("--strict", is_flag=True, help="Abort on the first malformed input line.")
def recognize(pattern, input_path, fmt, window, cap, report_empty_match, strict):
    """Run a pattern over an event stream, reporting match indexes as JSONL."""
    with _mapped_errors():
        _, expr = _load_pattern(pattern, window)
        stage = "nsra-unrolled" if isinstance(expr, Window) else "sra"
        engine = StreamEngine(compiler.streaming_automaton(_build_stage(expr, stage)), cap=cap)
        with contextlib.closing(_open_input(input_path)) as fp:
            if report_empty_match and engine.matched_at_start:
                _emit_record({"index": 0})
            for event in read_events(fp, fmt, strict, _stderr_diagnostic):
                if engine.step(event):
                    _emit_record({"index": engine.consumed})


def _load_source(pattern, automaton_path, window, build: Callable[[Expr], Sra]):
    """The predicate library and the automaton a command works on: the one
    saved at automaton_path, else `build` applied to the pattern."""
    if (pattern is None) == (automaton_path is None):
        raise click.UsageError("give either PATTERN or --automaton")
    if automaton_path is None:
        library, expr = _load_pattern(pattern, window)
        return library, build(expr)
    with _open(automaton_path) as fp:
        a, library = serialize.automaton_from_doc(serialize.load(fp))
    return library, a


@main.command()
@click.argument("pattern", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--automaton", "automaton_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Determinize a saved unrolled automaton instead.")
@click.option("--window", type=click.IntRange(min=1), default=None)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--dot", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--stats", is_flag=True)
def determinize(pattern, automaton_path, window, out, dot, stats):
    """Determinize a windowed pattern (or saved unrolled automaton)."""
    with _mapped_errors():
        _, a = _load_source(pattern, automaton_path, window, compiler.compile_windowed)
        _emit_automaton(compiler.determinize(a), out, dot, stats)


@main.command()
@click.argument("pattern", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--automaton", "automaton_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Complement a saved deterministic automaton instead.")
@click.option("--window", type=click.IntRange(min=1), default=None)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--dot", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--stats", is_flag=True)
def complement(pattern, automaton_path, window, out, dot, stats):
    """Complete and complement a windowed pattern (or saved deterministic automaton)."""
    with _mapped_errors():
        _, a = _load_source(pattern, automaton_path, window, lambda e: _build_stage(e, "dsra"))
        _emit_automaton(compiler.complete_and_complement(a), out, dot, stats)


@main.command(name="to-srem")
@click.argument("pattern", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--automaton", "automaton_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Translate a saved automaton instead.")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def to_srem(pattern, automaton_path, out):
    """Translate an automaton back into an equivalent pattern."""
    with _mapped_errors():
        library, a = _load_source(
            pattern, automaton_path, None,
            lambda e: compiler.compile_expr(e.body if isinstance(e, Window) else e),
        )
        expr_back = compiler.sra_to_srem(a)
        with _output(out) as fp:
            fp.write(unparse_pattern(library, expr_back) + "\n")


@main.command()
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
    # The model file is opened before training, so a bad --out fails at once,
    # and a failed training leaves no model file behind.
    with _mapped_errors(), _output(out) as out_fp:
        _, expr = _load_pattern(pattern, window)
        d = compiler.complete(_build_stage(expr, "dsra"))
        symbol_map = SymbolMap.for_automaton(d)
        with contextlib.closing(_open_input(train)) as fp:
            events = list(read_events(fp, fmt, strict, _stderr_diagnostic))
        symbols = symbolize(d, events, symbol_map)
        pst = Pst.learn(
            symbols,
            max_order=max_order,
            p_min=p_min,
            ratio=ratio,
            gamma=gamma,
            alpha=alpha,
            alphabet=symbol_map.symbols,
        )
        serialize.dump(serialize.model_to_doc(d, symbol_map, pst), out_fp)
        click.echo(
            f"trained on {len(symbols)} symbols, tree has {len(pst.nodes)} contexts",
            err=True,
        )


@main.command(name="forecast")
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
    with _mapped_errors():
        with _open(model) as fp:
            d, symbol_map, pst, _library = serialize.model_from_doc(serialize.load(fp))
        runner = DeterministicRunner(d)
        waits = forecast.WaitingTimes(d, symbol_map, pst, horizon)
        history: deque = deque(maxlen=pst.max_order)
        index = 0
        with contextlib.closing(_open_input(input_path)) as fp:
            for event in read_events(fp, fmt, strict, _stderr_diagnostic):
                taken = runner.step(event)
                index += 1
                history.append(symbol_map.symbol_for(taken.condition))
                wd = waits(runner.state, history)
                record = {
                    "index": index,
                    "regression": forecast.forecast_regression(wd),
                    "classification": forecast.forecast_classification(
                        wd, classify_window, threshold
                    ),
                }
                if emit_dist:
                    record["dist"] = list(wd.masses)
                    record["residual"] = wd.residual
                _emit_record(record)


def _event_payload(event: Event) -> dict:
    return event.as_dict()


# The most configurations `oracle --enumerate` keeps for deriving longer
# strings from; the least recently used beyond this are dropped.
_PREFIX_CACHE = 4096


def _position(count: int, index: int) -> tuple[int, int]:
    """(length, rank) of the string at `index` in enumeration order over
    `count` events: shorter strings first, then as itertools.product orders
    them, so the base-`count` digits of the rank index the string's
    events."""
    length = 0
    while index >= count**length:
        index -= count**length
        length += 1
    return length, index


def _string_at(events: list[Event], length: int, rank: int) -> list[Event]:
    string = []
    for _ in range(length):
        rank, digit = divmod(rank, len(events))
        string.append(events[digit])
    return string[::-1]


def _derived(oracle: Oracle, events: list[Event], cache: dict, length: int, rank: int):
    """The oracle's configuration after the string at (length, rank): the
    nearest prefix `cache` holds (the empty string if none), stepped over
    the rest. A loop walks back to that prefix, so any length works. Each
    configuration reached is kept in `cache`, most recently used last."""
    digits = []
    while length and (length, rank) not in cache:
        rank, digit = divmod(rank, len(events))
        digits.append(digit)
        length -= 1
    key = (length, rank)
    pairs = cache.pop(key) if key in cache else oracle.start()
    cache[key] = pairs
    for digit in reversed(digits):
        pairs = oracle.step(pairs, events[digit])
        length, rank = length + 1, rank * len(events) + digit
        cache[(length, rank)] = pairs
        if len(cache) > _PREFIX_CACHE:
            del cache[next(iter(cache))]
    return pairs


@main.command()
@click.argument("pattern", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", default=None,
              help="Event stream to test for membership as one complete string.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--enumerate", "enumerate_", is_flag=True,
              help="Enumerate strings over a finite universe instead.")
@click.option("--universe", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Events making up the enumeration universe.")
@click.option("--max-len", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--sample", type=click.IntRange(min=1), default=None,
              help="Randomly sample this many strings instead of all of them.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for --sample.")
@click.option("--strict", is_flag=True, help="Abort on the first malformed input line.")
def oracle(pattern, input_path, fmt, enumerate_, universe, max_len, sample, seed, strict):
    """Decide membership directly from the pattern, without automata.

    The ground truth for checking the pipeline: it folds the pattern's
    derivatives over each string, holding only the live (residual,
    valuation) pairs. --input reads the stream once, in time linear in its
    length. --enumerate derives each string from its one shorter prefix,
    kept in a bounded cache of recent prefixes."""
    with _mapped_errors():
        _, expr = _load_pattern(pattern, None)
        derivatives = Oracle(expr)
        if enumerate_:
            if universe is None:
                raise click.UsageError("--enumerate needs --universe")
            with contextlib.closing(_open_input(universe)) as fp:
                events = list(read_events(fp, fmt, strict, _stderr_diagnostic))
            total = sum(len(events) ** n for n in range(max_len + 1))
            picked = range(total)
            if sample is not None and sample < total:
                # sample() only indexes its population, so drawing indices
                # picks the strings a drawn list of all strings would.
                picked = random.Random(seed).sample(picked, sample)
            cache: dict = {}
            for index in picked:
                length, rank = _position(len(events), index)
                pairs = _derived(derivatives, events, cache, length, rank)
                _emit_record(
                    {
                        "events": [_event_payload(ev) for ev in _string_at(events, length, rank)],
                        "accepts": bool(Oracle.derived(pairs)),
                    }
                )
        else:
            if input_path is None:
                raise click.UsageError("give --input or --enumerate")
            pairs = derivatives.start()
            with contextlib.closing(_open_input(input_path)) as fp:
                for event in read_events(fp, fmt, strict, _stderr_diagnostic):
                    pairs = derivatives.step(pairs, event)
            _emit_record({"accepts": bool(Oracle.derived(pairs))})


if __name__ == "__main__":
    main()
