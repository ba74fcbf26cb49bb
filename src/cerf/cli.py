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
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from . import __version__
from .algebra import Event, UnknownPredicate
from .pattern import (
    Expr,
    Oracle,
    PatternSyntaxError,
    UnknownRegister,
    Window,
    parse,
    unparse_pattern,
)

# Every command reads pattern syntax (a pattern file, or the conditions of a
# saved document), so `algebra` and `pattern` load here; each command imports
# the other modules it runs when it runs. Run from source, each module is
# compiled on import, and compiling these two before click is loaded keeps
# their compile off every command's peak RSS.
import click

if TYPE_CHECKING:
    from .automaton import Sra


class MalformedInput(ValueError):
    """An input line that does not decode to a well-formed event."""


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


@contextlib.contextmanager
def _mapped_errors():
    """Report each failure a user can cause as one error line and its
    documented exit code; anything else propagates. The classes are
    imported only when a command fails, so no command loads a module just
    to name what it might raise."""
    try:
        yield
    except Exception as exc:
        from .automaton import ConfigurationCapExceeded, PreconditionFailed
        from .forecast import InsufficientData
        from .serialize import MalformedDocument

        if isinstance(exc, ConfigurationCapExceeded):
            _fail(4, str(exc))
        if isinstance(exc, InsufficientData):
            _fail(5, str(exc))
        if isinstance(exc, PatternSyntaxError):
            _fail(2, str(exc))
        if isinstance(exc, (UnknownPredicate, UnknownRegister)):
            _fail(2, str(exc.args[0] if exc.args else exc))
        if isinstance(exc, (MalformedInput, MalformedDocument)):
            _fail(2, str(exc))
        if isinstance(exc, PreconditionFailed):
            _fail(3, str(exc))
        raise


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


# What json.loads runs, as one C call: the scanner, from the first non-blank.
_scan_json = json.JSONDecoder().scan_once
_json_blanks = json.decoder.WHITESPACE.match


def _event_from_json_line(line: str, lineno: int) -> Event:
    """The event of one JSON object line, else MalformedInput with the
    reason `json.loads` gives, or naming the first attribute with an empty
    name or a value other than text or a finite number."""
    try:
        if line.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        record, end = _scan_json(line, _json_blanks(line, 0).end())
        if _json_blanks(line, end).end() != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    except StopIteration:
        raise MalformedInput(f"line {lineno}: invalid JSON (Expecting value)")
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"line {lineno}: invalid JSON ({exc.msg})")
    except ValueError:  # an integer literal past Python's digit limit
        raise MalformedInput(f"line {lineno}: invalid JSON (a number has too many digits)")
    except RecursionError:
        raise MalformedInput(f"line {lineno}: invalid JSON (nested too deeply)")
    if record.__class__ is not dict or not record:
        raise MalformedInput(f"line {lineno}: expected a non-empty JSON object")
    for name, value in record.items():
        if not name:
            raise MalformedInput(f"line {lineno}: attribute names must be non-empty")
        kind = value.__class__  # json's own classes; a bool's is not int
        if kind is float:
            # json reads NaN, Infinity and overflowing literals such as
            # 1e400 as non-finite floats; NaN never equals itself, so such
            # an event would never deduplicate.
            if not math.isfinite(value):
                raise MalformedInput(f"line {lineno}: attribute {name!r} must be a finite number")
        elif kind is not str and kind is not int:
            raise MalformedInput(
                f"line {lineno}: attribute {name!r} must be a string or number"
            )
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
    from . import compiler

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
    from . import serialize

    # With --dot, one memo renders each condition node once for both files.
    memo = {} if dot else None
    doc = serialize.automaton_to_doc(a, memo)
    # Both files are opened before either is written, so a path that cannot
    # be opened leaves stdout empty and neither file created.
    with _output(out) as out_fp, _output(dot) as dot_fp:
        serialize.dump(doc, out_fp)
        if dot:
            serialize.to_dot(a, dot_fp, memo=memo)
    if stats:
        parts = ", ".join(f"{k}={v}" for k, v in a.stats().items())
        click.echo(parts, err=True)


def _emit_line(line: str) -> None:
    """One line on stdout, flushed at once, so that a reader sees each
    record as it is made, whatever stdout is."""
    sys.stdout.write(line)
    sys.stdout.flush()


def _emit_record(record: dict) -> None:
    """One JSON line, as `click.echo` writes it, through `_emit_line`."""
    _emit_line(json.dumps(record) + "\n")


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
              help="Maximum simultaneous configurations of an unwindowed pattern; "
                   "a windowed pattern runs as one configuration.")
@click.option("--report-empty-match", is_flag=True,
              help="Also report a match at index 0 when the pattern accepts the empty stream.")
@click.option("--strict", is_flag=True, help="Abort on the first malformed input line.")
def recognize(pattern, input_path, fmt, window, cap, report_empty_match, strict):
    """Run a pattern over an event stream, reporting match indexes as JSONL."""
    from . import compiler
    from .automaton import StreamEngine, SubsetRunner

    with _mapped_errors():
        _, expr = _load_pattern(pattern, window)
        if isinstance(expr, Window):
            engine = SubsetRunner(compiler.never_sinking(_build_stage(expr, "nsra-unrolled")))
        else:
            engine = StreamEngine(compiler.streaming_automaton(_build_stage(expr, "sra")), cap=cap)
        with contextlib.closing(_open_input(input_path)) as fp:
            # each record is the text json.dumps makes of {"index": n}
            if report_empty_match and engine.matched_at_start:
                _emit_line('{"index": 0}\n')
            for event in read_events(fp, fmt, strict, _stderr_diagnostic):
                if engine.step(event):
                    _emit_line('{"index": %d}\n' % engine.consumed)


def _load_source(pattern, automaton_path, window, build: Callable[[Expr], Sra]):
    """The predicate library and the automaton a command works on: the one
    saved at automaton_path, else `build` applied to the pattern."""
    if (pattern is None) == (automaton_path is None):
        raise click.UsageError("give either PATTERN or --automaton")
    if automaton_path is None:
        library, expr = _load_pattern(pattern, window)
        return library, build(expr)
    from . import serialize

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
    from . import compiler

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
    from . import compiler

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
    from . import compiler

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
    from . import forecast, serialize
    from .automaton import DeterministicRunner

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


def _digits(count: int, index: int) -> list[int]:
    """The string at `index` in enumeration order over `count` events, as
    universe indexes: shorter strings first, then as itertools.product
    orders them, so the indexes are the base-`count` digits of the string's
    rank among those of its length, most significant first."""
    length = 0
    while index >= count**length:
        index -= count**length
        length += 1
    digits = [0] * length
    for place in reversed(range(length)):
        index, digits[place] = divmod(index, count)
    return digits


def _verdicts(
    oracle: Oracle, events: list[Event], picked: Iterable[int]
) -> Iterator[tuple[list[int], bool]]:
    """(universe indexes, accepted) of each picked string, folded through a
    lazily built table of the oracle's configurations over the universe.
    Each configuration is numbered when first reached, and its successor
    on a universe event is one `Oracle.step` on the first lookup that
    misses, so memory is bounded by the configurations reached times the
    universe, never by the strings folded."""
    ids = {oracle.start(): 0}
    configs = list(ids)
    successors: list[list[Optional[int]]] = [[None] * len(events)]
    accepting = [bool(Oracle.derived(configs[0]))]
    for index in picked:
        digits, state = _digits(len(events), index), 0
        for digit in digits:
            row = successors[state]
            if row[digit] is None:
                config = oracle.step(configs[state], events[digit])
                if config not in ids:
                    ids[config] = len(configs)
                    configs.append(config)
                    successors.append([None] * len(events))
                    accepting.append(bool(Oracle.derived(config)))
                row[digit] = ids[config]
            state = row[digit]
        yield digits, accepting[state]


@main.command()
@click.argument("pattern", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", default=None,
              help="Event stream to test for membership as one complete string.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--enumerate", "enumerate_", is_flag=True,
              help="Enumerate strings over a finite universe instead.")
@click.option("--universe", type=click.Path(exists=True, dir_okay=False, allow_dash=True),
              default=None, help="Events making up the enumeration universe, '-' for stdin.")
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
    length. --enumerate numbers each configuration the strings over the
    universe reach and steps each (configuration, event) once, so a string
    costs one table lookup per event."""
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
            # Each event is encoded once; a record is then the text
            # json.dumps would make of {"events": [...], "accepts": ...}.
            texts = [json.dumps(event.as_dict()) for event in events]
            for digits, accepted in _verdicts(derivatives, events, picked):
                sys.stdout.write(
                    '{"events": [' + ", ".join([texts[d] for d in digits])
                    + '], "accepts": ' + ("true" if accepted else "false") + "}\n"
                )
                sys.stdout.flush()
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
