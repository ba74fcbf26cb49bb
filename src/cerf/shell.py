"""What the commands share: reading events and pattern files, opening
outputs, writing records, the chain of pipeline stages, and the mapping of
failures to exit codes. Every command module imports this one; none of
them imports `cerf.cli`, which `python -m cerf.cli` runs as `__main__`.

Exit codes: 0 success, 2 usage error, bad option value (a path that cannot
be opened among them) or pattern, input or document parse failure, 3 pipeline
precondition failure (window, determinism, completeness; any
PreconditionFailed), 4 configuration cap exceeded, 5 not enough training
data."""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import stat
import sys
from typing import IO, TYPE_CHECKING, Any, Callable, Iterator, Optional

from .algebra import Event, UnknownPredicate, _adopt
from .pattern import Expr, PatternSyntaxError, UnknownRegister, Window, parse

# Every command reads pattern syntax (a pattern file, or the conditions of a
# saved document), so `algebra` and `pattern` load here; each command imports
# the other modules it runs when it runs. Run from source, each module is
# compiled on import. These two are the only modules over 4,096 tokens,
# where the parser's token array doubles, and their compiles, first in
# every command, set the high-water mark of its start-up: each module
# loaded after them stays under 4,096, and tests/test_shell.py checks that.

if TYPE_CHECKING:
    from .automaton import Sra


class MalformedInput(ValueError):
    """An input line that does not decode to a well-formed event."""


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
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


# --- command-line arguments --------------------------------------------


def _parser(name: str, command: Callable) -> argparse.ArgumentParser:
    """The argument parser of `cerf NAME`, whose help is the command's
    docstring (none under `python -OO`). A usage error prints the usage
    and exits 2."""
    return argparse.ArgumentParser(
        prog=f"cerf {name}",
        description=(command.__doc__ or "").replace("\n    ", "\n"),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )


def _event_arguments(parser: argparse.ArgumentParser) -> None:
    """How the command reads its event stream."""
    parser.add_argument("--format", choices=["jsonl", "csv"], default="jsonl",
                        help="(default: %(default)s)")
    parser.add_argument("--strict", action="store_true",
                        help="Abort on the first malformed input line.")


def _ranged(kind: type, low, high=math.inf) -> Callable[[str], Any]:
    """The type of an option whose value `kind` (int or float) reads, and
    that must lie in [low, high]. NaN lies in no range: it is refused."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid {kind.__name__}") from None
        if not low <= value <= high:
            bounds = f"x>={low}" if high == math.inf else f"{low}<=x<={high}"
            raise argparse.ArgumentTypeError(f"{text} is not in the range {bounds}")
        return value

    return convert


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
    name or a value other than text or a finite number. The event holds
    the dict json decoded."""
    try:
        start = 0  # a line that opens the object at once needs no blanks skipped
        if line[:1] != "{":
            if line.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            start = _json_blanks(line, 0).end()
        record, end = _scan_json(line, start)
        if line[end:] != "\n" and end != len(line) and _json_blanks(line, end).end() != len(line):
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
        kind = value.__class__  # json's own classes; a bool's is not int
        if (kind is str or kind is int) and name:
            continue
        if not name:
            raise MalformedInput(f"line {lineno}: attribute names must be non-empty")
        if kind is not float:
            raise MalformedInput(
                f"line {lineno}: attribute {name!r} must be a string or number"
            )
        # json reads NaN, Infinity and overflowing literals such as 1e400 as
        # non-finite floats; NaN never equals itself, so such an event would
        # never deduplicate.
        if not math.isfinite(value):
            raise MalformedInput(f"line {lineno}: attribute {name!r} must be a finite number")
    return _adopt(record)


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
            try:
                yield _event_from_json_line(line, lineno)
            except MalformedInput as exc:
                if line.strip():  # a blank line is skipped, not malformed
                    report(exc)
    elif fmt == "csv":
        import csv

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
            # the header check made the names unique and non-empty
            yield _adopt(dict(zip(header, map(_coerce_csv_value, row))))
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
    print(message, file=sys.stderr)


def _emit_line(line: str) -> None:
    """One line on stdout, flushed at once, so that a reader sees each
    record as it is made, whatever stdout is."""
    sys.stdout.write(line)
    sys.stdout.flush()


def _emit_record(record: dict) -> None:
    """One JSON line, the text `json.dumps` makes of the record, through
    `_emit_line`."""
    _emit_line(json.dumps(record) + "\n")


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
    "sra" is built from the one before it. Only the stages past
    "nsra-unrolled" load `cerf.compiler`."""
    from . import construct

    if stage == "sra":
        body = expr.body if isinstance(expr, Window) else expr
        return construct.eliminate_epsilon(construct.compile_expr(body))
    if stage == "nsra-unrolled":
        return construct.compile_windowed(expr)
    from . import compiler

    if stage == "dsra":
        return compiler.determinize(_build_stage(expr, "nsra-unrolled"))
    if stage == "complement":
        return compiler.complete_and_complement(_build_stage(expr, "dsra"))
    raise ValueError(f"unknown stage {stage!r}")
