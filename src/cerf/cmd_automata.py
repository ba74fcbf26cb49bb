"""The commands that build or translate automata: `compile`, `determinize`,
`complement` and `to-srem`. `cerf.cli` imports this module when it runs
one of them."""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

from . import construct
from .automaton import Sra
from .pattern import Expr, Window, unparse_pattern
from .shell import _build_stage, _load_pattern, _mapped_errors, _open, _output, _parser, _ranged


def _emit_automaton(a: Sra, out: Optional[str], dot: Optional[str], stats: bool) -> None:
    from . import serialize

    # With --dot, one memo renders each condition node once for both files.
    memo = {} if dot else None
    # The document's transitions are made as they are written; the rest of
    # it, and so any reason it cannot be made, comes before either file is
    # opened. Both are opened before either is written, so a path that
    # cannot be opened leaves stdout empty and neither file created.
    doc = serialize.lazy_automaton_doc(a, memo)
    with _output(out) as out_fp, _output(dot) as dot_fp:
        serialize.dump(doc, out_fp)
        if dot:
            serialize.to_dot(a, dot_fp, memo=memo)
    if stats:
        parts = ", ".join(f"{k}={v}" for k, v in a.stats().items())
        print(parts, file=sys.stderr)


def _source_arguments(parser: argparse.ArgumentParser, automaton_help: str) -> None:
    """PATTERN, or a saved automaton to work on instead; exactly one."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("pattern", metavar="PATTERN", nargs="?")
    source.add_argument("--automaton", help=automaton_help)


def _automaton_arguments(parser: argparse.ArgumentParser) -> None:
    """The window of the pattern, and where the automaton is written."""
    parser.add_argument("--window", type=_ranged(int, 1),
                        help="Window width; overrides any 'within' in the pattern.")
    parser.add_argument("--out", help="Write the automaton document here instead of stdout.")
    parser.add_argument("--dot", help="Also write a Graphviz rendering.")
    parser.add_argument("--stats", action="store_true",
                        help="Print state and transition counts to stderr.")


def _load_source(args: argparse.Namespace, window, build: Callable[[Expr], Sra]):
    """The predicate library and the automaton a command works on: the one
    saved at --automaton, else `build` applied to PATTERN."""
    if args.automaton is None:
        library, expr = _load_pattern(args.pattern, window)
        return library, build(expr)
    from . import serialize

    with _open(args.automaton) as fp:
        a, library = serialize.automaton_from_doc(serialize.load(fp))
    return library, a


def compile_cmd(argv: list[str]) -> None:
    """Compile a pattern file into an automaton document."""
    parser = _parser("compile", compile_cmd)
    parser.add_argument("pattern", metavar="PATTERN")
    parser.add_argument("--stage", choices=["sra", "nsra-unrolled", "dsra", "complement"],
                        default="sra", help="How far to take the pipeline. (default: %(default)s)")
    _automaton_arguments(parser)
    args = parser.parse_args(argv)
    with _mapped_errors():
        _, expr = _load_pattern(args.pattern, args.window)
        a = _build_stage(expr, args.stage)
        _emit_automaton(a, args.out, args.dot, args.stats)


def determinize(argv: list[str]) -> None:
    """Determinize a windowed pattern (or saved unrolled automaton)."""
    parser = _parser("determinize", determinize)
    _source_arguments(parser, "Determinize a saved unrolled automaton instead.")
    _automaton_arguments(parser)
    args = parser.parse_args(argv)
    from . import compiler

    with _mapped_errors():
        _, a = _load_source(args, args.window, construct.compile_windowed)
        _emit_automaton(compiler.determinize(a), args.out, args.dot, args.stats)


def complement(argv: list[str]) -> None:
    """Complete and complement a windowed pattern (or saved deterministic automaton)."""
    parser = _parser("complement", complement)
    _source_arguments(parser, "Complement a saved deterministic automaton instead.")
    _automaton_arguments(parser)
    args = parser.parse_args(argv)
    from . import compiler

    with _mapped_errors():
        _, a = _load_source(args, args.window, lambda e: _build_stage(e, "dsra"))
        _emit_automaton(compiler.complete_and_complement(a), args.out, args.dot, args.stats)


def to_srem(argv: list[str]) -> None:
    """Translate an automaton back into an equivalent pattern."""
    parser = _parser("to-srem", to_srem)
    _source_arguments(parser, "Translate a saved automaton instead.")
    parser.add_argument("--out", help="Write the pattern here instead of stdout.")
    args = parser.parse_args(argv)
    from .closure import sra_to_srem

    with _mapped_errors():
        library, a = _load_source(
            args, None, lambda e: construct.compile_expr(e.body if isinstance(e, Window) else e)
        )
        expr_back = sra_to_srem(a)
        with _output(args.out) as fp:
            fp.write(unparse_pattern(library, expr_back) + "\n")
