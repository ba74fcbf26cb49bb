"""The commands that build or translate automata: `compile`, `determinize`,
`complement` and `to-srem`. `cerf.cli` imports this module when it runs
one of them."""

from __future__ import annotations

from typing import Callable, Optional

import click

from . import construct
from .automaton import Sra
from .pattern import Expr, Window, unparse_pattern
from .shell import _build_stage, _load_pattern, _mapped_errors, _open, _output


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
        click.echo(parts, err=True)


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


@click.command(name="compile")
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


@click.command()
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
        _, a = _load_source(pattern, automaton_path, window, construct.compile_windowed)
        _emit_automaton(compiler.determinize(a), out, dot, stats)


@click.command()
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


@click.command(name="to-srem")
@click.argument("pattern", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--automaton", "automaton_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Translate a saved automaton instead.")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def to_srem(pattern, automaton_path, out):
    """Translate an automaton back into an equivalent pattern."""
    from .closure import sra_to_srem

    with _mapped_errors():
        library, a = _load_source(
            pattern, automaton_path, None,
            lambda e: construct.compile_expr(e.body if isinstance(e, Window) else e),
        )
        expr_back = sra_to_srem(a)
        with _output(out) as fp:
            fp.write(unparse_pattern(library, expr_back) + "\n")
