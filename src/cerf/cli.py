"""Command line front end: `cerf COMMAND ...`. Each command is defined, with
its arguments, in the module of the commands that load what it loads
(`cmd_automata`, `cmd_stream`, `cmd_oracle`), and `main` imports that
module only when it dispatches to the command, so a command compiles only
its own code. The exit codes are listed in `cerf.shell`."""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Optional, Sequence

from . import __version__

# perfbench/tracing.py imports the ingest by this name.
from .shell import read_events  # noqa: F401

# Each command's name, the module and function that define it, and its help.
_COMMANDS = {
    "compile": ("cmd_automata", "compile_cmd",
                "Compile a pattern file into an automaton document."),
    "complement": ("cmd_automata", "complement",
                   "Complete and complement a windowed pattern "
                   "(or saved deterministic automaton)."),
    "determinize": ("cmd_automata", "determinize",
                    "Determinize a windowed pattern (or saved unrolled automaton)."),
    "forecast": ("cmd_stream", "forecast_cmd",
                 "Emit per-event match forecasts for an event stream."),
    "learn": ("cmd_stream", "learn",
              "Learn a forecasting model for a windowed pattern from a training stream."),
    "oracle": ("cmd_oracle", "oracle",
               "Decide membership directly from the pattern, without automata."),
    "recognize": ("cmd_stream", "recognize",
                  "Run a pattern over an event stream, reporting match indexes as JSONL."),
    "to-srem": ("cmd_automata", "to_srem",
                "Translate an automaton back into an equivalent pattern."),
}


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Symbolic register automata for event recognition and forecasting."""
    args = sys.argv[1:] if argv is None else list(argv)
    # The options before the command take no value, so the first argument
    # that is no option names the command, and the rest are its own.
    split = next((i + 1 for i, arg in enumerate(args) if not arg.startswith("-")), len(args))
    parser = argparse.ArgumentParser(prog="cerf", description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(
        dest="command", metavar="COMMAND", required=True,
        help="one of these; 'cerf COMMAND --help' describes it",
    )
    for name, (_, _, summary) in _COMMANDS.items():
        commands.add_parser(name, help=summary, add_help=False)
    module, function, _ = _COMMANDS[parser.parse_args(args[:split]).command]
    command = getattr(importlib.import_module(f".{module}", __package__), function)
    try:
        command(args[split:])
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        raise SystemExit(1)
    except BrokenPipeError:
        # The reader of stdout is gone. Python flushes stdout on exit, which
        # would fail the same way, so stdout is pointed at the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)


if __name__ == "__main__":
    main()
