"""Command line front end: the `cerf` group. Each command is defined in
the module of the commands that load what it loads (`cmd_automata`,
`cmd_stream`, `cmd_oracle`), and the group imports that module only when
it dispatches to the command, so a command compiles only its own code.
The exit codes are listed in `cerf.shell`."""

from __future__ import annotations

import importlib

from . import __version__

# `algebra` and `pattern` compile before click loads (see `cerf.shell`).
# perfbench/tracing.py imports the ingest by this name.
from .shell import read_events  # noqa: F401

import click

# Each command's name, and the module and function that define it.
_COMMANDS = {
    "compile": ("cmd_automata", "compile_cmd"),
    "complement": ("cmd_automata", "complement"),
    "determinize": ("cmd_automata", "determinize"),
    "forecast": ("cmd_stream", "forecast_cmd"),
    "learn": ("cmd_stream", "learn"),
    "oracle": ("cmd_oracle", "oracle"),
    "recognize": ("cmd_stream", "recognize"),
    "to-srem": ("cmd_automata", "to_srem"),
}


class _LazyGroup(click.Group):
    """A group whose commands are imported when they are looked up."""

    def list_commands(self, ctx: click.Context) -> list[str]:
        return sorted(_COMMANDS)

    def get_command(self, ctx: click.Context, name: str):
        if name not in _COMMANDS:
            return None
        module, function = _COMMANDS[name]
        return getattr(importlib.import_module(f".{module}", __package__), function)


@click.group(cls=_LazyGroup)
@click.version_option(version=__version__)
def main() -> None:
    """Symbolic register automata for event recognition and forecasting."""


if __name__ == "__main__":
    main()
