"""The traced benchmark replay, perfbench/tracing.py, calls `cerf` by name:
it imports names from `cerf` modules and reads or rebinds attributes of
`compiler`, `serialize` and `forecast`. A name moved out of the module it is
read from would break the replay without failing any other test, so this
reads the replay's source and checks that each of those names resolves."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _cerf_names(source: str) -> set[tuple[str, str]]:
    """(module, name) for every name the source imports from a `cerf`
    module, and for every attribute it reads or rebinds on a `cerf` module
    it imported whole (`from cerf import compiler`, then `compiler.x`)."""
    tree = ast.parse(source)
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cerf":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "cerf":
                    modules[alias.asname or alias.name] = f"cerf.{alias.name}"
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "cerf" for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule, as in `from cerf import compiler`
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.fixture(scope="module")
def traced_names() -> set[tuple[str, str]]:
    return _cerf_names(TRACING.read_text(encoding="utf-8"))


def test_the_replay_reads_the_names_it_measures(traced_names):
    # the walk finds what the replay is known to use, so an empty or partial
    # parse cannot pass the check below
    assert {
        ("cerf", "compiler"),
        ("cerf.cli", "read_events"),
        ("cerf.pattern", "accepts"),
        ("cerf.compiler", "minterms"),
        ("cerf.compiler", "entails"),
        ("cerf.compiler", "determinize"),
        ("cerf.serialize", "dump"),
        ("cerf.forecast", "waiting_time"),
    } <= traced_names


def test_every_name_the_replay_uses_resolves(traced_names):
    missing = sorted(f"{module}.{name}" for module, name in traced_names
                     if not _resolves(module, name))
    assert not missing


def test_a_moved_name_is_reported():
    source = "from cerf import compiler\nfrom cerf.pattern import Oracle\ncompiler.sra_to_srem\n"
    names = _cerf_names(source)
    assert names == {("cerf", "compiler"), ("cerf.pattern", "Oracle"),
                     ("cerf.compiler", "sra_to_srem")}
    assert [n for n in sorted(names) if not _resolves(*n)] == [
        ("cerf.compiler", "sra_to_srem"), ("cerf.pattern", "Oracle")]
