"""Renderings of automata as text: versioned JSON documents for automata,
symbol maps, prediction suffix trees and the combined learned model, which
enable compile-once/run-many, and Graphviz DOT for automata.

Conditions are stored in pattern syntax and predicates as their declaration
lines, so a document is self-contained: loading re-declares the predicates
and re-parses each condition against them. Both renderings of an automaton
can share one memo of condition texts (see `unparse_condition`), so each
condition node is rendered once for both."""

from __future__ import annotations

import functools
import json
from typing import IO, Optional, Union

from .algebra import Atom, Condition, PredicateLibrary, Register, _walk_distinct
from .automaton import Sra, Transition
from .forecast import Pst, SymbolMap
from .pattern import parse_condition, parse_predicates, unparse_condition

FORMAT_SRA = "sra"
FORMAT_PST = "pst"
FORMAT_MODEL = "cerf-model"
VERSION = 1


class MalformedDocument(ValueError):
    """A document that is not JSON, lacks a key or holds one of the wrong
    type, or describes an automaton or tree that breaks its invariants."""


def _validated(from_doc):
    """Report any failure to rebuild a document as MalformedDocument."""

    @functools.wraps(from_doc)
    def checked(doc: dict):
        try:
            return from_doc(doc)
        except MalformedDocument:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDocument(f"malformed document ({type(exc).__name__}: {exc})") from exc

    return checked


def _predicate_sources(conditions) -> list[str]:
    """The declaration lines of every predicate the conditions use, in one
    walk over their distinct nodes."""
    nodes = _walk_distinct(c for c in conditions if c is not None)
    preds = {node.predicate for node in nodes if isinstance(node, Atom)}
    sources = []
    for pred in sorted(preds, key=lambda p: p.name):
        if not pred.source:
            raise ValueError(
                f"predicate {pred.name} has no declaration source and cannot be serialized"
            )
        sources.append(pred.source)
    return sources


def automaton_to_doc(a: Sra, memo: Optional[dict] = None) -> dict:
    """The automaton's document. Condition texts are kept by node in `memo`
    (a fresh one if none is given), as `unparse_condition` keeps them, so a
    memo given must not outlive `a`, which holds every node it is keyed by."""
    memo = {} if memo is None else memo
    return {
        "format": FORMAT_SRA,
        "version": VERSION,
        "predicates": _predicate_sources(t.condition for t in a.transitions),
        "registers": sorted(r.name for r in a.registers),
        "states": sorted(a.states),
        "start": a.start,
        "finals": sorted(a.finals),
        "window": a.window,
        "deterministic": a.deterministic,
        "transitions": [
            {
                "source": t.source,
                "target": t.target,
                "condition": None if t.condition is None else unparse_condition(t.condition, 0, memo),
                "writes": sorted(r.name for r in t.writes),
            }
            for t in a.transitions
        ],
    }


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(a: Sra, name: str = "sra", memo: Optional[dict] = None) -> str:
    """Graphviz rendering: finals double-circled, start marked, labels in
    pattern syntax with the written registers after a down arrow. `memo` is
    used as `automaton_to_doc` uses it."""
    memo = {} if memo is None else memo
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for state in sorted(a.states):
        shape = "doublecircle" if state in a.finals else "circle"
        lines.append(f"  {_dot_quote(state)} [shape={shape}];")
    lines.append(f"  __start -> {_dot_quote(a.start)};")
    for t in sorted(a.transitions, key=lambda t: (t.source, t.target)):
        if t.is_epsilon:
            label = "ε"
        else:
            label = unparse_condition(t.condition, 0, memo)
            if t.writes:
                label += " ↓ " + ",".join(sorted(r.name for r in t.writes))
        lines.append(
            f"  {_dot_quote(t.source)} -> {_dot_quote(t.target)} [label={_dot_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _check_header(doc: dict, expected: str) -> None:
    if not isinstance(doc, dict) or doc.get("format") != expected:
        raise MalformedDocument(f"not a {expected} document")
    if doc.get("version") != VERSION:
        raise MalformedDocument(f"unsupported {expected} document version {doc.get('version')!r}")


def _condition_parser(library: PredicateLibrary, register_names: list[str]):
    """parse_condition against one document's predicates and registers,
    parsing each distinct text once. A text that is not a string goes
    straight to parse_condition, which refuses it as it always has."""
    memo: dict[str, Condition] = {}

    def parsed(text) -> Condition:
        if not isinstance(text, str) or text not in memo:
            memo[text] = parse_condition(text, library, register_names)
        return memo[text]

    return parsed


@_validated
def automaton_from_doc(doc: dict) -> tuple[Sra, PredicateLibrary]:
    a, library, _ = _read_automaton(doc)
    return a, library


def _read_automaton(doc: dict):
    """The automaton, its predicate library and the condition parser used."""
    _check_header(doc, FORMAT_SRA)
    window = doc["window"]
    if type(window) not in (int, type(None)) or type(doc["deterministic"]) is not bool:
        raise TypeError("window must be an integer or null, deterministic a boolean")
    # Names are sorted when written out, which mixed types cannot be.
    names = [*doc["states"], doc["start"], *doc["finals"], *doc["registers"]]
    names += [n for t in doc["transitions"] for n in (t["source"], t["target"], *t["writes"])]
    if not all(isinstance(name, str) for name in names):
        raise TypeError("state and register names must be strings")
    library = parse_predicates("\n".join(doc["predicates"]))
    register_names = list(doc["registers"])
    parsed = _condition_parser(library, register_names)
    transitions = tuple(
        Transition(
            t["source"],
            t["target"],
            None if t["condition"] is None else parsed(t["condition"]),
            frozenset(Register(name) for name in t["writes"]),
        )
        for t in doc["transitions"]
    )
    a = Sra(
        states=frozenset(doc["states"]),
        start=doc["start"],
        finals=frozenset(doc["finals"]),
        registers=frozenset(Register(name) for name in register_names),
        transitions=transitions,
        window=window,
        deterministic=doc["deterministic"],
    )
    return a, library, parsed


def symbol_map_to_entries(symbol_map: SymbolMap) -> list[dict]:
    return [
        {"condition": unparse_condition(cond), "symbol": sym}
        for cond, sym in symbol_map.items()
    ]


def symbol_map_from_entries(entries: list[dict], parsed) -> SymbolMap:
    """The symbol map, its conditions read by the condition parser of the
    automaton document they belong to."""
    return SymbolMap((parsed(e["condition"]), e["symbol"]) for e in entries)


def pst_to_doc(pst: Pst) -> dict:
    return {
        "format": FORMAT_PST,
        "version": VERSION,
        "max_order": pst.max_order,
        "alphabet": list(pst.alphabet),
        "nodes": [
            {"context": list(ctx), "distribution": dict(sorted(dist.items()))}
            for ctx, dist in sorted(pst.nodes.items())
        ],
    }


@_validated
def pst_from_doc(doc: dict) -> Pst:
    _check_header(doc, FORMAT_PST)
    nodes = {tuple(n["context"]): n["distribution"] for n in doc["nodes"]}
    return Pst(doc["max_order"], doc["alphabet"], nodes)


def model_to_doc(automaton: Sra, symbol_map: SymbolMap, pst: Pst) -> dict:
    return {
        "format": FORMAT_MODEL,
        "version": VERSION,
        "automaton": automaton_to_doc(automaton),
        "symbol_map": symbol_map_to_entries(symbol_map),
        "pst": pst_to_doc(pst),
    }


@_validated
def model_from_doc(doc: dict) -> tuple[Sra, SymbolMap, Pst, PredicateLibrary]:
    _check_header(doc, FORMAT_MODEL)
    # The symbol map repeats the transitions' condition texts: share the
    # parser, so each distinct text is parsed once.
    automaton, library, parsed = _read_automaton(doc["automaton"])
    symbol_map = symbol_map_from_entries(doc["symbol_map"], parsed)
    mapped = {condition for condition, _ in symbol_map.items()}
    for t in automaton.transitions:
        if t.condition is not None and t.condition not in mapped:
            raise MalformedDocument(
                f"the symbol map has no symbol for {unparse_condition(t.condition)}"
            )
    pst = pst_from_doc(doc["pst"])
    return automaton, symbol_map, pst, library


def dump(doc: dict, target: Union[str, IO[str]]) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        target.write(text)


def load(source: Union[str, IO[str]]) -> dict:
    """The JSON document in a file or stream. One leading byte-order mark is
    dropped, as a document saved with one reads like one without."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fp:
                text = fp.read()
        else:
            text = source.read()
        return json.loads(text.removeprefix("\ufeff"))
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"not a JSON document ({exc})") from exc
