"""Event-line decoding against the reference decoder it replaced."""

import json
import sys
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from cerf.cli import main
from cerf.shell import MalformedInput, _event_from_json_line

import json_lines
from cli_runner import CliRunner
from conftest import E3_TEXT

# Past the recursion limit however deep the caller's stack is.
_DEEP = 2 * sys.getrecursionlimit()

_NAMES = st.sampled_from(["", "type", "id", "value", "é", 'say "hi"'])
_SCALARS = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(),  # NaN and the infinities included
    st.text(alphabet='TH1 "\\é😀', max_size=3),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_NAMES, inner, max_size=2),
    max_leaves=4,
)
# JSON text for one value, some of it no json.dumps output
_VALID = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                   st.text(max_size=3))
_SPECIAL = st.sampled_from([
    "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "9" * 4301, "-" + "1" * 5000,
    "[" * _DEEP + "]" * _DEEP, '{"a": ' * _DEEP + "1" + "}" * _DEEP, "{}", "[]", "true", "null",
])
_VALUE_TEXTS = st.one_of(_VALID.map(json.dumps), _VALUES.map(json.dumps), _SPECIAL, _SPECIAL)
# an object with possibly repeated names, the last of which json keeps
_OBJECTS = st.lists(st.tuples(_NAMES, _VALUE_TEXTS), max_size=4).map(
    lambda pairs: "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"
)
_LINES = st.builds(
    lambda prefix, body, suffix: prefix + body + suffix,
    st.sampled_from(["", "", "", "", " ", "\t", "\ufeff", "\u00a0"]),
    st.one_of(
        st.dictionaries(_NAMES.filter(bool), _VALID, min_size=1, max_size=3).map(json.dumps),
        _OBJECTS, _OBJECTS, _VALUE_TEXTS, st.sampled_from(["", "   ", " \t ", "x", "{"]),
    ),
    st.sampled_from(["\n", "\n", "\n", "\n", " \n", "\r\n", " x\n", "}\n", " {}\n", "\n\n"]),
)


# One line of each kind the decoder must agree on.
_CORPUS = [
    '{"type": "T", "id": 1, "value": 2.5}\n',
    '{"a": true}\n', '{"a": false}\n', '{"a": null}\n', '{"a": [1]}\n', '{"a": {"b": 1}}\n',
    '{"a": NaN}\n', '{"a": Infinity}\n', '{"a": -Infinity}\n', '{"a": 1e400}\n',
    '{"": 1}\n', '{"a": 1, "a": "x"}\n', '{"a": 1, "": 2}\n', '{"a": [], "": 2}\n',
    '\ufeff{"a": 1}\n', '{"a": 1} x\n', '{"a": 1}}\n', '   \n', '\t\n', '{\n',
    '{"a": ' + "9" * 4301 + '}\n', "[" * _DEEP + "]" * _DEEP + "\n",
    '{"a": ' + "[" * _DEEP + "]" * _DEEP + "}\n",
    "[1, 2]\n", '"text"\n', "3\n", "null\n", "true\n", "{}\n",
    # lines that open the object at once: decided without skipping blanks
    # when the object ends the line or one line break follows it
    '{"a": 1}', '{"a": 1}\r\n', '{"a": 1}\t\n', '{"a": 1}\n\n', '{"a": 1} ', ' {"a": 1}\n',
    '\t{"a": 1}', '{"a": 1}}', '{"a": 1}x', '{}', "{", '{"a": 1.5}', '{"a": NaN}', '{"": 1}',
]


def test_corpus_agrees_with_the_reference():
    for lineno, line in enumerate(_CORPUS, start=1):
        got = _decoded(_event_from_json_line, line, lineno)
        expected = _decoded(json_lines._event_from_json_line, line, lineno)
        assert got == expected, line[:40]


def _decoded(decode, line: str, lineno: int):
    """The attributes of the decoded event, kinds included, or the
    diagnostic."""
    try:
        event = decode(line, lineno)
    except MalformedInput as exc:
        return str(exc)
    return [(name, type(value), value) for name, value in event.attrs]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(line=_LINES, lineno=st.integers(min_value=1, max_value=10**6))
def test_decode_agrees_with_the_reference(line, lineno):
    got = _decoded(_event_from_json_line, line, lineno)
    assert got == _decoded(json_lines._event_from_json_line, line, lineno)


def _reference_run(path: str) -> tuple[list[str], list[str]]:
    """The diagnostics `read_events` makes of the file's lines (one leading
    byte-order mark dropped, blank lines skipped), and each valid event as
    a JSON line."""
    diagnostics, valid = [], []
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            if lineno == 1:
                line = line.removeprefix("\ufeff")
            if not line.strip():
                continue
            try:
                event = json_lines._event_from_json_line(line, lineno)
            except MalformedInput as exc:
                diagnostics.append(str(exc))
            else:
                valid.append(json.dumps(event.as_dict()) + "\n")
    return diagnostics, valid


_EVENTS = st.builds(
    lambda kind, ident: json.dumps({"type": kind, "id": ident, "value": 1}) + "\n",
    st.sampled_from("TH"), st.integers(min_value=1, max_value=2),
)


# Each drawn item of `lines` ends in a line break, and may hold more than
# one; a corpus line without one runs on into the next item.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(lines=st.lists(st.one_of(_EVENTS, _EVENTS, _LINES), max_size=12))
@example(lines=[_CORPUS[0], *_CORPUS])
@example(lines=["\ufeff" + _CORPUS[0], *_CORPUS[:2]])
def test_a_stream_gives_the_reference_diagnostics_with_and_without_strict(lines):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("e3.pat").write_text(E3_TEXT)
        Path("in.jsonl").write_text("".join(lines), encoding="utf-8")
        diagnostics, valid = _reference_run("in.jsonl")
        Path("clean.jsonl").write_text("".join(valid), encoding="utf-8")
        args = ["recognize", "e3.pat", "--input"]
        tolerant = runner.invoke(main, args + ["in.jsonl"])
        strict = runner.invoke(main, args + ["in.jsonl", "--strict"])
        clean = runner.invoke(main, args + ["clean.jsonl"])
    assert tolerant.exit_code == clean.exit_code == 0
    assert tolerant.stderr == "".join(d + "\n" for d in diagnostics)
    assert tolerant.stdout == clean.stdout
    if diagnostics:
        assert strict.exit_code == 2 and strict.stderr == f"error: {diagnostics[0]}\n"
    else:
        assert strict.exit_code == 0 and strict.stdout == clean.stdout
