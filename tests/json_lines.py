"""The JSON-lines decoder as `json.loads` and `isinstance` checks wrote it,
kept as the reference that `cerf.shell._event_from_json_line` is checked
against: the same events, and the same diagnostic for each line it
refuses."""

from __future__ import annotations

import json
import math

from cerf.algebra import Event
from cerf.shell import MalformedInput


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
