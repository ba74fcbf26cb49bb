"""The `oracle` command: membership decided from the pattern itself, the
ground truth the compiled pipeline is checked against. `cerf.cli` imports
this module when it runs the command."""

from __future__ import annotations

import contextlib
import json
import random
import sys
from typing import Iterable, Iterator, Optional

from .algebra import Event
from .oracle import Oracle
from .shell import (
    _emit_record,
    _event_arguments,
    _load_pattern,
    _mapped_errors,
    _open_input,
    _parser,
    _ranged,
    _stderr_diagnostic,
    read_events,
)

# About how much text `oracle --enumerate` writes to stdout at a time.
_BLOCK_CHARS = 8192


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


def oracle(argv: list[str]) -> None:
    """Decide membership directly from the pattern, without automata.

    The ground truth for checking the pipeline: it folds the pattern's
    derivatives over each string, holding only the live (residual,
    valuation) pairs. --input reads the stream once, in time linear in its
    length. --enumerate numbers each configuration the strings over the
    universe reach and steps each (configuration, event) once, so a string
    costs one table lookup per event."""
    parser = _parser("oracle", oracle)
    parser.add_argument("pattern", metavar="PATTERN")
    parser.add_argument("--input",
                        help="Event stream to test for membership as one complete string.")
    _event_arguments(parser)
    parser.add_argument("--enumerate", action="store_true",
                        help="Enumerate strings over a finite universe instead.")
    parser.add_argument("--universe",
                        help="Events making up the enumeration universe, '-' for stdin.")
    parser.add_argument("--max-len", type=_ranged(int, 0), default=3,
                        help="(default: %(default)s)")
    parser.add_argument("--sample", type=_ranged(int, 1),
                        help="Randomly sample this many strings instead of all of them.")
    parser.add_argument("--seed", type=int, default=0,
                        help="Seed for --sample. (default: %(default)s)")
    args = parser.parse_args(argv)
    with _mapped_errors():
        _, expr = _load_pattern(args.pattern, None)
        derivatives = Oracle(expr)
        if args.enumerate:
            if args.universe is None:
                parser.error("--enumerate needs --universe")
            with contextlib.closing(_open_input(args.universe)) as fp:
                events = list(read_events(fp, args.format, args.strict, _stderr_diagnostic))
            total = sum(len(events) ** n for n in range(args.max_len + 1))
            picked = range(total)
            if args.sample is not None and args.sample < total:
                # sample() only indexes its population, so drawing indices
                # picks the strings a drawn list of all strings would.
                picked = random.Random(args.seed).sample(picked, args.sample)
            # Each event is encoded once; a record is then the text
            # json.dumps would make of {"events": [...], "accepts": ...}.
            # The universe is read in full before the first record, so no
            # record waits on input: they are written in blocks.
            texts = [json.dumps(event.as_dict()) for event in events]
            block, size = [], 0
            for digits, accepted in _verdicts(derivatives, events, picked):
                record = (
                    '{"events": [' + ", ".join([texts[d] for d in digits])
                    + '], "accepts": ' + ("true" if accepted else "false") + "}\n"
                )
                block.append(record)
                size += len(record)
                if size >= _BLOCK_CHARS:
                    sys.stdout.write("".join(block))
                    block, size = [], 0
            sys.stdout.write("".join(block))
            sys.stdout.flush()
        else:
            if args.input is None:
                parser.error("give --input or --enumerate")
            pairs = derivatives.start()
            with contextlib.closing(_open_input(args.input)) as fp:
                for event in read_events(fp, args.format, args.strict, _stderr_diagnostic):
                    pairs = derivatives.step(pairs, event)
            _emit_record({"accepts": bool(Oracle.derived(pairs))})
