"""The `oracle` command: membership decided from the pattern itself, the
ground truth the compiled pipeline is checked against. `cerf.cli` imports
this module when it runs the command."""

from __future__ import annotations

import contextlib
import json
import random
import sys
from typing import Iterable, Iterator, Optional

import click

from .algebra import Event
from .oracle import Oracle
from .shell import (
    _emit_record,
    _load_pattern,
    _mapped_errors,
    _open_input,
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


@click.command()
@click.argument("pattern", type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", default=None,
              help="Event stream to test for membership as one complete string.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl",
              show_default=True)
@click.option("--enumerate", "enumerate_", is_flag=True,
              help="Enumerate strings over a finite universe instead.")
@click.option("--universe", type=click.Path(exists=True, dir_okay=False, allow_dash=True),
              default=None, help="Events making up the enumeration universe, '-' for stdin.")
@click.option("--max-len", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--sample", type=click.IntRange(min=1), default=None,
              help="Randomly sample this many strings instead of all of them.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for --sample.")
@click.option("--strict", is_flag=True, help="Abort on the first malformed input line.")
def oracle(pattern, input_path, fmt, enumerate_, universe, max_len, sample, seed, strict):
    """Decide membership directly from the pattern, without automata.

    The ground truth for checking the pipeline: it folds the pattern's
    derivatives over each string, holding only the live (residual,
    valuation) pairs. --input reads the stream once, in time linear in its
    length. --enumerate numbers each configuration the strings over the
    universe reach and steps each (configuration, event) once, so a string
    costs one table lookup per event."""
    with _mapped_errors():
        _, expr = _load_pattern(pattern, None)
        derivatives = Oracle(expr)
        if enumerate_:
            if universe is None:
                raise click.UsageError("--enumerate needs --universe")
            with contextlib.closing(_open_input(universe)) as fp:
                events = list(read_events(fp, fmt, strict, _stderr_diagnostic))
            total = sum(len(events) ** n for n in range(max_len + 1))
            picked = range(total)
            if sample is not None and sample < total:
                # sample() only indexes its population, so drawing indices
                # picks the strings a drawn list of all strings would.
                picked = random.Random(seed).sample(picked, sample)
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
            if input_path is None:
                raise click.UsageError("give --input or --enumerate")
            pairs = derivatives.start()
            with contextlib.closing(_open_input(input_path)) as fp:
                for event in read_events(fp, fmt, strict, _stderr_diagnostic):
                    pairs = derivatives.step(pairs, event)
            _emit_record({"accepts": bool(Oracle.derived(pairs))})
