"""A fixed piece of pure-Python work, timed beside the cerf commands.

    python3 perfbench/calibrate.py

run.py starts it through the launcher before every measured command and
takes the median of its CPU times as the speed of the machine during the
run. The work is of the kind the cerf commands do: objects with slots,
tuples, frozensets and dicts as keys, small closures called per item, and a
recursive walk that builds new nodes. It imports nothing of cerf and its
inputs are fixed, so its cost changes only with the machine and the Python
it runs on. It prints one checksum, which run.py compares with CHECKSUM.
"""

from __future__ import annotations

CHECKSUM = 7000


class Config:
    __slots__ = ("state", "regs")

    def __init__(self, state: int, regs: tuple) -> None:
        self.state = state
        self.regs = regs


def _conditions():
    return (
        lambda e, regs: e["type"] == "T",
        lambda e, regs: e["type"] == "H" and any(r == e["id"] for r in regs),
        lambda e, regs: True,
    )


def _stream(rounds: int) -> int:
    """Step a small nondeterministic machine over a fixed event stream."""
    conds = _conditions()
    out = {0: ((0, 2, None), (1, 0, "id")), 1: ((1, 2, None), (2, 1, None)), 2: ()}
    events = [{"type": "TH"[(i * 7) % 3 % 2], "id": i % 5} for i in range(rounds)]
    configs = {(0, ())}
    matches = 0
    for e in events:
        advanced = set()
        for state, regs in configs:
            cfg = Config(state, regs)
            for target, cond, write in out[cfg.state]:
                if conds[cond](e, cfg.regs):
                    regs2 = (cfg.regs + (e[write],))[-3:] if write else cfg.regs
                    advanced.add((target, regs2))
        configs = advanced
        matches += sum(1 for state, _ in configs if state == 2)
    return matches + len(configs)


def _subsets(width: int) -> int:
    """Group frozensets of small tuples by a derived key, as a subset
    construction does."""
    table: dict = {}
    for i in range(1 << width):
        members = frozenset((j, i % (j + 2)) for j in range(width) if i >> j & 1)
        key = (len(members), sum(b for _, b in members) % 17)
        table.setdefault(key, set()).add(members)
    return sum(len(v) for v in table.values()) + len(table)


def _derive(node, symbol: int):
    """Brzozowski-style derivative over tuple trees."""
    kind = node[0]
    if kind == "sym":
        return ("eps",) if node[1] == symbol else ("none",)
    if kind in ("eps", "none"):
        return ("none",)
    if kind == "alt":
        return ("alt", _derive(node[1], symbol), _derive(node[2], symbol))
    if kind == "star":
        return ("cat", _derive(node[1], symbol), node)
    head = ("cat", _derive(node[1], symbol), node[2])
    return ("alt", head, _derive(node[2], symbol)) if _nullable(node[1]) else head


def _nullable(node) -> bool:
    kind = node[0]
    if kind in ("eps", "star"):
        return True
    if kind in ("sym", "none"):
        return False
    if kind == "alt":
        return _nullable(node[1]) or _nullable(node[2])
    return _nullable(node[1]) and _nullable(node[2])


def _oracle(length: int) -> int:
    expr = ("cat", ("star", ("alt", ("sym", 0), ("sym", 1))), ("cat", ("sym", 1), ("star", ("sym", 2))))
    accepted = 0
    for n in range(3 ** length):
        node = expr
        for _ in range(length):
            node = _derive(node, n % 3)
            n //= 3
        accepted += _nullable(node)
    return accepted


def work() -> int:
    return _stream(8_000) + _subsets(12) + _oracle(6)


if __name__ == "__main__":
    print(work())
