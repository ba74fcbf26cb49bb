"""Reference computations the benchmark checks `cerf` against. Nothing here
imports `cerf`: documents are read as plain JSON, predicates and conditions
are parsed by the small parser below, and each check returns a list of
problems (empty when the output is right)."""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
import re

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_DECL_RE = re.compile(r"^pred (\w+)\(([^)]*)\): (\S+) (==|!=|<=|>=|<|>) (\S+)$")
_TOKEN_RE = re.compile(r"\s*(TRUE|[A-Za-z_]\w*|[()~,&|!])")


def _operand(text: str, params: list[str]):
    if "." in text and text.split(".", 1)[0] in params:
        name, attr = text.split(".", 1)
        index = params.index(name)
        return lambda events: events[index].get(attr)
    value = text[1:-1] if text.startswith('"') else (float(text) if "." in text else int(text))
    return lambda events: value


def _compare(left, op: str, right) -> bool:
    numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    textual = isinstance(left, str) and isinstance(right, str)
    return (numeric or textual) and _OPS[op](left, right)


def parse_predicates(lines) -> dict:
    """Declaration lines -> {name: function of the argument events}."""
    preds = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _DECL_RE.match(line)
        if m is None:
            raise ValueError(f"unreadable declaration {line!r}")
        name, params, left, op, right = m.groups()
        params = [p.strip() for p in params.split(",")]
        lhs, rhs = _operand(left, params), _operand(right, params)
        preds[name] = (lambda lhs, op, rhs: lambda *evs: _compare(lhs(evs), op, rhs(evs)))(
            lhs, op, rhs
        )
    return preds


class ConditionCompiler:
    """Turns condition text in pattern syntax into f(event, registers) ->
    bool. An atom reading an empty register does not hold."""

    def __init__(self, predicates: dict) -> None:
        self.predicates = predicates
        self._cache: dict[str, object] = {}

    def __call__(self, text: str):
        fn = self._cache.get(text)
        if fn is None:
            tokens = _TOKEN_RE.findall(text)
            if "".join(tokens) != re.sub(r"\s+", "", text):
                raise ValueError(f"unreadable condition {text!r}")
            self._tokens, self._pos = tokens, 0
            fn = self._or()
            if self._pos != len(tokens):
                raise ValueError(f"trailing input in condition {text!r}")
            self._cache[text] = fn
        return fn

    def _peek(self):
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _take(self, expected=None):
        tok = self._peek()
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self._pos += 1
        return tok

    def _or(self):
        fn = self._and()
        while self._peek() == "|":
            self._take()
            left, right = fn, self._and()
            fn = lambda ev, regs, l=left, r=right: l(ev, regs) or r(ev, regs)
        return fn

    def _and(self):
        fn = self._unary()
        while self._peek() == "&":
            self._take()
            left, right = fn, self._unary()
            fn = lambda ev, regs, l=left, r=right: l(ev, regs) and r(ev, regs)
        return fn

    def _unary(self):
        if self._peek() == "!":
            self._take()
            inner = self._unary()
            return lambda ev, regs: not inner(ev, regs)
        tok = self._take()
        if tok == "TRUE":
            return lambda ev, regs: True
        if tok == "(":
            fn = self._or()
            self._take(")")
            return fn
        pred = self.predicates[tok]
        self._take("(")
        args = [self._take()]
        while self._peek() == ",":
            self._take()
            args.append(self._take())
        self._take(")")
        return lambda ev, regs: _atom(pred, args, ev, regs)


def _atom(pred, args, event, regs) -> bool:
    values = []
    for arg in args:
        if arg == "~":
            values.append(event)
        elif arg in regs:
            values.append(regs[arg])
        else:
            return False
    return pred(*values)


# --- recognition ------------------------------------------------------------


def expected_matches(events: list[dict], window) -> list[int]:
    """1-based indexes k where event k is H and an earlier T with the same id
    lies within the last `window` events (anywhere before k when window is
    None)."""
    matches = []
    last_t: dict = {}
    for k, event in enumerate(events, start=1):
        if event["type"] == "H":
            j = last_t.get(event["id"])
            if j is not None and (window is None or k - j + 1 <= window):
                matches.append(k)
        if event["type"] == "T":
            last_t[event["id"]] = k
    return matches


def check_recognize(stdout: str, expected: list[int]) -> list[str]:
    try:
        got = [json.loads(line)["index"] for line in stdout.splitlines() if line.strip()]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable recognize output: {exc}"]
    if got == expected:
        return []
    got_set, want = set(got), set(expected)
    return [
        f"{len(got)} matches reported, {len(expected)} expected; "
        f"missing {sorted(want - got_set)[:5]}, extra {sorted(got_set - want)[:5]}"
    ]


# --- deterministic automata -------------------------------------------------


class DocAutomaton:
    """An automaton document, runnable over dict events."""

    def __init__(self, doc: dict, conditions: ConditionCompiler = None) -> None:
        if doc.get("format") != "sra":
            raise ValueError("not an automaton document")
        compile_condition = conditions or ConditionCompiler(parse_predicates(doc["predicates"]))
        self.start = doc["start"]
        self.finals = set(doc["finals"])
        self.out: dict[str, list] = {q: [] for q in doc["states"]}
        for t in doc["transitions"]:
            if t["condition"] is None:
                raise ValueError("epsilon transition in a deterministic automaton")
            self.out[t["source"]].append(
                (compile_condition(t["condition"]), t["target"], t["writes"], t["condition"])
            )

    def step(self, state, regs: dict, event: dict):
        """The one transition that fires, or None; raises when two fire."""
        fired = [t for t in self.out[state] if t[0](event, regs)]
        if len(fired) > 1:
            raise ValueError(f"{len(fired)} transitions fire at {state} on {event}")
        if not fired:
            return None
        _, target, writes, text = fired[0]
        for name in writes:
            regs[name] = event
        return target, text

    def accepts(self, events) -> bool:
        state, regs = self.start, {}
        for event in events:
            taken = self.step(state, regs, event)
            if taken is None:
                return False
            state = taken[0]
        return state in self.finals


def e3_accepts(events: list[dict], width: int) -> bool:
    """E3 as a whole-string predicate, restricted to length <= width: the
    last event is H and some earlier T has its id."""
    if not 2 <= len(events) <= width:
        return False
    last = events[-1]
    return last["type"] == "H" and any(
        e["type"] == "T" and e["id"] == last["id"] for e in events[:-1]
    )


DSRA_UNIVERSE = [{"type": t, "id": i, "value": 50} for t in ("T", "H") for i in (1, 2)]


def dsra_sample(seed: int, width: int, count: int) -> list[list[dict]]:
    """Seeded strings over DSRA_UNIVERSE of length 0..width+1."""
    rng = random.Random(seed * 1009 + width)
    return [
        [rng.choice(DSRA_UNIVERSE) for _ in range(rng.randint(0, width + 1))]
        for _ in range(count)
    ]


def check_dsra(doc: dict, width: int, sample, compilers: dict) -> list[str]:
    """The automaton document accepts exactly the sampled strings E3 of
    length <= width accepts, firing at most one transition per step.
    `compilers` caches condition compilers by declaration lines across
    calls."""
    problems = []
    if not doc.get("deterministic") or doc.get("window") != width:
        problems.append(f"document says deterministic={doc.get('deterministic')} window={doc.get('window')}")
    try:
        declarations = tuple(doc["predicates"])
        if declarations not in compilers:
            compilers[declarations] = ConditionCompiler(parse_predicates(declarations))
        a = DocAutomaton(doc, compilers[declarations])
        for s in sample:
            if a.accepts(s) != e3_accepts(s, width):
                problems.append(f"w={width}: wrong verdict on {s}")
                break
    except (ValueError, KeyError) as exc:
        problems.append(f"w={width}: {exc}")
    return problems


# --- learned models and forecasts -----------------------------------------

GAMMA = 0.01  # `cerf learn` default smoothing


class DocModel:
    """A model document: its automaton, symbol map and tree."""

    def __init__(self, doc: dict) -> None:
        if doc.get("format") != "cerf-model":
            raise ValueError("not a model document")
        self.automaton = DocAutomaton(doc["automaton"])
        self.symbol_of = {e["condition"]: e["symbol"] for e in doc["symbol_map"]}
        pst = doc["pst"]
        self.max_order = pst["max_order"]
        self.alphabet = list(pst["alphabet"])
        self.nodes = {tuple(n["context"]): n["distribution"] for n in pst["nodes"]}
        self.edges = {
            q: [(self.symbol_of[t[3]], t[1]) for t in ts] for q, ts in self.automaton.out.items()
        }
        # States from which some final state is reachable.
        self.live = set(self.automaton.finals)
        grew = True
        while grew:
            grew = False
            for q, edges in self.edges.items():
                if q not in self.live and any(target in self.live for _, target in edges):
                    self.live.add(q)
                    grew = True

    def run(self, events):
        """(state, symbol) after each event of one deterministic run."""
        state, regs = self.automaton.start, {}
        for event in events:
            taken = self.automaton.step(state, regs, event)
            if taken is None:
                raise ValueError(f"no transition at {state}: the automaton is not complete")
            state = taken[0]
            yield state, self.symbol_of[taken[1]]

    def predict(self, history: tuple) -> dict:
        for length in range(min(len(history), self.max_order), 0, -1):
            node = self.nodes.get(history[-length:])
            if node is not None:
                return node
        return self.nodes[()]

    def masses(self, state, history: tuple, horizon: int) -> list[float]:
        """Probability that the first final state is reached at step
        1..horizon, by enumerating symbol paths. A path is dropped once it
        enters a state from which no final state is reachable, since it
        adds no mass after that."""
        m = self.max_order
        masses = [0.0] * horizon

        def walk(q, ctx, p, n):
            dist = self.predict(ctx)
            z = sum(dist.get(sym, 0.0) for sym, _ in self.edges[q])
            if z <= 0.0:
                return
            for sym, target in self.edges[q]:
                p2 = p * dist.get(sym, 0.0) / z
                if p2 <= 0.0:
                    continue
                if target in self.automaton.finals:
                    masses[n] += p2
                elif n + 1 < horizon and target in self.live:
                    walk(target, (ctx + (sym,))[-m:] if m else (), p2, n + 1)

        walk(state, history[-m:] if m else (), 1.0, 0)
        return masses


def check_model(doc: dict, train: list[dict]) -> list[str]:
    """Every tree node's distribution equals the smoothed next-symbol counts
    of the training run at that context; the tree is suffix-closed."""
    try:
        model = DocModel(doc)
        symbols = [sym for _, sym in model.run(train)]
    except (ValueError, KeyError) as exc:
        return [f"model: {exc}"]
    sigma = sorted(set(symbols) | set(model.alphabet))
    problems = []
    if () not in model.nodes:
        problems.append("model: tree has no root")
    for ctx, dist in model.nodes.items():
        if ctx and ctx[1:] not in model.nodes:
            problems.append(f"model: tree not suffix-closed at {ctx}")
        L = len(ctx)
        follow = [symbols[i] for i in range(L, len(symbols)) if tuple(symbols[i - L:i]) == ctx]
        if not follow:
            problems.append(f"model: context {ctx} never occurs")
            continue
        for sym in sigma:
            want = (1.0 - GAMMA) * follow.count(sym) / len(follow) + GAMMA / len(sigma)
            if abs(dist.get(sym, 0.0) - want) > 1e-9:
                problems.append(f"model: P({sym}|{ctx}) = {dist.get(sym)}, counts give {want}")
                break
    return problems[:5]


def check_forecast(
    stdout: str, model_doc: dict, test: list[dict], sampled: list[int]
) -> list[str]:
    """Per record: masses non-negative, summing with the residual to 1,
    regression and classification agreeing with them; at the sampled
    indexes every mass equals a path enumeration over the model document."""
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError as exc:
        return [f"unreadable forecast output: {exc}"]
    if [r.get("index") for r in records] != list(range(1, len(test) + 1)):
        return [f"{len(records)} forecast records for {len(test)} events"]
    problems = []
    for r in records:
        dist, residual = r["dist"], r["residual"]
        if min(dist) < 0 or residual < -1e-9 or abs(math.fsum(dist) + residual - 1.0) > 1e-9:
            problems.append(f"index {r['index']}: masses do not form a distribution")
        best = max(range(len(dist)), key=lambda i: (dist[i], -i))
        if r["regression"] != best + 1:
            problems.append(f"index {r['index']}: regression {r['regression']}, argmax {best + 1}")
        if r["classification"] != (dist[0] >= 0.5):
            problems.append(f"index {r['index']}: classification disagrees with dist")
        if problems:
            return problems
    model = DocModel(model_doc)
    history: tuple = ()
    wanted = set(sampled)
    for index, (state, sym) in enumerate(model.run(test), start=1):
        history = (history + (sym,))[-model.max_order:] if model.max_order else ()
        if index in wanted:
            got = records[index - 1]["dist"]
            want = model.masses(state, history, len(got))
            if any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
                return [f"index {index}: masses {got[:4]}..., enumeration gives {want[:4]}..."]
    return []


def forecast_sample(seed: int, count: int, events: int, head: int = 8) -> list[int]:
    """The first `head` indexes (the run is still inside its first window)
    and a seeded draw of the rest."""
    rng = random.Random(seed * 7919 + 1)
    rest = rng.sample(range(head + 1, events + 1), min(count, max(0, events - head)))
    return sorted(set(range(1, min(head, events) + 1)) | set(rest))


# --- direct pattern semantics ---------------------------------------------


def _freeze(event: dict) -> tuple:
    return tuple(sorted(event.items()))


def _holds(c, event: dict, regs: dict, preds: dict) -> bool:
    kind = c[0]
    if kind == "true":
        return True
    if kind == "atom":
        return _atom(preds[c[1]], c[2], event, regs)
    if kind == "not":
        return not _holds(c[1], event, regs, preds)
    if kind == "and":
        return _holds(c[1], event, regs, preds) and _holds(c[2], event, regs, preds)
    return _holds(c[1], event, regs, preds) or _holds(c[2], event, regs, preds)


def reach(e, events: list[dict], i: int, val: tuple, preds: dict) -> set:
    """Forward matcher: every (end index, valuation) reachable by matching e
    from position i. A valuation is a sorted tuple of (register, frozen
    event); a star iteration consumes at least one event."""
    kind = e[0]
    if kind in ("cond", "write"):
        if i >= len(events):
            return set()
        regs = {name: dict(ev) for name, ev in val}
        if not _holds(e[1], events[i], regs, preds):
            return set()
        if kind == "write":
            regs = dict(val)
            regs[e[2]] = _freeze(events[i])
            return {(i + 1, tuple(sorted(regs.items())))}
        return {(i + 1, val)}
    if kind == "cat":
        out = set()
        for mid, v1 in reach(e[1], events, i, val, preds):
            out |= reach(e[2], events, mid, v1, preds)
        return out
    if kind == "alt":
        return reach(e[1], events, i, val, preds) | reach(e[2], events, i, val, preds)
    if kind == "star":
        seen = {(i, val)}
        frontier = [(i, val)]
        while frontier:
            pos, v1 = frontier.pop()
            for nxt, v2 in reach(e[1], events, pos, v1, preds):
                if nxt > pos and (nxt, v2) not in seen:
                    seen.add((nxt, v2))
                    frontier.append((nxt, v2))
        return seen
    if kind == "eps":
        return {(i, val)}
    return set()


def reach_accepts(e, events: list[dict], preds: dict) -> bool:
    return any(end == len(events) for end, _ in reach(e, events, 0, (), preds))


def oracle_strings(universe: list[dict], max_len: int) -> list[list[dict]]:
    return [list(s) for n in range(max_len + 1) for s in itertools.product(universe, repeat=n)]


def check_oracle(stdout: str, expr, universe, max_len: int, preds) -> list[str]:
    """The enumeration lists every string in order, each with the forward
    matcher's verdict."""
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError as exc:
        return [f"unreadable oracle output: {exc}"]
    strings = oracle_strings(universe, max_len)
    if len(records) != len(strings):
        return [f"{len(records)} oracle verdicts for {len(strings)} strings"]
    for record, string in zip(records, strings):
        if record["events"] != string:
            return [f"string {record['events']} listed where {string} belongs"]
        if record["accepts"] != reach_accepts(expr, string, preds):
            return [f"wrong verdict on {string}"]
    return []
