"""The value types are slotted classes written out in their modules. Each
stays frozen and compares, hashes and prints as it did when it was a
frozen dataclass."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cerf

from cerf.algebra import (
    CURRENT,
    And,
    Atom,
    Condition,
    CurrentElement,
    EvalCounters,
    Event,
    Not,
    Or,
    Predicate,
    Register,
    TrueCondition,
    Valuation,
    declared_predicate,
)
from cerf.automaton import Sra, Transition
from cerf.construct import UnrollMaps
from cerf.forecast import WaitingTimeDistribution
from cerf.pattern import (
    Alt,
    Concat,
    Cond,
    CondWrite,
    Empty,
    Epsilon,
    Expr,
    Star,
    Window,
    _tokenize,
    parse,
)

from conftest import E3_TEXT


def _atom():
    return Atom(declared_predicate("A", ["x"], ("attr", 0, "a"), "==", ("lit", 1)), (CURRENT,))


def _sra():
    return Sra(
        states=frozenset({"q0", "q1"}),
        start="q0",
        finals=frozenset({"q1"}),
        registers=frozenset({Register("r1")}),
        transitions=(Transition("q0", "q1", _atom(), frozenset({Register("r1")})),),
        window=2,
        deterministic=True,
    )


# Each builds a new instance equal to the one before.
FROZEN = {
    "Event": lambda: Event.of(a=1, b="x"),
    "Register": lambda: Register("r1"),
    "CurrentElement": CurrentElement,
    "Valuation": lambda: Valuation(((Register("r1"), Event.of(a=1)),)),
    "Predicate": lambda: _atom().predicate,
    "TrueCondition": TrueCondition,
    "Atom": _atom,
    "Not": lambda: Not(_atom()),
    "And": lambda: And(_atom(), Not(_atom())),
    "Or": lambda: Or(TrueCondition(), _atom()),
    "Empty": Empty,
    "Epsilon": Epsilon,
    "Cond": lambda: Cond(_atom()),
    "CondWrite": lambda: CondWrite(_atom(), Register("r1")),
    "Concat": lambda: Concat(Cond(_atom()), Epsilon()),
    "Alt": lambda: Alt(Empty(), Cond(_atom())),
    "Star": lambda: Star(Cond(_atom())),
    "Window": lambda: Window(Star(Cond(_atom())), 3),
    "parsed": lambda: parse(E3_TEXT)[1],
    "Transition": lambda: Transition("q0", "q1", _atom(), frozenset({Register("r1")})),
    "Sra": _sra,
    "WaitingTimeDistribution": lambda: WaitingTimeDistribution("q0", ("a",), (0.5, 0.25), 0.25),
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
def test_frozen_value_types(make):
    value, again = make(), make()
    fields = [name for name in type(value).__slots__ if name[0] != "_"] or ["anything"]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == again and not value != again and hash(value) == hash(again)
    assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
    if isinstance(value, (Condition, Expr)):  # hash-consed: a copy is the one node
        assert value is again
        assert copy.copy(value) is value and copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value
    # Only Sra keeps a __dict__, for what cached_property builds.
    assert hasattr(value, "__dict__") == (type(value) is Sra)


def test_token_is_frozen():
    token = _tokenize("A(~)")[0]
    assert repr(token) == "_Token(kind='name', text='A', line=1, column=1)"
    with pytest.raises(AttributeError):
        token.text = "B"


@pytest.mark.parametrize(
    "value", [EvalCounters(), UnrollMaps({}, {})], ids=["EvalCounters", "UnrollMaps"]
)
def test_mutable_records_have_slots(value):
    assert not hasattr(value, "__dict__")


_PREDICATE_REPR = (
    "Predicate(name='A', arity=1, evaluator=None, source='pred A(x): x.a == 1', "
    "declaration=Declaration(left=('attr', 0, 'a'), op='==', right=('lit', 1)), "
    "footprint=(frozenset({'a'}),))"
)


def test_reprs_are_the_dataclass_text():
    # Exit-2 error lines embed these reprs.
    assert repr(Register("r1")) == "Register(name='r1')"
    assert repr(_atom()) == f"Atom(predicate={_PREDICATE_REPR}, args=(~,))"
    assert repr(FROZEN["Transition"]()) == (
        f"Transition(source='q0', target='q1', condition=Atom(predicate={_PREDICATE_REPR}, "
        "args=(~,)), writes=frozenset({Register(name='r1')}))"
    )
    assert repr(Transition("q0", "q1", None)) == (
        "Transition(source='q0', target='q1', condition=None, writes=frozenset())"
    )
    assert repr(Not(TrueCondition())) == "Not(operand=TRUE)"
    assert repr(Window(Epsilon(), 2)) == "Window(body=Epsilon(), width=2)"
    assert repr(EvalCounters(1, 2)) == "EvalCounters(condition_evals=1, register_reads=2)"
    assert repr(Event.of(a=1)) == "Event(attrs=(('a', 1),))"
    assert str(Event.of(b="x", a=1)) == "(1,x)"


def test_register_orders_and_hashes_by_name():
    assert sorted([Register("r2"), Register("r1")]) == [Register("r1"), Register("r2")]
    assert Register("r2") >= Register("r1") and hash(Register("r1")) == hash("r1")


def test_predicate_compares_by_name_arity_and_declaration():
    assert Predicate("P", 1, lambda e: True, "one") == Predicate("P", 1, lambda e: False)
    assert _atom().predicate != declared_predicate("A", ["x"], ("attr", 0, "a"), "==", ("lit", 2))


def test_event_from_mapping_checks_names():
    assert Event.from_mapping({"b": 2, "a": 1}) == Event((("a", 1), ("b", 2)))
    with pytest.raises(ValueError, match="non-empty"):
        Event.from_mapping({"": 1})
    with pytest.raises(ValueError, match="non-empty"):
        Event((("", 1),))
    with pytest.raises(ValueError, match="unique"):
        Event((("a", 1), ("a", 2)))


def test_event_equality_ignores_the_order_pairs_are_given_in():
    given = Event((("b", 1), ("a", 2)))
    assert given == Event.of(a=2, b=1) and hash(given) == hash(Event.of(a=2, b=1))
    assert given.attrs == (("a", 2), ("b", 1)) and str(given) == "(2,1)"
    with pytest.raises(ValueError, match="unique"):
        Event((("b", 1), ("a", 2), ("b", "x")))


_BUILD_CONDITION = (
    "from cerf.algebra import CURRENT, And, Atom, Not, comparison_predicate\n"
    "a = Atom(comparison_predicate('P', 'x', '==', 1), (CURRENT,))\n"
    "built = And(Not(a), a)\n"
)


def test_connectives_hash_again_when_unpickled_in_another_process():
    # Type and text hashes differ between processes (here by hash seed), so
    # a hash kept from the pickling process would make the loaded condition
    # unequal to the one built where it is loaded, and miss it as a key.
    src = str(Path(cerf.__file__).resolve().parents[1])

    def run(code: str, seed: str, data: bytes = b"") -> bytes:
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _BUILD_CONDITION + code], env=env,
                              input=data, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    data = run("import pickle, sys; sys.stdout.buffer.write(pickle.dumps(built))", "1")
    loaded = (
        "import pickle, sys\n"
        "c = pickle.loads(sys.stdin.buffer.read())\n"
        "print(c == built, hash(c) == hash(built), {built: 'hit'}.get(c), c.left == Not(a),\n"
        "      c is built)\n"
    )
    assert run(loaded, "2", data).split() == [b"True", b"True", b"hit", b"True", b"True"]
