"""The value classes against ``dataclasses.dataclass(frozen=True)``.

Every class that ``value.frozen`` decorates in the package gets a frozen
dataclass twin with the same fields, defaults and compared fields.  On
sample instances the two must agree on ``repr``, ``==`` (both ways and
across classes), the exact ``hash``, defaults, ``replace``, refusing
assignment and deletion, and which calls construct and which raise
TypeError: the hash orders set iteration and the repr orders rule
groups, so both feed the analyzer's output.
"""
import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import pytest

import latreach
from latreach import value
from latreach.automaton import LatticeAutomaton
from latreach.domain import (
    AbstractLocalState,
    Interval,
    IntervalEnv,
    NEG_INF,
    POS_INF,
)


def _value_classes():
    found = []
    for info in pkgutil.iter_modules(latreach.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"latreach.{info.name}")
        found += [c for c in vars(mod).values()
                  if isinstance(c, type) and c.__module__ == mod.__name__
                  and "_value_fields" in vars(c)]
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


CLASSES = _value_classes()

POOL = (Fraction(1, 2), "a", (1, "b"), None, frozenset({2}), 3, "c")

# arguments for the classes whose __post_init__ checks its fields; every
# sample of a class is compatible with every other, field by field
SAMPLES = {
    "Interval": [(Fraction(1), Fraction(3)), (Fraction(0), POS_INF), (Fraction(3), Fraction(1)),
                 (NEG_INF, POS_INF)],
    "AbstractLocalState": [(Interval(1, 1), "a", IntervalEnv(())),
                           (Interval(0, 2), "b", IntervalEnv((("x", Interval(0, 1)),)))],
    "AnalysisConfig": [(2, 1, 500), (0, 3, 10)],
    "LetterOut": [(0, "a", None, (), (), ("keep",), False),
                  (None, "b", "i", (("x", 1),), ((0, 2),), ("keep",), True)],
    "RewriteRule": [("r", (None, None), (("w",),), (1, 2, 3), (None, None)),
                    ("s", ("a", "b"), (("v", "u"),), (4, 5, 6), ("h", "h"), True)],
}


def _samples(cls):
    if hasattr(cls, "__post_init__"):
        return SAMPLES[cls.__name__]
    n = len(cls._value_fields)
    return [tuple(POOL[(k + j) % len(POOL)] for j in range(n)) for k in range(3)]


def _twin(cls):
    specs = []
    for name in cls._value_fields:
        shown = name in cls._value_compared
        if name in vars(cls):
            specs.append((name, object, dataclasses.field(default=vars(cls)[name],
                                                          compare=shown, repr=shown)))
        else:
            specs.append((name, object, dataclasses.field(compare=shown, repr=shown)))
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)


def _fields(obj, names):
    return [getattr(obj, f) for f in names]


def test_every_value_class_is_found():
    assert len(CLASSES) == 46
    hidden = [(c.__name__, f) for c in CLASSES for f in c._value_fields
              if f not in c._value_compared]
    assert hidden == [("LatticeAutomaton", "canonical")]


def test_defaults_the_package_relies_on():
    empty = frozenset()
    plain, flagged = (LatticeAutomaton(empty, empty, empty, empty),
                      LatticeAutomaton(empty, empty, empty, empty, True))
    assert plain.canonical is False and flagged.canonical is True
    assert plain == flagged and hash(plain) == hash(flagged) and repr(plain) == repr(flagged)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_value_class_matches_its_frozen_dataclass_twin(cls):
    names = cls._value_fields
    twin = _twin(cls)
    pairs = []
    for args in _samples(cls):
        real = cls(*args)
        tw = twin(*_fields(real, names))
        assert repr(real) == repr(tw)
        assert hash(real) == hash(tw)
        assert real == cls(*args) and not real != cls(*args)
        assert real.__eq__(tw) is NotImplemented and tw.__eq__(real) is NotImplemented
        assert real != tw
        pairs.append((real, tw))
    for r1, t1 in pairs:
        for r2, t2 in pairs:
            assert (r1 == r2) == (t1 == t2) and (r1 != r2) == (t1 != t2)
    other = next(c for c in CLASSES if c is not cls)
    for real, _ in pairs:
        stranger = other(*_samples(other)[0])
        assert real.__eq__(stranger) is NotImplemented
        assert real != stranger and stranger != real

    # defaults: only the fields without one are passed
    required = [f for f in names if f not in vars(cls)]
    args = _samples(cls)[0][:len(required)]
    real, tw = cls(*args), twin(*args)
    assert _fields(real, names) == _fields(tw, names)
    assert repr(real) == repr(tw)

    # replace, one field at a time, and with no change
    (r1, t1), (r2, _) = pairs[0], pairs[-1]
    for f in names:
        got = value.replace(r1, **{f: getattr(r2, f)})
        want = dataclasses.replace(t1, **{f: getattr(r2, f)})
        assert type(got) is cls
        assert _fields(got, names) == _fields(want, names)
        assert repr(got) == repr(want) and hash(got) == hash(want)
    assert value.replace(r1) == r1

    # assigning or deleting a field raises, with the dataclass message
    assert issubclass(value.FrozenInstanceError, AttributeError)
    for f in names:
        for op in (lambda o: setattr(o, f, 0), lambda o: delattr(o, f)):
            with pytest.raises(value.FrozenInstanceError) as got:
                op(r1)
            with pytest.raises(dataclasses.FrozenInstanceError) as want:
                op(t1)
            assert str(got.value) == str(want.value)
    assert _fields(r1, names) == _fields(t1, names)


def _raise_type_error(make, *args, **kwargs):
    with pytest.raises(TypeError):
        make(*args, **kwargs)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_value_class_constructor_binds_like_its_dataclass_twin(cls):
    names = cls._value_fields
    twin = _twin(cls)
    args = _samples(cls)[0]
    positional = cls(*args)
    for k in range(len(names) + 1):
        # the first k fields by position, the rest by keyword
        real = cls(*args[:k], **dict(zip(names[k:], args[k:])))
        assert type(real) is cls
        assert real == positional and _fields(real, names) == _fields(positional, names)
        # the same keywords in reversed order
        real = cls(*args[:k], **dict(reversed(list(zip(names[k:], args[k:])))))
        assert real == positional and _fields(real, names) == _fields(positional, names)

    full = _fields(positional, names)
    required = [f for f in names if f not in vars(cls)]
    # the required fields by keyword, in reversed order, and the defaults
    partial = dict(reversed(list(zip(required, args))))
    assert _fields(cls(**partial), names) == _fields(cls(*args[:len(required)]), names)
    for make in (cls, twin):
        _raise_type_error(make, *full, 0)
        _raise_type_error(make, *full, no_such_field=0)
        if names:
            _raise_type_error(make, *full, **{names[0]: full[0]})
        if required:
            _raise_type_error(make, **{f: a for f, a in zip(names, full) if f != required[-1]})


@pytest.mark.parametrize("cls", [c for c in CLASSES if hasattr(c, "__post_init__")],
                         ids=lambda c: c.__qualname__)
def test_post_init_runs_last(cls, monkeypatch):
    names = cls._value_fields
    post_init, seen = cls.__post_init__, []

    def spy(self):
        seen.append({f: vars(self).get(f, "unset") for f in names})
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", spy)
    args = _samples(cls)[0]
    required = [f for f in names if f not in vars(cls)]
    calls = [cls(*args), cls(**dict(zip(names, args))), cls(*args[:len(required)])]
    assert len(seen) == len(calls)
    for got, obj in zip(seen, calls):
        assert list(got) == list(names) and "unset" not in got.values()
        # __post_init__ may normalize a field (the empty interval), but
        # only from what it saw
        assert type(obj)(*got.values()) == obj


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    class Bad:
        lo: int = 0
        hi: int

    with pytest.raises(TypeError):
        value.frozen(Bad)


def test_cached_hash_of_a_letter_is_the_field_tuple_hash():
    letter = AbstractLocalState(Interval(0, 2), "l", IntervalEnv(()))
    assert hash(letter) == hash((letter.pid, letter.loc, letter.env))
    assert "_hash" in vars(letter) and "_hash" not in repr(letter)
