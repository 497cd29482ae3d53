"""Frozen value classes: the part of ``dataclasses.dataclass(frozen=True)``
that the package uses, without its class-creation cost.

``@frozen`` gives a class with annotated fields (a plain default is the
class attribute) the dataclass's ``__init__``, ``__eq__`` and ``__hash__``
as closures over the field names, so no source is built or compiled.
``__init__`` sets the fields in order from a call that gives each one by
position; keywords and defaults take a slower path with the dataclass's
checks, and ``__post_init__`` runs last.  ``==`` and ``hash`` read one
``operator.attrgetter`` key, the tuple of the compared fields: ``==``
compares the keys and returns NotImplemented across classes, and the
hash is ``hash`` of the key, computed once and kept in the instance as
``_hash``.  ``__repr__`` (``Name(f=..., ...)``) and the
``__setattr__``/``__delattr__`` that refuse every field are shared.  A
method the class defines is kept.  No ``__slots__``, so
``functools.cached_property`` works.
"""
from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of a field of a frozen value."""


class hidden:
    """Default of a field that ==, hash and repr leave out."""

    def __init__(self, default):
        self.default = default


def _repr(self):
    fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._value_compared)
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls, names, tail, args, kwargs):
    """The field values, in order, of a call with keywords or defaults;
    ``tail`` holds the defaults of the last fields."""
    first = len(names) - len(tail)
    values = list(args)
    for i in range(len(args), len(names)):
        if names[i] in kwargs:
            values.append(kwargs.pop(names[i]))
        elif i >= first:
            values.append(tail[i - first])
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {names[i]!r}")
    if len(args) > len(names) or kwargs:
        extra = ", ".join(kwargs) or f"{len(args) - len(names)} positional"
        raise TypeError(f"{cls.__qualname__}() got unexpected or repeated arguments: {extra}")
    return values


def frozen(cls):
    """Make ``cls`` a frozen value class; see the module docstring."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    compared = tuple(n for n in names if not isinstance(cls.__dict__.get(n), hidden))
    tail = []
    for name in names:
        if name in cls.__dict__:
            default = cls.__dict__[name]
            if isinstance(default, hidden):
                default = default.default
                setattr(cls, name, default)
            tail.append(default)
        elif tail:
            raise TypeError(f"field {name!r} without a default follows one with a default")
    tail, arity, post_init = tuple(tail), len(names), hasattr(cls, "__post_init__")
    if len(compared) == 1:
        get = attrgetter(*compared)
        key = lambda obj: (get(obj),)
    else:
        key = attrgetter(*compared) if compared else lambda obj: ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = _bind(self.__class__, names, tail, args, kwargs)
        i = 0
        for name in names:
            _set(self, name, args[i])
            i += 1
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(key(self))
            _set(self, "_hash", h)
        return h

    methods = dict(__init__=__init__, __eq__=__eq__, __hash__=__hash__,
                   __repr__=_repr, __setattr__=_setattr, __delattr__=_delattr)
    for name, fn in methods.items():
        if cls.__dict__.get(name) is None:
            setattr(cls, name, fn)
    cls._value_fields, cls._value_compared, cls._hash = names, compared, None
    return cls


def replace(obj, **changes):
    """A copy of the value ``obj`` with the named fields changed."""
    return obj.__class__(**{**{f: getattr(obj, f) for f in obj._value_fields}, **changes})
