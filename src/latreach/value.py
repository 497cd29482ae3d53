"""Frozen value classes: the part of ``dataclasses.dataclass(frozen=True)``
that the package uses, without its class-creation cost.

``@frozen`` gives a class with annotated fields (a plain default is the
class attribute) the dataclass's ``__init__``, ``__eq__`` and ``__hash__``
as the same straight-line code, compiled in one ``exec`` per class:
``==`` compares the field tuples and returns NotImplemented across
classes, the hash is ``hash`` of the field tuple, and ``__post_init__``
runs last in ``__init__``.  ``__repr__`` (``Name(f=..., ...)``) and the
``__setattr__``/``__delattr__`` that refuse every field are shared.  A
method the class defines, such as a cached ``__hash__``, is kept.  No
``__slots__``, so ``functools.cached_property`` works.
"""


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


def frozen(cls):
    """Make ``cls`` a frozen value class; see the module docstring."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    compared = tuple(n for n in names if not isinstance(cls.__dict__.get(n), hidden))
    defaults, params = {}, []
    for name in names:
        if name in cls.__dict__:
            default = cls.__dict__[name]
            if isinstance(default, hidden):
                default = default.default
                setattr(cls, name, default)
            defaults[f"_d_{name}"] = default
            name = f"{name}=_d_{name}"
        params.append(name)
    body = "".join(f"\n  _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n  self.__post_init__()"
    mine = "".join(f"self.{n}," for n in compared)
    theirs = "".join(f"other.{n}," for n in compared)
    scope = {}
    exec(f"def make(_set, {', '.join(defaults)}):\n"
         f" def __init__(self, {', '.join(params)}):{body or ' pass'}\n"
         f" def __eq__(self, other):\n"
         f"  if other.__class__ is self.__class__:\n"
         f"   return ({mine})==({theirs})\n"
         f"  return NotImplemented\n"
         f" def __hash__(self):\n  return hash(({mine}))\n"
         f" return __init__, __eq__, __hash__\n", {}, scope)
    methods = {fn.__name__: fn for fn in scope["make"](object.__setattr__, **defaults)}
    for name, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
    methods.update(__repr__=_repr, __setattr__=_setattr, __delattr__=_delattr)
    for name, fn in methods.items():
        if cls.__dict__.get(name) is None:
            setattr(cls, name, fn)
    cls._value_fields, cls._value_compared = names, compared
    return cls


def replace(obj, **changes):
    """A copy of the value ``obj`` with the named fields changed."""
    return obj.__class__(**{**{f: getattr(obj, f) for f in obj._value_fields}, **changes})
