"""Record classes: the part of ``dataclasses`` this package uses.

Importing ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and building a dataclass compiles each method on its own;
together that costs more than importing the rest of the package, and every
CLI command pays it.

``@record`` reads the fields from the class annotations, in order, without
evaluating them.  A class-level value is the field's default, shared by
every instance that takes it.  It adds ``__init__``
(which ends by calling ``__post_init__`` if the class has one), ``__repr__``
as ``Name(field=value, ...)``, ``__eq__`` over the fields of two instances
of the same class, and ``__match_args__``.  ``frozen=True`` adds
``__hash__`` over the fields and makes assignment and deletion raise
``FrozenRecordError``; other records are unhashable.  ``__init__``,
``__eq__`` and ``__hash__`` are compiled from source once per class, so a
record builds and compares as fast as a dataclass.  A fact derived from the
fields is a ``functools.cached_property``: it writes the instance
``__dict__`` directly, so it works on frozen records and is not a field.
``jsonable(rec)`` reads a record's fields, in order, into a dict keyed by
their camelCase names.
"""

from __future__ import annotations

_MISSING = object()


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def record(cls=None, *, frozen: bool = False):
    """Class decorator, used as ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def jsonable(rec) -> dict:
    """The fields of ``rec`` in declaration order, keyed by camelCase name."""
    out = {}
    for name in rec.__match_args__:
        head, *rest = name.split("_")
        out[head + "".join(map(str.capitalize, rest))] = getattr(rec, name)
    return out


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _build(cls, frozen: bool):
    fields = {name: cls.__dict__.get(name, _MISSING) for name in cls.__annotations__}
    namespace = {"_setattr": object.__setattr__}
    lines, defaults = [], []
    for name, default in fields.items():
        if default is not _MISSING:
            defaults.append(default)
        elif defaults:
            raise TypeError(f"non-default field {name!r} follows a default field")
        lines.append(f"    _setattr(self, {name!r}, {name})\n" if frozen
                     else f"    self.{name} = {name}\n")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()\n")
    key = "".join(f"self.{name}, " for name in fields)
    exec(f"def __init__(self, {', '.join(fields)}):\n{''.join(lines)}"
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({key}) == ({key.replace('self.', 'other.')})\n"
         "    return NotImplemented\n"
         f"def __hash__(self):\n    return hash(({key}))\n", namespace)
    namespace["__init__"].__defaults__ = tuple(defaults) or None

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({body})"

    namespace["__repr__"] = __repr__
    methods = {}
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        methods[name] = namespace[name]
        methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
    methods["__match_args__"] = tuple(fields)
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name in cls.__dict__:
            raise TypeError(f"{cls.__name__} defines {name}, which record generates")
        setattr(cls, name, method)
    return cls
