"""Record classes: the part of ``dataclasses`` this package uses.

Importing ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and building a dataclass compiles each method on its own;
together that costs more than importing the rest of the package, and every
CLI command pays it.

``@record`` reads the fields from the class annotations, in order, without
evaluating them.  A class-level value is the field's default; ``field()``
gives a ``default_factory`` or keeps a field out of ``__init__``,
``__repr__`` or comparison.  It adds ``__init__`` (which ends by calling
``__post_init__`` if the class has one), ``__repr__`` as
``Name(field=value, ...)``, ``__eq__`` over the compared fields of two
instances of the same class, and ``__match_args__``.  ``frozen=True`` adds
``__hash__`` over the compared fields and makes assignment and deletion
raise ``FrozenRecordError``; other records are unhashable.  ``__init__``,
``__eq__`` and ``__hash__`` are compiled from source once per class, so a
record builds and compares as fast as a dataclass.
"""

from __future__ import annotations

_MISSING = object()
_FACTORY = object()  # the __init__ default of a field with a default_factory


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class _Field:
    __slots__ = ("default", "default_factory", "init", "repr", "compare")

    def __init__(self, default=_MISSING, default_factory=_MISSING,
                 init=True, repr=True, compare=True):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default_factory=_MISSING, init: bool = True, repr: bool = True,
          compare: bool = True):
    """Field options, as the class-level value of an annotated name."""
    return _Field(_MISSING, default_factory, init, repr, compare)


def record(cls=None, *, frozen: bool = False):
    """Class decorator, used as ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _build(cls, frozen: bool):
    fields = {}
    for name in cls.__annotations__:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            delattr(cls, name)
            fields[name] = value
        else:
            fields[name] = _Field(default=value)

    namespace = {"_setattr": object.__setattr__, "_FACTORY": _FACTORY}
    params, lines, defaults = [], [], []
    for name, f in fields.items():
        if not f.init:
            continue
        params.append(name)
        value = name
        if f.default_factory is not _MISSING:
            namespace[f"_factory_{name}"] = f.default_factory
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
            defaults.append(_FACTORY)
        elif f.default is not _MISSING:
            defaults.append(f.default)
        elif defaults:
            raise TypeError(f"non-default field {name!r} follows a default field")
        lines.append(f"    _setattr(self, {name!r}, {value})\n" if frozen
                     else f"    self.{name} = {value}\n")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()\n")
    key = "".join(f"self.{name}, " for name, f in fields.items() if f.compare)
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(lines)}"
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({key}) == ({key.replace('self.', 'other.')})\n"
         "    return NotImplemented\n"
         f"def __hash__(self):\n    return hash(({key}))\n", namespace)
    namespace["__init__"].__defaults__ = tuple(defaults) or None
    shown = [name for name, f in fields.items() if f.repr]

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({body})"

    namespace["__repr__"] = __repr__
    methods = {}
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        methods[name] = namespace[name]
        methods[name].__qualname__ = f"{cls.__qualname__}.{name}"
    methods["__match_args__"] = tuple(params)
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name in cls.__dict__:
            raise TypeError(f"{cls.__name__} defines {name}, which record generates")
        setattr(cls, name, method)
    return cls
