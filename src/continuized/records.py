"""The value rule of the package's records, in one place.

A subclass of ``Record`` is a frozen dataclass whose instances are values:
they compare field by field, arrays by their elements and lists, tuples and
dicts item by item (``same_value``), and hash by value when their fields can
be hashed (a record holding a list or a dict, such as a run's trace or a run
set, is unhashable).  A record refuses assignment and deletion, and every
array it holds, its fields and the attributes its ``__post_init__`` derives,
is read-only once it is built: a writable array is copied first
(``read_only``), so a caller's array is never frozen in place.  The lists and
dicts a record holds stay the record's own to extend.  Copies and pickles of
a record are built by its ``__init__``.

``Record`` also owns construction: ``dataclass`` only collects each
subclass's fields (for ``fields`` and ``replace``) and generates no method,
so no per-class code is compiled at import; the one ``__init__``,
``__setattr__``, ``__delattr__`` and ``__repr__`` below serve every record.
This module imports nothing from the package.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from reprlib import recursive_repr

import numpy as np


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` when it is read-only, else a read-only copy of it."""
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


def same_value(a, b) -> bool:
    """Equality by value: arrays by ``np.array_equal``, lists, tuples and
    dicts of one type item by item, and anything else by ``==`` (records
    by this rule)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and bool(np.array_equal(a, b))
    if type(a) is not type(b) or not isinstance(a, (list, tuple, dict)):
        return a is b or a == b
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_value(v, b[k]) for k, v in a.items())
    return len(a) == len(b) and all(map(same_value, a, b))


def _values(record: Record) -> tuple:
    return tuple(getattr(record, f.name) for f in fields(record))


class Record:
    """Base of the package's records: each subclass is made a frozen
    dataclass under the rule above."""

    def __init_subclass__(cls) -> None:
        dataclass(cls, init=False, repr=False, eq=False)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        known = fields(cls)
        if len(args) > len(known):
            raise TypeError(f"{cls.__qualname__}() takes {len(known)} fields, got {len(args)}")
        given = dict(zip((f.name for f in known), args))
        for name, value in kwargs.items():
            if name in given:
                raise TypeError(f"{cls.__qualname__}() got field {name!r} twice")
            given[name] = value
        state = vars(self)
        for f in known:
            if f.name in given:
                state[f.name] = given.pop(f.name)
            elif f.default is not MISSING:
                state[f.name] = f.default
            elif f.default_factory is not MISSING:
                state[f.name] = f.default_factory()
            else:
                raise TypeError(f"{cls.__qualname__}() missing field {f.name!r}")
        if given:
            raise TypeError(f"{cls.__qualname__}() got an unexpected field {next(iter(given))!r}")
        if hasattr(cls, "__post_init__"):
            self.__post_init__()
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                state[name] = read_only(value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return same_value(_values(self), _values(other))

    def __hash__(self) -> int:
        # equal arrays hold equal elements, so they hash alike
        return hash(tuple(tuple(v.ravel().tolist()) if isinstance(v, np.ndarray) else v
                          for v in _values(self)))

    def __reduce__(self):
        # copies and pickles are built by __init__, so they hold read-only arrays too
        return type(self), _values(self)
