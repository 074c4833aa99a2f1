"""Immutable value classes, built without generated code.

``frozen`` gives a class whose body annotates its fields what
``dataclasses.dataclass(frozen=True)`` gives it: construction by position
or keyword, plain field defaults, ``__post_init__``, equality and hashing
over the field tuple within one class, a dataclass-style ``repr``, and an
AttributeError on assignment or deletion.  ``dataclasses`` writes each of
those methods as source text and execs it, once per class, which would be
most of the cost of importing ``cantorval``; here the methods of every
class run the same code, closed over its field names.  Instances keep a
``__dict__``, so ``functools.cached_property`` works on them, and
``__post_init__`` coerces a field with ``object.__setattr__``.  An instance
keeps its hash there too once computed, so a spec that keys a cache is
hashed once, not at every lookup.  Default factories are not supported.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__

_HASH = "hash()"  # the __dict__ key of a kept hash: no field name can be it


def frozen(cls: type) -> type:
    """Make ``cls`` an immutable value class over its annotated fields.

    Methods that the class body defines itself are kept, as dataclasses
    keeps them.  A field default is the class attribute of the field's
    name; fields without one come first.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    fields = frozenset(names)
    count = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    title = cls.__qualname__

    def bind(args: tuple, kwargs: dict) -> dict:
        """Field values from any call, with the errors a Python call raises."""
        if len(args) > count:
            raise TypeError(f"{title}() takes {count} positional arguments, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{title}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{title}() got multiple values for argument {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                if name not in defaults:
                    raise TypeError(f"{title}() missing required argument {name!r}")
                values[name] = defaults[name]
        return values

    def __init__(self, *args, **kwargs) -> None:
        # The two common calls take no detour.  All fields by keyword: the
        # call's fresh kwargs dict becomes the instance's.  All by position:
        # each field is set as a dataclass sets it.
        if kwargs:
            if args or kwargs.keys() != fields:
                kwargs = bind(args, kwargs)
            _setattr(self, "__dict__", kwargs)
        elif len(args) == count:
            i = 0
            for value in args:
                _setattr(self, names[i], value)
                i += 1
        else:
            _setattr(self, "__dict__", bind(args, kwargs))
        if post_init is not None:
            post_init(self)

    get = attrgetter(*names)
    key = (lambda self: (get(self),)) if count == 1 else get

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        got = self.__dict__.get(_HASH)
        if got is None:
            got = self.__dict__[_HASH] = hash(key(self))
        return got

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __repr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__hash__ = __hash__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls
