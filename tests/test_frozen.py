"""Value classes made by ``cantorval.frozen`` behave as frozen dataclasses.

Each twin below is one class body decorated twice, once with ``frozen``
and once with ``dataclasses.dataclass(frozen=True)``; every call must build
equal-looking instances on both or raise TypeError on both.  The last test
runs ``import cantorval.cli`` in a fresh interpreter: it must not import
``dataclasses`` or ``inspect``, and no method of a cantorval class may be
code compiled from a string.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from cantorval.engine import iterate
from cantorval.exact import Interval
from cantorval.families import MultigeometricSpec, self_similar
from cantorval.frozen import frozen
from cantorval.series import SubsumLadder

SRC = Path(__file__).resolve().parents[1] / "src"


def pair(decorate):
    class Pair:
        lo: Fraction
        hi: Fraction = Fraction(1)

        def __post_init__(self) -> None:
            object.__setattr__(self, "lo", Fraction(self.lo))

        @cached_property
        def width(self) -> Fraction:
            return self.hi - self.lo

    return decorate(Pair)


def single(decorate):
    class Single:
        values: tuple

    return decorate(Single)


TWINS = {
    "pair": (pair(frozen), pair(dataclasses.dataclass(frozen=True))),
    "single": (single(frozen), single(dataclasses.dataclass(frozen=True))),
}

CALLS = [
    ("pair", ("1/2",), {}),
    ("pair", ("1/2", Fraction(3)), {}),
    ("pair", (), {"lo": "1/2", "hi": Fraction(2)}),
    ("pair", (), {"hi": Fraction(2), "lo": 1}),
    ("pair", (1,), {"hi": Fraction(2)}),
    ("pair", (), {}),
    ("pair", (), {"hi": Fraction(2)}),
    ("pair", (1, 2, 3), {}),
    ("pair", (), {"lo": 1, "mid": 2}),
    ("pair", (1,), {"lo": 2}),
    ("single", ((1, 2),), {}),
    ("single", (), {"values": (3,)}),
    ("single", (), {}),
    ("single", ((1,), (2,)), {}),
    ("single", (), {"value": (1,)}),
]


def build(cls, args, kwargs):
    try:
        return cls(*args, **kwargs)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("twin, args, kwargs", CALLS)
def test_frozen_matches_a_frozen_dataclass(twin, args, kwargs):
    made, reference = TWINS[twin]
    got, expected = build(made, args, kwargs), build(reference, args, kwargs)
    if expected is TypeError:
        assert got is TypeError
        return
    assert repr(got) == repr(expected)
    assert hash(got) == hash(expected)
    assert got == build(made, args, kwargs)
    assert got != expected  # another class, as between two dataclasses
    names = [f.name for f in dataclasses.fields(reference)]
    for name in names:
        assert getattr(got, name) == getattr(expected, name)
        with pytest.raises(AttributeError):
            setattr(got, name, None)
        with pytest.raises(AttributeError):
            delattr(got, name)
    with pytest.raises(AttributeError):
        got.other = None
    changed = build(made, (), {names[0]: getattr(got, names[0]) + getattr(got, names[0])})
    assert changed != got


def test_cached_property_keeps_equality():
    made, _ = TWINS["pair"]
    p = made("1/4")
    assert p.width is p.width == Fraction(3, 4)
    assert "width" in vars(p)
    assert p == made("1/4") and hash(p) == hash(made("1/4"))


def test_post_init_coerces_interval_endpoints():
    interval = Interval("1/2", 1)
    assert (interval.lo, interval.hi) == (Fraction(1, 2), Fraction(1))
    assert type(interval.hi) is Fraction
    assert interval == Interval(Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        Interval(1, "1/2")


def test_iteration_report_caches_its_interval_set():
    spec = MultigeometricSpec((3, 2, 2, 2), Fraction(1, 4))
    report = iterate(SubsumLadder(spec.stream()), 2)
    assert "iteration" not in vars(report)
    first = report.iteration
    assert report.iteration is first and vars(report)["iteration"] is first
    assert report == iterate(SubsumLadder(spec.stream()), 2)
    with pytest.raises(AttributeError):
        report.iteration = None


def test_hash_is_kept_once_computed():
    hashed = []

    class Counted:
        def __hash__(self):
            hashed.append(None)
            return 7

    made, twin = TWINS["single"]
    item = Counted()
    got = made((item, 1))
    first = hash(got)
    assert hash(got) == first and len(hashed) == 1
    # the kept hash changes neither equality, repr nor the fields in vars()
    assert got == made((item, 1)) and repr(got) == repr(twin((item, 1)))
    assert vars(got)["values"] == (item, 1)
    unhashable = made(([1],))
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_equal_specs_share_one_cached_block():
    a = MultigeometricSpec((3, 2, 2, 2), Fraction(1, 4))
    b = MultigeometricSpec(("3", "2", "2", "2"), "1/4")
    assert a == b and hash(a) == hash(b)
    assert self_similar(a) is self_similar(b)


PROBE = """
import importlib, json, pkgutil, sys
import cantorval.cli
loaded = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
import cantorval
strings = []
for info in pkgutil.walk_packages(cantorval.__path__, "cantorval."):
    if info.name == "cantorval.__main__":
        continue
    module = importlib.import_module(info.name)
    for cls in vars(module).values():
        if not isinstance(cls, type) or cls.__module__ != info.name:
            continue
        for attr in vars(cls).values():
            attr = getattr(attr, "__func__", getattr(attr, "fget", getattr(attr, "func", attr)))
            code = getattr(attr, "__code__", None)
            if code is not None and code.co_filename == "<string>":
                strings.append(f"{cls.__qualname__}.{attr.__name__}")
print(json.dumps({"loaded": loaded, "strings": strings}))
"""


def test_import_generates_no_code():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found == {"loaded": [], "strings": []}
