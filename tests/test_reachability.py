"""Every public function, class and method is reached by a command or kept
for a reason.

A public module-level function or class of ``cantorval``, and a public
method, property or cached property that a public class's body defines,
must run when ``analyze`` or ``validate`` does, or be named below with the
reason it is kept; anything else is a candidate for deletion.  Dunder
methods and abstract methods are exempt.  The commands run under
``sys.setprofile`` in a fresh interpreter, so no cache warmed by another
test hides a call: ``analyze --depth 8`` and ``validate`` on every bundled
spec, ``analyze`` in the human and csv formats and ``validate`` in the
human format on one of them, so code that only a non-JSON writer runs
counts, and one ``analyze --cap 2`` that ends in CapacityError.  Every
``cantorval`` module is imported before the profiler starts, since a
family's module is imported by the first command that reads a spec of its
type: what counts is code a command runs, not code that runs at import.

A function or method is reached when its code runs.  A class is reached
when code defined in its body runs.  A class whose body defines no
function, such as an enum, an exception or a value class whose methods all
come from ``cantorval.frozen``, is reached when code that runs reads its
name; those shared methods belong to no one class.

Run as a script, this file runs the commands and prints the public names
and methods they leave unreached as JSON.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import io
import json
import pkgutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cached_property
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((ROOT / "scripts" / "specs").glob("*.json"))

# Kept without a command reaching them, each for the reason given.
EXPLICIT = {
    "cantorval.cli.build_report": (
        "the report pins and library callers read the plain-JSON document,"
        " which is the text analyze writes, parsed"
    ),
    "cantorval.cli.validate_report_document": "perfbench/checks.py checks every report with it",
    "cantorval.exact.lattice_str": (
        "the one-value form that tests check lattice_strs against; classify's"
        " separated-block witness, which no bundled spec reaches, calls it"
    ),
    "cantorval.families.kyiv.KyivValues": (
        "kyiv_values, which test_acceptance.py imports, returns it; the Kyiv"
        " stream reads its groups off the integer lattice instead"
    ),
    "cantorval.frozen.frozen": (
        "the decorator of every value class; it runs when their modules are"
        " imported, before any command"
    ),
    "cantorval.tightness.TightDecomposition": (
        "tight_decompose returns it, and max_tight_diameter, which"
        " test_acceptance.py imports, reads it"
    ),
    "cantorval.exact.PointSet.from_values": (
        "mm_block, which test_acceptance.py imports, builds its set with it,"
        " and test_acceptance.py calls it"
    ),
    "cantorval.engine.IterationReport.iteration": (
        "test_acceptance.py reads I_n as an IntervalSet through it; the"
        " report writes I_n from the Bricks"
    ),
    "cantorval.uniqueness.RepetitionReport.collisions": (
        "test_acceptance.py reads the collided values as a PointSet through it;"
        " the report writes them from the integers"
    ),
    "cantorval.series.LatticeLevel.points": (
        "kyiv_group_set, which test_acceptance.py imports, returns its set"
    ),
    "cantorval.tightness.TightDecomposition.max_diameter": (
        "max_tight_diameter, which test_acceptance.py imports, returns it"
    ),
    "cantorval.tightness.TightTrend.final": (
        "classify's last prover reads it when the tight trend shows no interval"
        " evidence, which no bundled spec reaches at depth 8"
    ),
}


def public_objects() -> dict[str, object]:
    """Every public function and class of cantorval, by its home module's name."""
    import cantorval

    modules = ["cantorval"] + [
        info.name
        for info in pkgutil.walk_packages(cantorval.__path__, "cantorval.")
        if info.name != "cantorval.__main__"  # importing it runs the CLI
    ]
    found = {}
    for name in modules:
        for attr, obj in vars(importlib.import_module(name)).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                continue
            if inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)):
                found[f"{name}.{attr}"] = obj
    return found


def home_name(obj) -> str:
    return f"{obj.__module__}.{obj.__name__}"


def _function(cls, attr):
    """The function that ``cls``'s body defines as ``attr``, or None."""
    if isinstance(attr, (staticmethod, classmethod)):
        attr = attr.__func__
    elif isinstance(attr, property):
        attr = attr.fget
    elif isinstance(attr, cached_property):
        attr = attr.func
    if inspect.isfunction(attr) and attr.__qualname__.startswith(cls.__qualname__ + "."):
        return attr
    return None


def public_methods(objects: dict[str, object]) -> dict[str, object]:
    """Every public method, property and cached property that the body of a
    public class defines, by its class's name, with its function; dunder and
    abstract methods are left out."""
    found = {}
    for name, cls in objects.items():
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            func = _function(cls, value)
            if func is not None and not attr.startswith("_") and not getattr(
                value, "__isabstractmethod__", False
            ):
                found[f"{name}.{attr}"] = func
    return found


def run_commands() -> dict:
    """Run the commands under a profiler: their exit codes and the public
    names and methods they leave unreached."""
    from cantorval import cli

    objects = public_objects()  # imports every module before profiling
    methods = public_methods(objects)
    kyiv = str(ROOT / "scripts" / "specs" / "kyiv48.json")
    with tempfile.TemporaryDirectory() as tables:
        argvs = []
        for spec in SPECS:
            argvs.append(["analyze", "--spec", str(spec), "--depth", "8"])
            argvs.append(["validate", "--spec", str(spec)])
        argvs.append(["analyze", "--spec", kyiv, "--format", "human"])
        argvs.append(["analyze", "--spec", kyiv, "--format", "csv", "--out", tables])
        argvs.append(["validate", "--spec", kyiv, "--format", "human"])
        argvs.append(["analyze", "--spec", str(ROOT / "scripts" / "specs" / "gn.json"), "--cap", "2"])
        ran = set()

        def record(frame, event, arg):
            if event == "call":
                ran.add(frame.f_code)

        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            sys.setprofile(record)
            try:
                codes = [cli.main(argv) for argv in argvs]
            finally:
                sys.setprofile(None)
    read = set().union(*(code.co_names for code in ran))
    unreached = []
    for name, obj in objects.items():
        if inspect.isclass(obj):
            own = [f for value in vars(obj).values() if (f := _function(obj, value))]
            hit = any(f.__code__ in ran for f in own) if own else obj.__name__ in read
        else:
            hit = inspect.unwrap(obj).__code__ in ran
        if not hit:
            unreached.append(name)
    return {
        "exit_codes": codes,
        "unreached": unreached,
        "unreached_methods": [name for name, f in methods.items() if f.__code__ not in ran],
    }


def span_targets() -> dict[str, str]:
    """The functions perfbench/spans.py times, read as test_span_targets does."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        home_name(inspect.unwrap(getattr(importlib.import_module(f"cantorval.{layer}"), name))):
        "perfbench/spans.py times it"
        for layer, names in module.TARGETS.items()
        for name in names
    }


def acceptance_imports() -> dict[str, str]:
    """The cantorval names that test_acceptance.py imports at module level."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cantorval"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = inspect.unwrap(getattr(module, alias.name))
                found[home_name(obj)] = "test_acceptance.py uses it"
    return found


@pytest.fixture(scope="module")
def commands() -> dict:
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_run_to_their_exit_codes(commands):
    assert commands["exit_codes"] == [0] * (2 * len(SPECS) + 3) + [3]


def test_every_public_name_is_reached_or_kept_for_a_reason(commands):
    allowed = {**span_targets(), **acceptance_imports(), **EXPLICIT}
    unreached = set(commands["unreached"]) - set(allowed)
    assert not unreached, (
        "public names that neither analyze nor validate reaches, kept for no reason: "
        + ", ".join(sorted(unreached))
    )


def test_every_public_method_is_reached_or_kept_for_a_reason(commands):
    unreached = set(commands["unreached_methods"]) - set(EXPLICIT)
    assert not unreached, (
        "public methods that neither analyze nor validate reaches, kept for no reason: "
        + ", ".join(sorted(unreached))
    )


def test_explicit_reasons_name_public_names_no_command_reaches(commands):
    stale = set(EXPLICIT) - set(commands["unreached"]) - set(commands["unreached_methods"])
    assert not stale, f"stale entries: {sorted(stale)}"


if __name__ == "__main__":
    print(json.dumps(run_commands(), indent=1))
