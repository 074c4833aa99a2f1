"""A family's module is imported only when a spec of that family is read.

``import cantorval.cli`` binds the multigeometric family, which every run
needs, and none of the other family modules; ``analyze`` and ``validate``
of a spec then import its own family's modules and no others.  Each check
runs in a fresh interpreter, so no import made by another test counts.
The package's names still import from ``cantorval.families`` as the same
objects as in their home modules.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cantorval
from cantorval import families

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((ROOT / "scripts" / "specs").glob("*.json"))

LAZY = ("ferens", "kyiv", "marchwicki", "periodic", "repeated")

# spec type -> the modules of LAZY that analyze and validate of one spec import
FAMILY_MODULES = {
    "multigeometric": [],
    "gf": ["ferens", "periodic"],
    "kyiv": ["kyiv", "periodic"],
    "mm": ["marchwicki", "periodic"],
    "repeated": ["periodic", "repeated"],
}

# every name cantorval.families exports -> its home module
EXPORTS = {
    "BlockGeometric": "periodic",
    "PeriodicSeq": "periodic",
    "geometric": "periodic",
    "MultigeometricSpec": "multigeometric",
    "self_similar": "multigeometric",
    "multigeometric": "multigeometric",
    "GFSpec": "ferens",
    "gf_group_set": "ferens",
    "gf_validate": "ferens",
    "subsum_run_total": "ferens",
    "MMSpec": "marchwicki",
    "mm_block": "marchwicki",
    "mm_block_coefficients": "marchwicki",
    "KyivSpec": "kyiv",
    "kyiv_chain_margin": "kyiv",
    "kyiv_group_set": "kyiv",
    "kyiv_progression": "kyiv",
    "kyiv_validate": "kyiv",
    "kyiv_values": "kyiv",
    "RepeatedTermSpec": "repeated",
    "semifast_check": "repeated",
    "standardness_ratio": "standardness",
    "spec_from_json": "io",
}

LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m.rpartition('.')[2] for m in sys.modules\n"
    "                        if m.startswith('cantorval.families.'))))\n"
)


def _run(code: str, *args: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(cantorval.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_family_module_but_multigeometric():
    loaded = _run("import cantorval.cli\n" + LOADED)
    assert "multigeometric" in loaded
    assert not set(LAZY) & set(loaded)


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_a_spec_loads_only_its_family_modules(path):
    code = (
        "import contextlib, io, sys\n"
        "from cantorval.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main([cmd, '--spec', sys.argv[1]]) for cmd in ('analyze', 'validate')]\n"
        "assert codes == [0, 0], codes\n" + LOADED
    )
    loaded = _run(code, str(path))
    kind = json.loads(path.read_text())["type"]
    assert sorted(set(LAZY) & set(loaded)) == FAMILY_MODULES[kind]


def test_every_family_type_has_a_bundled_spec():
    assert {json.loads(p.read_text())["type"] for p in SPECS} == set(FAMILY_MODULES)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_every_package_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"cantorval.families.{EXPORTS[name]}")
    assert getattr(families, name) is getattr(home, name)
    assert name in dir(families)


def test_a_lazy_name_imports_its_module_on_first_access():
    code = (
        "import cantorval.families as families\n"
        "from cantorval.families import GFSpec\n"
        "from cantorval.families.ferens import GFSpec as home\n"
        "assert GFSpec is home is families.GFSpec\n" + LOADED
    )
    assert _run(code) == ["ferens", "grouped", "io", "multigeometric", "periodic", "standardness"]


def test_the_function_multigeometric_survives_its_module_import():
    # the submodule shares the name: once imported it must not shadow the function
    code = (
        "import cantorval.families.multigeometric\n"
        "from cantorval.families import multigeometric\n"
        "import json\n"
        "print(json.dumps(type(multigeometric).__name__))\n"
    )
    assert _run(code) == "function"
    assert isinstance(families.multigeometric, types.FunctionType)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'NoSuchSpec'"):
        families.NoSuchSpec
