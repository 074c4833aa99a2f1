"""The subsum ladder holds numbers only; the report writers format them.

``cantorval.series`` builds F_n and I_n on integer lattices, and the rows'
endpoint strings are written by ``engine.IterationRows``.  The check is
static: it walks the module's syntax tree for an import of, or an
attribute named as, one of the text formatters of ``cantorval.exact``.

A report computes its tight trend and Kakeya split once, in
``classify.Evidence``, and its classification and report sections read them
from there; a second static check keeps every other module of the package
from calling ``tight_trend`` or ``kakeya_split``.  The ladder alone decides
which levels are separated: a third keeps every module but ``series.py``
from calling ``interleave``, which builds a level as if its predecessor were
separated, or ``_sweep``, which sweeps it.

Each report section has one form in the package, the text that ``analyze``
writes; a fourth static check keeps every module but ``cli.py``, which reads
specs and parses a report for ``build_report``, from parsing JSON text.

The self-similar block is read through ``families.self_similar``, which
gives None for every subject it has no block for; a fifth static check keeps
every module outside ``families/`` from naming ``MultigeometricSpec`` or
``mg_block`` or importing ``families.multigeometric``, so the operator,
its certificates and the classifier name no one family.

That value is also the Hutchinson operator Phi: ``SelfSimilar.image``,
``covers`` and ``windows``.  A sixth static check keeps every module but
``series.py`` from importing or reading ``merge_parts`` or
``covered_parts``, the two part-list steps of Phi's image and its cover
test, so no second copy of the operator grows back in another module.

A call of ``cli.main`` reads its argv and builds what it needs, and keeps
nothing for the next call; a seventh static check keeps every module of the
package free of ``global`` statements, so no per-process state, such as a
kept parser, comes back unreviewed.

A family whose terms come out of order has them sorted by
``grouped.sorted_stream``, which also bounds the head and fixes the
lattice; an eighth static check keeps every family module that builds a
stream from calling ``sort`` or ``sorted``, so no second sort grows there.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cantorval"
SERIES = PACKAGE / "series.py"
FORMATTERS = {"lattice_str", "lattice_strs", "pairs_chunks", "rat_str"}
ONCE_PER_REPORT = {"tight_trend", "kakeya_split"}
LADDER_ONLY = {"interleave", "_sweep"}
JSON_PARSERS = {"load", "loads"}
FAMILIES = PACKAGE / "families"
MULTIGEOMETRIC_NAMES = {"MultigeometricSpec", "mg_block"}
MULTIGEOMETRIC_MODULE = "families.multigeometric"
OPERATOR_STEPS = {"merge_parts", "covered_parts"}
SORTS = {"sort", "sorted"}
STREAM_FAMILIES = ("multigeometric", "ferens", "kyiv", "marchwicki", "repeated")


def imported_names(path: Path, wanted: set[str]) -> list[tuple[int, str]]:
    """(line, name) for each of ``wanted`` that ``path`` imports or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found.extend((node.lineno, name) for name in names if name in wanted)
    return found


def test_series_imports_no_text_formatter():
    assert imported_names(SERIES, FORMATTERS) == []


def test_the_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .exact import PointSet, lattice_strs\n"
        "from . import exact\n"
        "s = exact.rat_str(x)\n"
        "t = str(x)\n"
    )
    assert imported_names(probe, FORMATTERS) == [(1, "lattice_strs"), (3, "rat_str")]


def test_only_series_holds_the_operator():
    readers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        reads = imported_names(path, OPERATOR_STEPS)
        if reads and path != SERIES:
            readers[str(path.relative_to(PACKAGE))] = reads
    assert readers == {}
    assert {name for _, name in imported_names(SERIES, OPERATOR_STEPS)} == OPERATOR_STEPS


def test_the_operator_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .exact import intersect_parts, merge_parts\n"
        "from . import exact\n"
        "ok = exact.covered_parts(s, cover)\n"
        "u = merge(parts)\n"
    )
    assert imported_names(probe, OPERATOR_STEPS) == [(1, "merge_parts"), (3, "covered_parts")]


def called_names(path: Path, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) for each call in ``path`` of one of ``names``, spelled
    ``f(...)`` or ``mod.f(...)``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


def test_only_classify_computes_the_trend_and_split():
    callers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        calls = called_names(path, ONCE_PER_REPORT)
        if calls and path != PACKAGE / "classify.py":
            callers[str(path.relative_to(PACKAGE))] = calls
    assert callers == {}
    in_classify = called_names(PACKAGE / "classify.py", ONCE_PER_REPORT)
    assert {name for _, name in in_classify} == ONCE_PER_REPORT


def test_the_call_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .tightness import tight_trend\n"
        "from . import series\n"
        "t = tight_trend(ladder, 4)\n"
        "s = series.kakeya_split(stream, 4)\n"
        "f = tight_trend\n"
    )
    assert called_names(probe, ONCE_PER_REPORT) == [(3, "tight_trend"), (4, "kakeya_split")]


def test_only_the_ladder_builds_separated_levels():
    callers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        calls = called_names(path, LADDER_ONLY)
        if calls and path != SERIES:
            callers[str(path.relative_to(PACKAGE))] = calls
    assert callers == {}
    assert {name for _, name in called_names(SERIES, LADDER_ONLY)} == LADDER_ONLY


def test_the_ladder_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .series import LatticeLevel, _sweep\n"
        "a = level.interleave(term, cap)\n"
        "b = _sweep(ladder, n, a, True)\n"
        "c = LatticeLevel.extend(level, term, cap)\n"
        "d = ladder._sweep\n"
    )
    assert called_names(probe, LADDER_ONLY) == [(2, "interleave"), (3, "_sweep")]


def json_parses(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each ``json.load`` or ``json.loads`` that ``path``
    calls, or imports from ``json`` by name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((node.lineno, a.name) for a in node.names if a.name in JSON_PARSERS)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in JSON_PARSERS and getattr(func.value, "id", None) == "json":
                found.append((node.lineno, func.attr))
    return sorted(found)


def test_only_cli_parses_json():
    parsers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        calls = json_parses(path)
        if calls and path != PACKAGE / "cli.py":
            parsers[str(path.relative_to(PACKAGE))] = calls
    assert parsers == {}


def test_the_parse_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\n"
        "from json import loads\n"
        "doc = json.loads(text)\n"
        "spec = json.load(f)\n"
        "rows = self.load(f)\n"
    )
    assert json_parses(probe) == [(2, "loads"), (3, "loads"), (4, "load")]


def multigeometric_reads(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each of MULTIGEOMETRIC_NAMES that ``path`` imports
    or reads as a name or an attribute, and for each import of a module
    named ``...families.multigeometric``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found.extend(
            (node.lineno, name)
            for name in names
            if name in MULTIGEOMETRIC_NAMES or name.endswith(MULTIGEOMETRIC_MODULE)
        )
    return sorted(found)


def test_only_families_name_the_multigeometric_spec():
    readers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        reads = multigeometric_reads(path)
        if reads and FAMILIES not in path.parents:
            readers[str(path.relative_to(PACKAGE))] = reads
    assert readers == {}


def test_the_family_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .families.multigeometric import MultigeometricSpec\n"
        "from . import families\n"
        "import cantorval.families.multigeometric\n"
        "block = families.mg_block(spec)\n"
        "ok = isinstance(spec, MultigeometricSpec)\n"
        "similar = families.self_similar(spec)\n"
    )
    assert multigeometric_reads(probe) == [
        (1, "MultigeometricSpec"),
        (1, "families.multigeometric"),
        (3, "cantorval.families.multigeometric"),
        (4, "mg_block"),
        (5, "MultigeometricSpec"),
    ]


def global_statements(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each name that a ``global`` statement in ``path`` declares."""
    return sorted(
        (node.lineno, name)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Global)
        for name in node.names
    )


def test_no_module_declares_a_global():
    declared = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = global_statements(path)
        if names:
            declared[str(path.relative_to(PACKAGE))] = names
    assert declared == {}


def test_the_global_check_sees_every_scope(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "global_parser = None\n"
        "def main():\n"
        "    global _parser, _cache\n"
        "    class Kept:\n"
        "        def get(self):\n"
        "            global _parser\n"
        "    return global_parser\n"
    )
    assert global_statements(probe) == [(3, "_cache"), (3, "_parser"), (6, "_parser")]


def test_no_family_sorts_its_own_terms():
    sorting = {}
    for name in STREAM_FAMILIES:
        calls = called_names(FAMILIES / f"{name}.py", SORTS)
        if calls:
            sorting[name] = calls
    assert sorting == {}
    assert {name for _, name in called_names(FAMILIES / "grouped.py", SORTS)} == {"sort"}


def test_the_sort_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "terms.sort(reverse=True)\n"
        "runs = sorted(groups)\n"
        "key = sorted\n"
        "s = sort_key(x)\n"
    )
    assert called_names(probe, SORTS) == [(1, "sort"), (2, "sorted")]
