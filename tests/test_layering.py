"""The subsum ladder holds numbers only; the report writers format them.

``cantorval.series`` builds F_n and I_n on integer lattices, and the rows'
endpoint strings are written by ``engine.IterationRows``.  The check is
static: it walks the module's syntax tree for an import of, or an
attribute named as, one of the text formatters of ``cantorval.exact``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SERIES = Path(__file__).resolve().parents[1] / "src" / "cantorval" / "series.py"
FORMATTERS = {"lattice_str", "lattice_strs", "pairs_text", "rat_str"}


def formatter_names(path: Path) -> list[tuple[int, str]]:
    """(line, name) for each formatter that ``path`` imports or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found.extend((node.lineno, name) for name in names if name in FORMATTERS)
    return found


def test_series_imports_no_text_formatter():
    assert formatter_names(SERIES) == []


def test_the_check_sees_both_spellings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .exact import PointSet, lattice_strs\n"
        "from . import exact\n"
        "s = exact.rat_str(x)\n"
        "t = str(x)\n"
    )
    assert formatter_names(probe) == [(1, "lattice_strs"), (3, "rat_str")]
