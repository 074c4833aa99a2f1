"""The stream's Kakeya pattern is the one source of the x_n vs r_n comparison.

Every verdict that turns on whether x_n > r_n (the Kakeya split, the tail
uniqueness rows, which ladder levels are swept) reads
``TermStream.kakeya_pattern()``.  Only ``families/grouped.py``, which builds
the pattern, may compare a term with a tail.  The check is static: it walks
each module's syntax tree for an ``ast.Compare`` whose operands hold both a
``term(...)`` and a ``tail(...)`` call, and for any use of ``compare_sign``,
the comparison's three-way sign: the builder maps it over the terms and
tails of its integer lattice, which are lists, not calls.

Two family validators make the same comparison on the spec's own
parameters, where the check cannot see it: ``gf_validate``'s GF2 compares
m_n q_n, the last term of group n, with the sum of the groups after it, and
``semifast_check`` compares y_k with the weighted tail after group k.  Each
is x_n vs r_n at the group boundary N_n.  They stay where they are, because
``validate`` reports them for specs that have no stream (terms that
increase across a group boundary raise StreamError).  A property holds
them to the pattern wherever the stream builds.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cantorval.families import GFSpec, gf_validate, semifast_check, spec_from_json
from cantorval.series import StreamError

from test_cli import gf_json
from test_uniqueness import repeated_specs

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cantorval"
BUILDER = PACKAGE / "families" / "grouped.py"


def _called(node: ast.AST) -> str | None:
    """The name a call node calls, ``f`` for ``f(...)`` and ``a.f(...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def term_tail_comparisons(path: Path) -> list[int]:
    """Line numbers where ``path`` compares a term(...) call with a
    tail(...) call, or names ``compare_sign`` (a call, or a value passed on)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Compare):
            names = {_called(operand) for operand in [node.left, *node.comparators]}
            if {"term", "tail"} <= names:
                found.append(node.lineno)
        elif (
            isinstance(node, ast.Name)
            and node.id == "compare_sign"
            or isinstance(node, ast.Attribute)
            and node.attr == "compare_sign"
        ):
            found.append(node.lineno)
    return sorted(found)


def test_only_the_pattern_builder_compares_terms_with_tails():
    offending = {
        str(path.relative_to(PACKAGE)): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != BUILDER and (lines := term_tail_comparisons(path))
    }
    assert offending == {}


def test_the_check_sees_the_builder_comparisons(tmp_path):
    # the pattern builder's integer comparison is found, and so are the
    # other spellings
    assert term_tail_comparisons(BUILDER)
    probe = tmp_path / "probe.py"
    probe.write_text(
        "a = s.term(n) > s.tail(n)\n"
        "b = 0 < stream.tail(k) <= stream.term(k)\n"
        "c = compare_sign(term(n), self.tail(n))\n"
        "d = s.term(n) > s.term(n + 1)\n"
        "e = list(map(series.compare_sign, scaled, tails))\n"
        "f = x * span > r\n"
    )
    assert term_tail_comparisons(probe) == [1, 2, 3, 5]


@given(st.one_of(gf_json().map(spec_from_json), repeated_specs()))
@settings(max_examples=200, deadline=None)
def test_family_validators_agree_with_the_pattern_at_group_boundaries(spec):
    try:
        stream = spec.stream()
    except StreamError:
        return
    if isinstance(spec, GFSpec):
        failure = gf_validate(spec).first_gf2_failure
        got = failure and failure[0]
    else:
        got = semifast_check(spec).first_violation
    pattern = stream.kakeya_pattern()
    expected = next(
        (
            n
            for n in range(1, stream.preperiod + stream.period + 1)
            if pattern.comparison_at(stream.boundary(n)) != ">"
        ),
        None,
    )
    assert got == expected
