import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cantorval import cli
from cantorval.cli import _dumps, build_report, main, validate_report_document
from cantorval.families import spec_from_json

from test_families import mm_specs
from test_uniqueness import repeated_specs

SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"
GN_JSON = '{"type":"multigeometric","k":[3,2],"q":"1/4"}'
DYADIC_JSON = '{"type":"multigeometric","k":[1],"q":"1/2"}'
OVERLAP_JSON = '{"type":"multigeometric","k":[3,1],"q":"1/2"}'
KYIV_OK = '{"type":"kyiv","m":{"pre":[],"period":[4]},"s":{"pre":[],"period":[8]}}'
KYIV_BAD = '{"type":"kyiv","m":{"pre":[],"period":[3]},"s":{"pre":[],"period":[5]}}'
KYIV_M_ONE = '{"type":"kyiv","m":{"pre":[],"period":[1]},"s":{"pre":[],"period":[6]}}'
GF_BAD = (
    '{"type":"gf","m":{"pre":[],"period":[2]},"k":{"pre":[],"period":[4]},'
    '"q":{"pre":[],"block":["1/2"],"ratio":"1/2"}}'
)
ZERO_Q = '{"type":"multigeometric","k":[3,2],"q":"1/0"}'
ZERO_K = '{"type":"multigeometric","k":[3,"2/0"],"q":"1/4"}'
REPEATED = (
    '{"type":"repeated","y":{"pre":[],"block":["1/4"],"ratio":"1/4"},'
    '"counts":{"pre":[],"period":[2]}}'
)
# more block coefficients than the block enumeration once allowed
ONES_31 = json.dumps({"type": "multigeometric", "k": [1] * 31, "q": "1/100"})
# a Kyiv head of 1200 groups, built in one pass without recursion
KYIV_LONG_HEAD = json.dumps(
    {"type": "kyiv", "m": {"pre": [4] * 1200, "period": [4]},
     "s": {"pre": [8] * 1200, "period": [8]}}
)
# JSON true is a Python bool, and so an int: each spec must still refuse it
MM_TRUE = '{"type":"mm","gaps":{"pre":[],"period":[true]}}'
KYIV_TRUE = '{"type":"kyiv","m":{"pre":[],"period":[4]},"s":{"pre":[],"period":[true]}}'
REPEATED_TRUE = REPEATED.replace('"period":[2]', '"period":[true]')


def run_cli(*args, env=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "cantorval", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


def assert_one_line_usage_error(proc):
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class TestValidate:
    def test_kyiv_passes(self):
        proc = run_cli("validate", "--inline", KYIV_OK, "--format", "human")
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_kyiv_limsup_fails(self):
        proc = run_cli("validate", "--inline", KYIV_BAD, "--format", "human")
        assert proc.returncode == 1
        assert "limsup" in proc.stdout
        assert "FAIL" in proc.stdout

    def test_gf_growth_condition_fails(self):
        proc = run_cli("validate", "--inline", GF_BAD, "--format", "json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        failing = [c for c in doc["conditions"] if not c["passed"]]
        assert any("GF2" in c["name"] for c in failing)

    def test_malformed_json_is_usage_error(self):
        assert run_cli("validate", "--inline", "{not json").returncode == 2

    def test_unknown_type_is_usage_error(self):
        assert run_cli("validate", "--inline", '{"type":"nope"}').returncode == 2

    def test_missing_spec_is_usage_error(self):
        assert run_cli("validate").returncode == 2

    def test_spec_and_inline_conflict(self):
        proc = run_cli("validate", "--inline", KYIV_OK, "--spec", "x.json")
        assert proc.returncode == 2

    def test_kyiv_m_one_reports_failing_conditions(self):
        proc = run_cli("validate", "--inline", KYIV_M_ONE, "--format", "human")
        assert proc.returncode == 1
        assert "FAIL  m_n >= 3: fails at n=1: m=1" in proc.stdout

    def test_semifast_validate(self):
        proc = run_cli("validate", "--inline", REPEATED, "--format", "json")
        assert proc.returncode == 0


class TestAnalyze:
    def test_json_document_shape(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "analyze", "--inline", GN_JSON, "--depth", "6", "--out", str(out)
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        validate_report_document(doc)
        assert doc["classification"]["verdict"] == "Cantorval"
        assert doc["measure_bounds"]["upper_lambda_e"] == "41/32"
        assert doc["iterations"][2]["measure"] == "3/2"

    def test_dyadic_bounds(self):
        proc = run_cli("analyze", "--inline", DYADIC_JSON, "--depth", "5")
        doc = json.loads(proc.stdout)
        assert doc["classification"]["verdict"] == "MultiInterval"
        assert doc["measure_bounds"]["upper_lambda_e"] == "1/1"
        assert doc["measure_bounds"]["lower_interior"] == "1/1"
        assert doc["measure_bounds"]["boundary_gap"] == "0/1"

    def test_validated_overlapping_spec_analyzes(self):
        # (3, 1; 1/2) has k_m < k_1 q, so its sorted terms interleave
        checked = run_cli("validate", "--inline", OVERLAP_JSON)
        proc = run_cli("analyze", "--inline", OVERLAP_JSON)
        assert checked.returncode == 0
        assert proc.returncode == 0
        assert "Traceback" not in checked.stderr + proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["classification"]["verdict"] == "MultiInterval"
        assert doc["classification"]["tier"] == "Proved"
        assert doc["measure_bounds"]["upper_lambda_e"] == "4/1"
        assert doc["measure_bounds"]["lower_interior"] == "4/1"

    def test_kyiv_boundary_tail_in_report(self):
        proc = run_cli("analyze", "--inline", KYIV_OK, "--depth", "13")
        doc = json.loads(proc.stdout)
        # r at the first group boundary appears exactly
        assert doc["iterations"][13]["n"] == 13
        assert doc["iterations"][13]["tail"] == "1/25"
        assert doc["classification"]["verdict"] == "Cantorval"
        assert doc["classification"]["tier"] == "Proved"
        assert doc["standardness"]["at_index"] == "3/4"

    def test_byte_identical_reruns(self):
        a = run_cli("analyze", "--inline", GN_JSON, "--depth", "6")
        b = run_cli("analyze", "--inline", GN_JSON, "--depth", "6")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_round_trip_reparse(self):
        proc = run_cli("analyze", "--inline", GN_JSON, "--depth", "5")
        doc = json.loads(proc.stdout)
        validate_report_document(doc)
        assert json.loads(json.dumps(doc)) == doc

    def test_csv_emission(self, tmp_path):
        outdir = tmp_path / "tables"
        proc = run_cli(
            "analyze", "--inline", KYIV_OK, "--depth", "6",
            "--format", "csv", "--out", str(outdir),
        )
        assert proc.returncode == 0
        iterations = (outdir / "iterations.csv").read_text().splitlines()
        assert iterations[0] == "n,measure,brick_count,gap_count"
        assert len(iterations) == 8  # header + depths 0..6
        trend = (outdir / "tight_trend.csv").read_text().splitlines()
        assert trend[0] == "n,delta"
        assert (outdir / "standardness.csv").exists()
        assert (outdir / "report.json").exists()

    def test_csv_without_out_is_usage_error(self):
        proc = run_cli("analyze", "--inline", GN_JSON, "--format", "csv")
        assert proc.returncode == 2

    def test_capacity_exit_code(self):
        proc = run_cli("analyze", "--inline", GN_JSON, "--depth", "9", "--cap", "10")
        assert proc.returncode == 3
        assert "capacity" in proc.stderr.lower()

    def test_oversized_block_level_fails_before_it_is_built(self):
        # the block of (2^22, ..., 2, 1 x 9; 1/2) reaches 2,097,152 subsums at
        # its 21st coefficient, past the default cap; the block ladder must
        # refuse that level before merging it (peak about 160 MB when it merged
        # first), and the report, which does without the block, is unchanged
        script = (
            "import contextlib, hashlib, io, json, resource\n"
            "from cantorval.cli import main\n"
            "k = [2 ** e for e in range(22, 0, -1)] + [1] * 9\n"
            "spec = json.dumps({'type': 'multigeometric', 'k': k, 'q': '1/2'})\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(['analyze', '--inline', spec])\n"
            "digest = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
            "print(code, digest, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.stderr == ""
        code, digest, peak_kb = proc.stdout.split()
        assert code == "0"
        assert digest == "7cd7e841ad36e37dee9dc1eacbfd015082e4cfa162005050bf3691a21ac2e16c"
        assert int(peak_kb) < 135 * 1024

    def test_env_cap_override(self):
        proc = run_cli(
            "analyze", "--inline", GN_JSON, "--depth", "9",
            env={"CANTORVAL_CAP": "10"},
        )
        assert proc.returncode == 3

    def test_human_format(self):
        proc = run_cli(
            "analyze", "--inline", GN_JSON, "--depth", "5", "--format", "human"
        )
        assert proc.returncode == 0
        assert "Cantorval" in proc.stdout

    def test_spec_file_input(self, tmp_path):
        path = tmp_path / "gn.json"
        path.write_text(GN_JSON)
        proc = run_cli("analyze", "--spec", str(path), "--depth", "4")
        assert proc.returncode == 0

    @pytest.mark.parametrize(
        "spec,depth", [(ONES_31, "8"), (KYIV_LONG_HEAD, "4")], ids=["ones-31", "kyiv-head-1200"]
    )
    def test_validated_large_spec_analyzes(self, spec, depth):
        checked = run_cli("validate", "--inline", spec)
        proc = run_cli("analyze", "--inline", spec, "--depth", depth)
        assert checked.returncode == 0
        assert proc.returncode == 0
        assert "Traceback" not in checked.stderr + proc.stderr

    def test_repeated_spec_uniqueness_section(self):
        proc = run_cli("analyze", "--inline", REPEATED, "--depth", "6")
        doc = json.loads(proc.stdout)
        assert doc["classification"]["verdict"] == "Cantor"
        assert doc["uniqueness"]["semifast"]["semifast"] is True
        assert doc["uniqueness"]["representation_oracle"] is True


class TestBadInput:
    @pytest.mark.parametrize(
        "args,env",
        [
            (("analyze", "--inline", GN_JSON, "--depth", "0"), None),
            (("analyze", "--inline", GN_JSON, "--depth", "-1"), None),
            (("analyze", "--inline", GN_JSON, "--horizon", "0"), None),
            (("analyze", "--inline", GN_JSON, "--horizon", "-2"), None),
            (("analyze", "--inline", GN_JSON, "--cap", "0"), None),
            (("analyze", "--inline", GN_JSON, "--budget", "-1"), None),
            (("analyze", "--inline", GN_JSON), {"CANTORVAL_CAP": "abc"}),
            (("validate", "--inline", '{"type":"repeated"}'), None),
            (("analyze", "--inline", '{"type":"repeated"}'), None),
            (("analyze", "--inline", KYIV_M_ONE), None),
            (("validate", "--inline", ZERO_Q), None),
            (("analyze", "--inline", ZERO_Q), None),
            (("validate", "--inline", ZERO_K), None),
            (("analyze", "--inline", ZERO_K), None),
            (("analyze", "--spec", str(SPECS / "gn.json"), "--depth", "14",
              "--format", "csv"), None),
            (("analyze", "--spec", str(SPECS / "gn.json"), "--depth", "7",
              "--cap", "100", "--format", "csv"), None),
            (("validate", "--inline", MM_TRUE), None),
            (("analyze", "--inline", MM_TRUE), None),
            (("validate", "--inline", KYIV_TRUE), None),
            (("analyze", "--inline", KYIV_TRUE), None),
            (("validate", "--inline", REPEATED_TRUE), None),
            (("analyze", "--inline", REPEATED_TRUE), None),
        ],
        ids=[
            "depth-0", "depth-negative", "horizon-0", "horizon-negative", "cap-0",
            "budget-negative", "env-cap-not-integer", "validate-repeated-missing-keys",
            "analyze-repeated-missing-keys", "analyze-kyiv-m-one",
            "validate-zero-denominator-q", "analyze-zero-denominator-q",
            "validate-zero-denominator-k", "analyze-zero-denominator-k",
            "csv-without-out", "csv-without-out-over-capacity",
            "validate-mm-gap-true", "analyze-mm-gap-true",
            "validate-kyiv-s-true", "analyze-kyiv-s-true",
            "validate-repeated-count-true", "analyze-repeated-count-true",
        ],
    )
    def test_usage_error_is_one_line(self, args, env):
        assert_one_line_usage_error(run_cli(*args, env=env))

    @pytest.mark.parametrize(
        "args,out",
        [
            (("validate", "--inline", GN_JSON), "missing/report.json"),
            (("analyze", "--inline", GN_JSON, "--depth", "2"), "missing/report.json"),
            (("analyze", "--inline", GN_JSON, "--depth", "2", "--format", "csv"), "taken"),
        ],
        ids=[
            "validate-out-in-missing-dir", "analyze-out-in-missing-dir",
            "analyze-csv-out-is-a-file",
        ],
    )
    def test_unwritable_out_is_one_line(self, tmp_path, args, out):
        (tmp_path / "taken").write_text("")
        assert_one_line_usage_error(run_cli(*args, "--out", str(tmp_path / out)))


class TestReportBuilder:
    def test_build_report_matches_cli_output(self):
        spec = spec_from_json(json.loads(GN_JSON))
        doc = build_report(spec, depth=5, horizon=5, cap=2_000_000, budget=12)
        proc = run_cli("analyze", "--inline", GN_JSON, "--depth", "5", "--horizon", "5")
        assert json.loads(proc.stdout) == doc

    def test_validator_rejects_missing_sections(self):
        with pytest.raises(ValueError):
            validate_report_document({"spec": {}})

    def test_main_returns_usage_on_unknown_flag(self):
        assert main(["analyze", "--bogus"]) == 2

    def test_one_parser_serves_every_call(self, monkeypatch, capsys):
        builds = []
        build_parser = cli.build_parser

        def counting():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        gn = str(SPECS / "gn.json")
        assert main(["analyze", "--depth", "0"]) == 2
        assert main(["validate", "--spec", gn]) == 0
        capsys.readouterr()
        assert main(["analyze", "--spec", gn, "--depth", "6"]) == 0
        in_process = capsys.readouterr().out
        assert builds == [1]
        fresh = subprocess.run(
            [sys.executable, "-m", "cantorval", "analyze", "--spec", gn, "--depth", "6"],
            capture_output=True,
        )
        assert fresh.returncode == 0
        assert in_process.encode() == fresh.stdout


# JSON trees for the report encoder: strings with escapes, non-ASCII and
# astral characters, ints of any size, and lists of [str, str] pairs, the
# shape of a report's parts and gaps, on their own and next to other items.
json_text = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600ab', max_size=8),
)
json_ints = st.one_of(st.integers(-1000, 1000), st.integers(-(2**200), 2**200))
json_pairs = st.lists(st.tuples(json_text, json_text).map(list), max_size=4)


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
        json_pairs,
        st.lists(st.one_of(st.tuples(json_text, json_text).map(list), children), max_size=4),
    )


json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), json_ints, json_text, json_pairs),
    _json_containers,
    max_leaves=24,
)


class TestDumps:
    @given(json_trees)
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib_indent_2(self, tree):
        assert _dumps(tree) == json.dumps(tree, indent=2) + "\n"

    @given(json_trees, st.floats(allow_nan=False))
    def test_float_is_a_type_error(self, tree, x):
        with pytest.raises(TypeError):
            _dumps({"tree": tree, "float": [x]})

    @given(json_trees, st.one_of(st.none(), st.booleans(), json_ints, st.floats()))
    def test_non_str_key_is_a_type_error(self, tree, key):
        with pytest.raises(TypeError):
            _dumps([tree, {key: tree}])


# Values swapped in for one entry of a bundled spec, as JSON text so that
# each swap inserts a fresh object.
REPLACEMENTS = ("null", "[]", "[2, 1]", '"x"', '"1/0"', "0.5", "0", "-1", "-2", "true")


def _paths(doc, prefix=()):
    """Every key path inside a JSON document, the root left out."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ()
    )
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_specs(draw):
    """A bundled spec with one or two entries dropped or swapped."""
    doc = json.loads(draw(st.sampled_from(sorted(SPECS.glob("*.json")))).read_text())
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parents:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = json.loads(draw(st.sampled_from(REPLACEMENTS)))
    return json.dumps(doc)


class TestFuzzedSpecs:
    @given(
        mutated_specs(),
        st.lists(st.integers(1, 4), min_size=3, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_and_one_line_errors(self, spec, numbers):
        flags = [
            f"--{name}={value}"
            for name, value in zip(("depth", "horizon", "budget"), numbers)
        ]
        for command in ("validate", "analyze"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--inline", spec, *flags])
            assert code in (0, 1, 2, 3)
            # 1 is a failed admissibility condition, reported on stdout
            assert len(err.getvalue().splitlines()) == (1 if code in (2, 3) else 0)
            assert "Traceback" not in err.getvalue()


@st.composite
def multigeometric_json(draw):
    """1-32 coefficients in 1..3 and q = 1/b or a/b, b <= 10; k_m < k_1 q
    whenever the coefficients spread wider than 1/q."""
    coefficients = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=32)))
    b = draw(st.integers(2, 10))
    a = draw(st.one_of(st.just(1), st.integers(1, b - 1)))
    return {"type": "multigeometric", "k": coefficients[::-1], "q": f"{a}/{b}"}


@st.composite
def kyiv_json(draw):
    """m in 3..6, preperiod 0-2 and period 1-2 long, and s_n >= 3 m_n - 4
    at every index, so validate passes unless no m in the period reaches 4."""
    m = {
        "pre": draw(st.lists(st.integers(3, 6), max_size=2)),
        "period": draw(st.lists(st.integers(3, 6), min_size=1, max_size=2)),
    }
    s = {key: [3 * v - 4 + draw(st.integers(0, 4)) for v in m[key]] for key in m}
    return {"type": "kyiv", "m": m, "s": s}


class TestValidatedSpecsAnalyze:
    """A spec that validate accepts can be analyzed (generalized Ferens is
    left out: validate still accepts some GF specs whose stream is not
    monotone across a group boundary)."""

    @given(
        st.one_of(
            multigeometric_json(),
            mm_specs().map(lambda spec: spec.to_json()),
            kyiv_json(),
            repeated_specs().map(lambda spec: spec.to_json()),
        )
    )
    @example(json.loads(ONES_31))
    @settings(max_examples=100, deadline=None)
    def test_validate_pass_implies_analyze_runs(self, doc):
        spec = json.dumps(doc)
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["validate", "--inline", spec]) != 0:
                return
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", "--inline", spec, "--depth", "3"])
        assert code in (0, 3)
        assert "Traceback" not in err.getvalue()
