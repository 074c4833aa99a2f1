import contextlib
import hashlib
import importlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import weakref
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cantorval import cli
from cantorval.cli import _dumps, build_report, main, validate_report_document
from cantorval.families import MultigeometricSpec, io as family_io, self_similar, spec_from_json
from cantorval.series import SelfSimilar, subsum_level

from test_families import kyiv_specs, mg_specs, mm_specs
from test_uniqueness import repeated_specs

# the module, which the package's multigeometric() constructor shadows
multigeometric_module = importlib.import_module("cantorval.families.multigeometric")

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
# nested fields that BlockGeometric and PeriodicSeq refuse: gf_decimal's q
# with an empty block, a ratio of 1 or a negative block value, and an mm
# spec with an empty gap period
GF_DECIMAL = (
    '{"type":"gf","m":{"pre":[],"period":[2]},"k":{"pre":[],"period":[4]},'
    '"q":{"pre":[],"block":["1/10"],"ratio":"1/10"}}'
)
GF_EMPTY_BLOCK = GF_DECIMAL.replace('"block":["1/10"]', '"block":[]')
GF_RATIO_ONE = GF_DECIMAL.replace('"ratio":"1/10"', '"ratio":"1/1"')
GF_NEGATIVE_BLOCK = GF_DECIMAL.replace('"block":["1/10"]', '"block":["-1/10"]')
MM_EMPTY_PERIOD = '{"type":"mm","gaps":{"pre":[],"period":[]}}'
# exact values whose report outgrows Python's default int-to-str limit
BIG_VALUES = json.dumps(
    {"type": "multigeometric", "k": ["1/" + "9" * 3000], "q": "1/" + "9" * 2000}
)
# an exponent names a 20,001-digit denominator in eight characters
EXPONENT_Q = '{"type":"multigeometric","k":[3,2],"q":"1e-20000"}'
DECIMAL_Q = '{"type":"multigeometric","k":[3,2],"q":"0.5"}'
# a block of 2,097,152 subsums, past the default cap, with a 2-value F_1
BIG_BLOCK = json.dumps(
    {"type": "multigeometric", "k": [2**40] + [2**25 + 2**e for e in range(21, -1, -1)],
     "q": "1/65536"}
)
DEEP = "[" * 5000 + "]" * 5000  # nests past the JSON decoder's recursion limit


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cantorval", *args], capture_output=True, text=True
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

    @pytest.mark.parametrize("cap, tier", [("100", "Heuristic"), ("200", "Certified")])
    def test_certificate_seed_over_the_cap_keeps_the_verdict(self, cap, tier, capsys):
        # ferens_5432's certificate search seeds with I_8, two blocks of four
        # terms, and F_7 has 104 values: under a cap of 100 the search gives
        # no certificate, so the horizon decides the tier and the command,
        # whose own rows need only F_4, still exits 0
        args = ["analyze", "--spec", str(SPECS / "ferens_5432.json"), "--depth", "4",
                "--horizon", "4", "--cap", cap]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        c = json.loads(captured.out)["classification"]
        assert (c["verdict"], c["tier"]) == ("Cantorval", tier)

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

    def test_over_capacity_block_certifies_nothing(self):
        # no family or pattern proof decides this spec, and its block is over
        # the cap: the separated-block test, like the certificate search and
        # measure_bounds, takes that as no certificate, so the report is
        # written (the verdict is not pinned)
        proc = run_cli("analyze", "--depth", "1", "--inline", BIG_BLOCK)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["measure_bounds"]["certificate"] is None

    def test_seed_beyond_a_shallow_depth_passes_the_cap(self):
        # depth 1 < m = 8, so measure_bounds' seed 1, I_8, needs F_8 and
        # passes the cap of 4: the search ends with no certificate, and the
        # report is the one the program wrote before seeds could raise here
        spec = '{"type":"multigeometric","k":[1,1,1,1,1,1,1,1],"q":"1/2"}'
        proc = run_cli("analyze", "--inline", spec, "--depth", "1", "--cap", "4")
        assert (proc.returncode, proc.stderr) == (0, "")
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "6fa2f34a7b045ec554f3e33b0dd2e54e39f5e1a74e949d890ca99bbca8f5d5a3"

    def test_refused_block_is_folded_once(self, monkeypatch):
        # self_similar keeps its refusal as None, so the separated-block test
        # and the certificate gate fold the over-capacity block once between
        # them, and a second run, which reads the kept None, prints the same
        # report
        folds = []
        fold = multigeometric_module.subsum_level

        def counting(terms, *args):
            folds.append(None)
            return fold(terms, *args)

        self_similar.cache_clear()
        monkeypatch.setattr(multigeometric_module, "subsum_level", counting)
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["analyze", "--depth", "1", "--inline", BIG_BLOCK])
            runs.append((code, out.getvalue(), err.getvalue()))
        assert len(folds) == 1
        assert runs[0][0] == 0 and runs[0][2] == ""
        assert runs[1] == runs[0]
        assert self_similar(spec_from_json(json.loads(BIG_BLOCK))) is None

    @pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
    def test_stdout_report_is_one_write(self, path, tmp_path):
        # an unbuffered stdout makes each write a system call
        class CountingStream(io.TextIOBase):
            def __init__(self):
                self.writes = []

            def writable(self):
                return True

            def write(self, text):
                self.writes.append(text)
                return len(text)

        args = ["analyze", "--spec", str(path), "--depth", "10"]
        out = tmp_path / "report.json"
        assert main(args + ["--out", str(out)]) == 0
        stream = CountingStream()
        with contextlib.redirect_stdout(stream):
            assert main(args) == 0
        assert stream.writes == [out.read_text()]

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
        "args",
        [
            ("analyze", "--inline", GN_JSON, "--depth", "0"),
            ("analyze", "--inline", GN_JSON, "--depth", "-1"),
            ("analyze", "--inline", GN_JSON, "--horizon", "0"),
            ("analyze", "--inline", GN_JSON, "--horizon", "-2"),
            ("analyze", "--inline", GN_JSON, "--cap", "0"),
            ("analyze", "--inline", GN_JSON, "--budget", "-1"),
            ("validate", "--inline", '{"type":"repeated"}'),
            ("analyze", "--inline", '{"type":"repeated"}'),
            ("analyze", "--inline", KYIV_M_ONE),
            ("validate", "--inline", ZERO_Q),
            ("analyze", "--inline", ZERO_Q),
            ("validate", "--inline", ZERO_K),
            ("analyze", "--inline", ZERO_K),
            ("analyze", "--spec", str(SPECS / "gn.json"), "--depth", "14",
             "--format", "csv"),
            ("analyze", "--spec", str(SPECS / "gn.json"), "--depth", "7",
             "--cap", "100", "--format", "csv"),
            ("validate", "--inline", MM_TRUE),
            ("analyze", "--inline", MM_TRUE),
            ("validate", "--inline", KYIV_TRUE),
            ("analyze", "--inline", KYIV_TRUE),
            ("validate", "--inline", REPEATED_TRUE),
            ("analyze", "--inline", REPEATED_TRUE),
            ("validate", "--inline", GN_JSON, "--depth", "3"),
            ("validate", "--inline", GN_JSON, "--format", "csv"),
            ("validate", "--inline", EXPONENT_Q),
            ("analyze", "--inline", EXPONENT_Q),
            ("validate", "--inline", DECIMAL_Q),
            ("analyze", "--inline", DECIMAL_Q),
            ("validate", "--inline", DEEP),
            ("analyze", "--inline", DEEP),
            ("validate", "--inline", GF_EMPTY_BLOCK),
            ("analyze", "--inline", GF_EMPTY_BLOCK),
            ("validate", "--inline", GF_RATIO_ONE),
            ("analyze", "--inline", GF_RATIO_ONE),
            ("validate", "--inline", GF_NEGATIVE_BLOCK),
            ("analyze", "--inline", GF_NEGATIVE_BLOCK),
            ("validate", "--inline", MM_EMPTY_PERIOD),
            ("analyze", "--inline", MM_EMPTY_PERIOD),
        ],
        ids=[
            "depth-0", "depth-negative", "horizon-0", "horizon-negative", "cap-0",
            "budget-negative", "validate-repeated-missing-keys",
            "analyze-repeated-missing-keys", "analyze-kyiv-m-one",
            "validate-zero-denominator-q", "analyze-zero-denominator-q",
            "validate-zero-denominator-k", "analyze-zero-denominator-k",
            "csv-without-out", "csv-without-out-over-capacity",
            "validate-mm-gap-true", "analyze-mm-gap-true",
            "validate-kyiv-s-true", "analyze-kyiv-s-true",
            "validate-repeated-count-true", "analyze-repeated-count-true",
            "validate-takes-no-depth", "validate-takes-no-csv",
            "validate-exponent-q", "analyze-exponent-q",
            "validate-decimal-q", "analyze-decimal-q",
            "validate-deep-nesting", "analyze-deep-nesting",
            "validate-gf-empty-block", "analyze-gf-empty-block",
            "validate-gf-ratio-one", "analyze-gf-ratio-one",
            "validate-gf-negative-block", "analyze-gf-negative-block",
            "validate-mm-empty-period", "analyze-mm-empty-period",
        ],
    )
    def test_usage_error_is_one_line(self, args):
        assert_one_line_usage_error(run_cli(*args))

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize(
        "doc,reason",
        [
            ("{}", 'spec has no "type" key'),
            ('{"k":[3,2],"q":"1/4"}', 'spec has no "type" key'),
            ('{"type":[]}', "unknown spec type []"),
            ('{"type":"x"}', "unknown spec type 'x'"),
        ],
        ids=["empty", "no-type-key", "type-array", "type-unknown"],
    )
    def test_spec_type_error_line(self, command, doc, reason, capsys):
        assert main([command, "--inline", doc]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {reason}; expected one of ['gf', 'kyiv', 'mm', 'multigeometric', 'repeated']\n"
        )

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

    def test_values_past_the_int_str_limit_analyze(self):
        checked = run_cli("validate", "--inline", BIG_VALUES)
        proc = run_cli("analyze", "--inline", BIG_VALUES, "--depth", "2")
        assert checked.returncode == 0
        assert proc.returncode == 0
        assert checked.stderr == proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["spec"]["q"] == "1/" + "9" * 2000
        assert len(doc["iterations"][2]["measure"]) > 5000

    def test_int_str_limit_is_restored(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["analyze", "--inline", BIG_VALUES, "--depth", "1"]) == 0
        capsys.readouterr()
        assert sys.get_int_max_str_digits() == limit


# one spec per family, whose list-valued fields each get a value that is no
# JSON array: a string or an object was once iterated as one ("21" as
# [2, 1], {"3": 1, "2": 2} as [3, 2])
FAMILY_SPECS = {
    "multigeometric": GN_JSON,
    "gf": GF_BAD,
    "mm": '{"type":"mm","gaps":{"pre":[],"period":[1]}}',
    "kyiv": KYIV_OK,
    "repeated": REPEATED,
}
NOT_ARRAYS = {"a string": '"21"', "an object": '{"3": 1, "2": 2}', "a number": "5"}


def _list_fields(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, list):
            yield prefix + key
        elif isinstance(value, dict):
            yield from _list_fields(value, f"{prefix}{key}.")


LIST_FIELDS = [
    (family, field)
    for family, text in FAMILY_SPECS.items()
    for field in _list_fields(json.loads(text))
]


class TestListFields:
    def test_every_family_and_list_field_is_covered(self):
        assert set(FAMILY_SPECS) == set(family_io._PARSERS)
        assert len(LIST_FIELDS) == 17  # k; 3 x (pre, period) + (pre, block) twice

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("kind", sorted(NOT_ARRAYS))
    @pytest.mark.parametrize("family,field", LIST_FIELDS)
    def test_non_array_is_a_one_line_usage_error(self, family, field, kind, command, capsys):
        doc = json.loads(FAMILY_SPECS[family])
        *parents, key = field.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = json.loads(NOT_ARRAYS[kind])
        assert main([command, "--inline", json.dumps(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: spec field '{field}' must be a JSON array, not {kind}\n"


class TestReportBuilder:
    def test_build_report_matches_cli_output(self):
        spec = spec_from_json(json.loads(GN_JSON))
        doc = build_report(spec, depth=5, horizon=5, cap=2_000_000, budget=12)
        proc = run_cli("analyze", "--inline", GN_JSON, "--depth", "5", "--horizon", "5")
        assert json.loads(proc.stdout) == doc

    @pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
    def test_ladder_is_freed_before_the_report_is_written(self, path, monkeypatch):
        # the document holds no SubsumLadder, so its F_n levels are freed
        # once _analysis returns, before any row is written
        ladders = []
        build = cli.SubsumLadder

        def building(*args):
            ladder = build(*args)
            ladders.append(weakref.ref(ladder))
            return ladder

        monkeypatch.setattr(cli, "SubsumLadder", building)
        spec = spec_from_json(json.loads(path.read_text()))
        doc = cli._analysis(spec, 8, 8, cli.DEFAULT_CAP, 12)
        assert len(ladders) == 1 and ladders[0]() is None
        assert [row["n"] for row in json.loads("".join(_dumps(doc)))["iterations"]] == list(
            range(9)
        )

    def test_validator_rejects_missing_sections(self):
        with pytest.raises(ValueError):
            validate_report_document({"spec": {}})

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda doc: doc["classification"].update(verdict="Sometimes"), "bad verdict"),
            (lambda doc: doc["iterations"][1].pop("gaps"), "iteration row missing gaps"),
            (lambda doc: doc["iterations"][1]["parts"][0].__setitem__(1, "1"),
             "rational not in p/q form: 1"),
        ],
        ids=["bad-verdict", "row-without-gaps", "part-end-not-a-fraction"],
    )
    def test_validator_rejects_a_corrupted_report(self, corrupt, reason):
        # the benchmark's report checker refuses a report through this check
        spec = spec_from_json(json.loads(GN_JSON))
        doc = build_report(spec, depth=3, horizon=3, cap=2_000_000, budget=12)
        validate_report_document(doc)
        corrupt(doc)
        with pytest.raises(ValueError, match=f"^{reason}$"):
            validate_report_document(doc)

    def test_main_returns_usage_on_unknown_flag(self):
        assert main(["analyze", "--bogus"]) == 2

    def test_only_a_non_plain_argv_builds_a_parser(self, monkeypatch, capsys):
        builds = []
        build_parser = cli.build_parser

        def counting():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        gn = str(SPECS / "gn.json")
        assert main(["analyze", "--depth", "0"]) == 2
        assert main(["validate", "--spec", gn]) == 0
        capsys.readouterr()
        assert main(["analyze", "--spec", gn, "--depth", "6"]) == 0
        in_process = capsys.readouterr().out
        assert builds == [1]
        assert main(["analyze", "--bogus"]) == 2
        capsys.readouterr()
        assert builds == [1, 1]
        fresh = subprocess.run(
            [sys.executable, "-m", "cantorval", "analyze", "--spec", gn, "--depth", "6"],
            capture_output=True,
        )
        assert fresh.returncode == 0
        assert in_process.encode() == fresh.stdout


# argvs that take the parser: unknown and misplaced options, a missing
# value, an abbreviation, help, no command, an unknown command, a bad
# choice, an error before an unknown option, and argvs that reach a command;
# then argvs the plain reader must read as argparse does or leave to it: a
# repeated option (the last one wins), values starting with "-" (one of them
# a flag), "--opt=value" and an empty value
PARITY_ARGVS = [
    ["analyze", "--bogus"],
    ["validate", "--depth", "3"],
    ["validate", "--inline", "{}", "extra"],
    ["analyze", "--depth"],
    ["analyze", "--dep", "x"],
    ["analyze", "-h"],
    ["-h"],
    [],
    ["bogus"],
    ["validate", "--format", "csv"],
    ["analyze", "--depth", "0", "--bogus"],
    ["validate", "--inline", DYADIC_JSON],
    ["validate", "--inline", "{}"],
    ["analyze", "--inline", DYADIC_JSON, "--dep", "3", "--format", "human"],
    ["validate", "--inline", "{}", "--format", "human", "--inline", DYADIC_JSON],
    ["validate", "--inline", DYADIC_JSON, "--out", "-"],
    ["validate", "--inline", DYADIC_JSON, "--out", "--format"],
    ["analyze", "--inline", DYADIC_JSON, "--depth", "-3"],
    ["analyze", "--inline", DYADIC_JSON, "--depth=3"],
    ["validate", "--inline", DYADIC_JSON, "--out", ""],
]

# words for drawn argvs: exact, abbreviated and unknown flags, help, and
# values that are digits, negative, empty, a flag name or a spec
parity_flags = st.sampled_from(
    ["--spec", "--inline", "--depth", "--horizon", "--cap", "--budget", "--format",
     "--out", "--dep", "--in", "--f", "--bogus", "-h"]
)
parity_values = st.one_of(
    st.integers(0, 3).map(str),
    st.sampled_from(["-3", "-", "", "--depth", "json", "human", "csv", DYADIC_JSON, "{}"]),
)
parity_words = st.one_of(
    parity_flags,
    parity_values,
    st.tuples(parity_flags, parity_values).map(lambda p: f"{p[0]}={p[1]}"),
    st.tuples(parity_flags, parity_values).map(list),
)


@st.composite
def parity_argvs(draw):
    words = draw(st.lists(parity_words, max_size=6))
    argv = [draw(st.sampled_from(["validate", "analyze", "bogus", "-h"]))]
    for word in words:
        argv.extend(word if isinstance(word, list) else [word])
    return argv


class TestParserParity:
    """``main`` reads a plain argv from the option table and hands any
    other one to ``build_parser().parse_args``; on every argv it must act
    as that call alone."""

    @staticmethod
    def _reference(argv):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return cli.EXIT_USAGE if exc.code not in (0, None) else 0
        return args.handler(args)

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The namespace each command handler is called with, in order."""
        parsed = []
        for name, (handler, options) in cli._COMMANDS.items():

            def recording(args, handler=handler):
                parsed.append(vars(args).copy())
                return handler(args)

            monkeypatch.setitem(cli._COMMANDS, name, (recording, options))
        return parsed

    def _assert_parity(self, argv, parsed, capsys):
        runs = []
        with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd):
            for call in (main, self._reference):
                code = call(argv)
                runs.append((code, *capsys.readouterr(), parsed[:]))
                parsed.clear()
        (code, out, err, got), (want_code, want_out, want_err, want) = runs
        assert (code, out, err) == (want_code, want_out, want_err)
        assert len(got) == len(want) <= 1
        assert got == want

    @pytest.mark.parametrize("argv", PARITY_ARGVS, ids=repr)
    def test_main_matches_parse_args(self, argv, parsed, capsys):
        self._assert_parity(argv, parsed, capsys)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(parity_argvs())
    def test_drawn_argvs_match_parse_args(self, parsed, capsys, argv):
        self._assert_parity(argv, parsed, capsys)

    def test_plain_argv_builds_no_parser(self, tmp_path):
        script = (
            "import sys\n"
            "from cantorval import cli\n"
            "builds = []\n"
            "build_parser = cli.build_parser\n"
            "cli.build_parser = lambda: builds.append(1) or build_parser()\n"
            "argv = ['analyze', '--spec', sys.argv[1], '--out', sys.argv[2]]\n"
            "code = cli.main(argv)\n"
            "before = len(builds)\n"
            "cli.main(['analyze', '-h'])\n"
            "print(code, before, len(builds), file=sys.stderr)\n"
        )
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SPECS / "gn.json"), str(out)],
            capture_output=True, text=True,
        )
        assert proc.stderr == "0 0 1\n"
        assert proc.stdout.startswith("usage: cantorval analyze")
        assert out.stat().st_size > 0


class TestEmit:
    @staticmethod
    def _chunks(size):
        unit = '"key": "1/3",\n'
        return [unit] * (size // len(unit)) + ["x" * (size % len(unit))]

    @pytest.mark.parametrize("size", [cli._JOIN_BELOW - 1, cli._JOIN_BELOW])
    def test_file_holds_the_joined_chunks(self, size, tmp_path):
        chunks = self._chunks(size)
        out = tmp_path / "report.json"
        cli._emit(chunks, str(out))
        assert out.read_bytes() == "".join(chunks).encode()
        assert len(out.read_bytes()) == size

    @pytest.mark.parametrize("size", [cli._JOIN_BELOW - 1, cli._JOIN_BELOW])
    def test_new_file_mode_follows_the_umask(self, size, tmp_path):
        out = tmp_path / "report.json"
        umask = os.umask(0o027)
        try:
            cli._emit(self._chunks(size), str(out))
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    @pytest.mark.parametrize("size", [100, cli._JOIN_BELOW])
    def test_rewrite_leaves_no_tail(self, size, tmp_path):
        out = tmp_path / "report.json"
        out.write_bytes(b"x" * (size + 1000))
        chunks = self._chunks(size)
        cli._emit(chunks, str(out))
        assert out.read_bytes() == "".join(chunks).encode()

    def test_out_in_missing_directory_is_the_os_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["validate", "--inline", GN_JSON, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        )

    def test_certify_sized_report_is_one_write(self, tmp_path, monkeypatch):
        # a depth-6 report of (5, 3, 2; 1/7), about 14 KB and 250 chunks
        writes = []
        write = os.write

        def counting(fd, data):
            writes.append(len(data))
            return write(fd, data)

        monkeypatch.setattr(os, "write", counting)
        out = tmp_path / "report.json"
        spec = '{"type":"multigeometric","k":[5,3,2],"q":"1/7"}'
        assert main(["analyze", "--inline", spec, "--depth", "6", "--out", str(out)]) == 0
        monkeypatch.undo()
        size = len(out.read_bytes())
        assert 10_000 < size < cli._JOIN_BELOW
        assert writes == [size]


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


# Record arrays, the shape of validate's conditions: keys with quotes,
# backslashes, braces and non-ASCII text; columns of str, int, bool, int
# lists and str lists (empty cells included), a nested dict, ints mixed with
# bools, and lists mixing ints and strs.
record_keys = st.one_of(json_text, st.text(alphabet='"\\{}\u00e9\u2603ab', max_size=6))
record_cells = (
    json_text,
    json_ints,
    st.booleans(),
    st.lists(json_ints, max_size=3),
    st.lists(json_text, max_size=3),
    st.dictionaries(json_text, json_ints, max_size=2),
    st.one_of(json_ints, st.booleans()),
    st.lists(st.one_of(json_ints, json_text), max_size=3),
)


@st.composite
def record_arrays(draw):
    """Dicts sharing one key order, and sometimes one row in another."""
    keys = draw(st.lists(record_keys, min_size=1, max_size=4, unique=True))
    columns = [draw(st.sampled_from(record_cells)) for _ in keys]
    rows = draw(st.lists(st.tuples(*columns), min_size=1, max_size=6))
    records = [dict(zip(keys, row)) for row in rows]
    if len(records) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(records) - 1))
        records[i] = dict(reversed(records[i].items()))
    return records


class TestDumps:
    @given(record_arrays())
    @settings(max_examples=300, deadline=None)
    def test_record_arrays_match_stdlib(self, records):
        for doc in (records, {"witnesses": records, "deeper": [records]}):
            assert "".join(_dumps(doc)) == json.dumps(doc, indent=2) + "\n"

    @given(record_arrays(), st.data())
    def test_float_cell_in_a_record_array_is_a_type_error(self, records, data):
        row = data.draw(st.sampled_from(records))
        row[data.draw(st.sampled_from(sorted(row)))] = data.draw(st.floats())
        with pytest.raises(TypeError):
            _dumps(records)

    @given(record_arrays(), st.data())
    def test_non_str_key_in_a_record_array_is_a_type_error(self, records, data):
        key = data.draw(st.one_of(st.none(), st.booleans(), json_ints, st.floats()))
        for row in data.draw(st.sampled_from([records, records[:1], records[-1:]])):
            row[key] = 0
        with pytest.raises(TypeError):
            _dumps(records)

    @given(json_trees)
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib_indent_2(self, tree):
        assert "".join(_dumps(tree)) == json.dumps(tree, indent=2) + "\n"

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
        # validate reads no numeric option, so only analyze gets them
        for command, options in (("validate", []), ("analyze", flags)):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--inline", spec, *options])
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


@st.composite
def gf_json(draw):
    """m in 2..4 and k = m + 1..3, preperiod 0-2 and period 1-2 long, and
    q falling 2- to 12-fold per group, so some groups start above the
    previous group's last term."""
    m = {
        "pre": draw(st.lists(st.integers(2, 4), max_size=2)),
        "period": draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)),
    }
    k = {key: [v + draw(st.integers(1, 3)) for v in m[key]] for key in m}
    pre_len = draw(st.integers(0, 2))
    block_len = draw(st.integers(1, 2))
    steps = draw(st.lists(st.integers(2, 12), min_size=4, max_size=4))
    values = [F(1, draw(st.integers(1, 10)))]
    for step in steps[: pre_len + block_len - 1]:
        values.append(values[-1] / step)
    ratio = F(1, steps[-1])
    for step in steps[pre_len : pre_len + block_len - 1]:
        ratio /= step
    q = {
        "pre": [str(v) for v in values[:pre_len]],
        "block": [str(v) for v in values[pre_len:]],
        "ratio": str(ratio),
    }
    return {"type": "gf", "m": m, "k": k, "q": q}


class TestValidatedSpecsAnalyze:
    """A spec that validate accepts can be analyzed.

    For generalized Ferens specs this rests on GF2: at index n it bounds
    the tail past group n, and so group n + 1's first term, below m_n q_n,
    the last term of group n, so a validated GF stream never increases
    across a group boundary."""

    @given(
        st.one_of(
            multigeometric_json(),
            gf_json(),
            mm_specs().map(lambda spec: spec.to_json()),
            kyiv_json(),
            repeated_specs().map(lambda spec: spec.to_json()),
        )
    )
    @example(json.loads(ONES_31))
    @example(json.loads((SPECS / "gf_decimal.json").read_text()))
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


class TestCliMatchesStdlib:
    """The files and standard output that analyze and validate write are,
    byte for byte, what ``json.dumps(doc, indent=2)`` writes for the same
    document: to ``--out``, to stdout, and as the csv format's report.json."""

    @given(
        st.one_of(
            multigeometric_json(),
            gf_json(),
            mm_specs().map(lambda spec: spec.to_json()),
            kyiv_json(),
            repeated_specs().map(lambda spec: spec.to_json()),
        )
    )
    # a certified Cantorval: certificate parts and a gaps witness
    @example(json.loads((SPECS / "ferens_5432.json").read_text()))
    # a certified Cantor set: a separated_blocks witness
    @example({"type": "multigeometric", "k": [9, 9], "q": "1/5"})
    # semifast and representation_oracle in the uniqueness section
    @example(json.loads((SPECS / "semifast.json").read_text()))
    @settings(max_examples=50, deadline=None)
    def test_report_and_validate_bytes(self, doc):
        text = json.dumps(doc)
        spec = spec_from_json(doc)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.json"
            with contextlib.redirect_stdout(io.StringIO()):
                checked = main(["validate", "--inline", text, "--format", "json",
                                "--out", str(out)])
            conditions = spec.conditions()
            expected = {
                "spec": spec.to_json(),
                "passed": all(c["passed"] for c in conditions),
                "conditions": conditions,
            }
            assert checked in (0, 1)
            assert out.read_text() == json.dumps(expected, indent=2) + "\n"
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main(["validate", "--inline", text, "--format", "json"]) == checked
            assert stdout.getvalue() == json.dumps(expected, indent=2) + "\n"
            analyze = ["analyze", "--inline", text, "--depth", "3", "--cap", str(cli.DEFAULT_CAP)]
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([*analyze, "--out", str(out)])
            if code != 0:
                return
            report = json.dumps(build_report(spec, 3, 3, cli.DEFAULT_CAP, 12), indent=2) + "\n"
            assert out.read_text() == report
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                assert main(analyze) == 0
            assert stdout.getvalue() == report
            tables = Path(tmp) / "tables"
            assert main([*analyze, "--format", "csv", "--out", str(tables)]) == 0
            assert (tables / "report.json").read_text() == report


class TestValidateAgreesWithFamilyTier:
    """validate's rows and classify's family tier read one spec method each;
    they must agree on every family."""

    @given(
        st.one_of(
            mg_specs(),
            multigeometric_json().map(spec_from_json),
            gf_json().map(spec_from_json),
            mm_specs(),
            kyiv_specs(),
            kyiv_json().map(spec_from_json),
            repeated_specs(),
        )
    )
    @example(spec_from_json(json.loads((SPECS / "gf_decimal.json").read_text())))
    @example(spec_from_json(json.loads(GF_BAD)))
    @example(spec_from_json(json.loads(KYIV_OK)))
    @example(spec_from_json(json.loads(KYIV_BAD)))
    @example(spec_from_json(json.loads(KYIV_M_ONE)))
    @settings(max_examples=150, deadline=None)
    def test_family_verdict_exactly_when_every_condition_passes(self, spec):
        assert spec_from_json(spec.to_json()) == spec
        rows = spec.conditions()
        if isinstance(spec, MultigeometricSpec):
            assert spec.family_verdict() is None
            assert len(rows) == 1 and rows[0]["passed"]
        else:
            assert (spec.family_verdict() is not None) == all(r["passed"] for r in rows)


class TestSelfSimilar:
    """``families.self_similar`` gives a multigeometric spec's block, ratio,
    r_0 and m, kept once per spec, and None for every other subject."""

    @given(st.one_of(mg_specs(), multigeometric_json().map(spec_from_json)))
    @example(spec_from_json(json.loads(GN_JSON)))
    @settings(max_examples=100, deadline=None)
    def test_multigeometric_block(self, spec):
        k, q = spec.coefficients, spec.ratio
        r0 = sum(k) * q / (1 - q)
        got = self_similar(spec)
        assert got == SelfSimilar(subsum_level(k), q, r0, len(k))
        # an equal spec reads the kept value
        assert self_similar(spec_from_json(spec.to_json())) is got
        assert self_similar(spec.stream()) is None

    @given(st.one_of(gf_json().map(spec_from_json), kyiv_specs(), mm_specs(), repeated_specs()))
    @settings(max_examples=100, deadline=None)
    def test_other_families_have_none(self, spec):
        assert self_similar(spec) is None
