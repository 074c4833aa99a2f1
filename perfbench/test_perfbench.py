"""Tests of the benchmark itself; run from the checkout root with

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build_jobs, mg_class  # noqa: E402
from fractions import Fraction  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_jobs(workload):
    assert build_jobs(workload, 7, 2) == build_jobs(workload, 7, 2)
    assert build_jobs(workload, 7, 0)


@pytest.mark.parametrize("workload", ["certify", "breadth"])
def test_seed_and_round_change_generated_jobs(workload):
    base = build_jobs(workload, 7, 0)
    assert build_jobs(workload, 8, 0) != base
    assert build_jobs(workload, 7, 1) != base


def test_kakeya_classes():
    assert mg_class([1], Fraction(1, 2)) == "interval"
    assert mg_class([2], Fraction(1, 3)) == "cantor"
    assert mg_class([3, 2], Fraction(1, 4)) == "mixed"
    assert mg_class([3, 1], Fraction(1, 2)) == "defect"


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, trace, section):
    assert run.main(["--workload", "breadth", "--seconds", "0", "--trace", str(trace)]) == 0
    result = _last_json(capsys)
    declared = {m["name"]: m["unit"] for m in checks.load_benchmark()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1


def test_tracing_changes_no_report_hash():
    cli, _, golden, _ = run.setup("breadth", 0)
    jobs = build_jobs("breadth", 3, 0)[:6] + build_jobs("certify", 3, 0)[:4]
    out = run.OUT_DIR / "test.out"
    run.OUT_DIR.mkdir(exist_ok=True)
    plain = run.run_pass(cli, jobs, golden, out)
    tracer = Tracer()
    assert tracer.install() == []
    try:
        traced = run.run_pass(cli, jobs, golden, out, tracer)
    finally:
        tracer.uninstall()
    assert plain.hashes and traced.hashes == plain.hashes
    assert tracer.spans
    assert sys.modules["cantorval.exact"].normalize.__module__ == "cantorval.exact"
    assert not hasattr(sys.modules["cantorval.engine"].normalize, "__wrapped__")


def test_golden_manifest_catches_a_changed_report():
    cli, _, _, _ = run.setup("ladder", 0)
    job = next(j for j in build_jobs("ladder", 0) if j.name.endswith("kyiv48"))
    step = job.steps[0]
    forged = {checks.golden_key(step.key): checks.golden_value(0, "0" * 64)}
    result = run.run_pass(cli, [job], forged, run.OUT_DIR / "test.out")
    assert result.wrong and not result.job_seconds


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "ladder", "--seconds", "1"]) != 0
