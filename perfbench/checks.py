"""Output checks: golden hashes, schema, and exact report invariants.

A report is wrong, as opposed to a job that failed, when its bytes differ
from the golden hash recorded at the seed commit, when it fails the
package's own schema check, or when one of the invariants below, which hold
for every correct report, is broken.  Golden hashes are keyed by the job's
content, so any seed whose jobs were recorded is checked byte for byte;
other jobs get the schema and invariant checks, and the run prints a digest
of its first pass so two commits can be compared on any seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"
BENCHMARK = Path("BENCHMARK.json")


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def golden_key(job_key: str) -> str:
    return hashlib.sha256(job_key.encode()).hexdigest()[:16]


def golden_value(code: int, digest: str) -> str:
    return f"{code}:{digest[:16]}"


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def _analyze_problem(doc: dict) -> str | None:
    sys.modules["cantorval.cli"].validate_report_document(doc)
    rows = doc["iterations"]
    depth = doc["config"]["depth"]
    if [row["n"] for row in rows] != list(range(depth + 1)):
        return "iterations do not run 0..depth"
    previous = None
    for row in rows:
        parts = [(Fraction(lo), Fraction(hi)) for lo, hi in row["parts"]]
        if any(lo > hi for lo, hi in parts) or any(
            a[1] >= b[0] for a, b in zip(parts, parts[1:])
        ):
            return f"iteration {row['n']} parts are not sorted and disjoint"
        measure = Fraction(row["measure"])
        if measure != sum((hi - lo for lo, hi in parts), Fraction(0)):
            return f"iteration {row['n']} measure is not the length of its parts"
        if previous is not None and measure > previous:
            return f"iteration {row['n']} measure grows"
        previous = measure
    bounds = doc["measure_bounds"]
    upper = Fraction(bounds["upper_lambda_e"])
    lower = Fraction(bounds["lower_interior"])
    if bounds["depth"] == depth and upper != previous:
        return "upper bound is not the measure of the deepest iteration"
    if not 0 <= lower <= upper or Fraction(bounds["boundary_gap"]) != upper - lower:
        return "measure bounds are inconsistent"
    return None


def _validate_problem(doc: dict, code: int) -> str | None:
    if set(doc) != {"spec", "passed", "conditions"}:
        return "validate document has the wrong keys"
    if doc["passed"] != all(c["passed"] for c in doc["conditions"]):
        return "validate verdict disagrees with its conditions"
    if code != (0 if doc["passed"] else 1):
        return "validate exit code disagrees with its verdict"
    return None


def check_output(step, code: int, data: bytes, digest: str, golden: dict) -> str | None:
    """None if the report is right, else a one-line reason."""
    expected = golden.get(golden_key(step.key))
    if expected is not None and expected != golden_value(code, digest):
        return "report differs from the golden hash"
    try:
        doc = json.loads(data)
        if step.command == "analyze":
            return _analyze_problem(doc)
        return _validate_problem(doc, code)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})"


def golden_hits(passes, golden: dict) -> int:
    """How many completed jobs were checked against a golden hash."""
    return sum(golden_key(key) in golden for p in passes for key in p.hashes)


def manifest_digest(hashes: dict[str, str]) -> str:
    """Digest of (job, exit code, report hash) over one pass."""
    lines = "".join(f"{key}\t{value}\n" for key, value in sorted(hashes.items()))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def derived_layer_metrics(values: dict[str, float]) -> dict[str, float]:
    """Ratios of counters measured at the same boundary."""
    out = {}
    pairs = values.get("series.group_convolve.pairs", 0)
    if pairs:
        out["series.group_convolve.distinct_ratio"] = (
            values["series.group_convolve.values_out"] / pairs
        )
    calls = values.get("engine.certify_interior.calls", 0)
    if calls:
        out["engine.certify_interior.verified_ratio"] = (
            values["engine.certify_interior.verified"] / calls
        )
    return out
