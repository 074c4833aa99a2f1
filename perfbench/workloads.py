"""Job lists for the three benchmark workloads.

A job is the ``cantorval`` command lines one user runs on one spec, back to
back.  The generated workloads draw their
specs from ``random.Random``, so the same seed gives the same jobs; the
program only ever sees the resulting spec JSON.  Parameters come from the
domains the spec constructors and ``validate`` accept.

Draws are stratified.  Job cost depends mostly on the Kakeya class of a
spec (whether each term x_n is at most the tail r_n), which the benchmark
computes exactly from the spec itself: interval-type specs finish in
milliseconds, Cantor-type and mixed specs run the certificate search for
hundreds of milliseconds.  A fixed count per stratum keeps the cost mix, and
so the timings, steady from seed to seed, while the seed still picks every
coefficient.  Specs that hit a known defect form strata of their own, so
each pass carries the same number of them and the defect stays visible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SPEC_DIR = Path("scripts") / "specs"

LADDER_DEPTH = 14
CERTIFY_DEPTH = 6
MAX_DRAWS = 100_000


@dataclass(frozen=True)
class Step:
    """One CLI invocation; ``args`` excludes the subcommand and ``--out``."""

    command: str
    args: tuple[str, ...]
    expected_exits: tuple[int, ...]

    @property
    def key(self) -> str:
        """Content key: steps with equal keys must write identical bytes."""
        return json.dumps([self.command, *self.args], separators=(",", ":"))

    def argv(self, out: str) -> list[str]:
        return [self.command, *self.args, "--out", out]


@dataclass(frozen=True)
class Job:
    """What one user does with one spec: its steps run back to back."""

    name: str
    steps: tuple[Step, ...]


def _inline(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


# -- multigeometric (k_1 >= ... >= k_m; q = 1/b) -----------------------------


def mg_class(k: list[int], q: Fraction) -> str:
    """Kakeya class of a multigeometric spec, from exact terms and tails.

    ``defect``: k_m < k_1 q, which ``validate`` accepts and ``analyze``
    rejects at the seed commit.  Otherwise ``interval`` if x_n <= r_n for
    every n, ``cantor`` if x_n > r_n for every n, and ``mixed`` if neither.
    The comparisons repeat with period m, so one period decides them.
    """
    if k[-1] < k[0] * q:
        return "defect"
    total = sum(k)
    above = [k[i] > sum(k[i + 1:]) + total * q / (1 - q) for i in range(len(k))]
    if not any(above):
        return "interval"
    return "cantor" if all(above) else "mixed"


def _mg_draw(rng: random.Random, m: int, klass: str) -> dict:
    """A spec in the class; ``mixed=`` asks for equal coefficients k = (c, ..., c)."""
    equal = klass.endswith("=")
    for _ in range(MAX_DRAWS):
        if equal:
            k = [rng.randint(1, 9)] * m
        else:
            k = sorted((rng.randint(1, 9) for _ in range(m)), reverse=True)
        b = rng.randint(2, 10)
        if mg_class(k, Fraction(1, b)) == klass.rstrip("="):
            return {"type": "multigeometric", "k": k, "q": f"1/{b}"}
    raise RuntimeError(f"no multigeometric spec with m={m} in class {klass}")


# (count, m, class) per pass.  Cantor-type specs have at most two
# coefficients in this domain, and the defect needs at least two.  Mixed
# specs with three or four distinct coefficients range from 0.2 to 3 s and
# from 1 to 27 MB traced, with no cheap predictor of which, so they would set
# a pass's time and the run's peak memory on their own; the mixed specs here
# have two coefficients, or equal ones, and cost 0.15 to 1 s.  The Cantor
# strata hold the middle of the completed jobs, so job_p50_s falls inside
# one steady cluster rather than between two.
CERTIFY_STRATA = (
    (6, 1, "cantor"), (4, 2, "cantor"),
    (2, 2, "mixed"), (1, 2, "mixed="), (1, 3, "mixed="),
    (1, 1, "interval"), (1, 2, "interval"), (1, 3, "interval"), (1, 4, "interval"),
    (1, 2, "defect"), (1, 3, "defect"), (1, 4, "defect"),
)

BREADTH_MG_STRATA = (
    (1, 1, "cantor"), (1, 2, "cantor"), (1, 2, "mixed"), (1, 3, "mixed="),
    (1, 3, "interval"), (1, 3, "defect"),
)


# -- the other four families ------------------------------------------------


def _periodic(rng: random.Random, lo: int, hi: int) -> dict:
    pre = [rng.randint(lo, hi) for _ in range(rng.randint(0, 1))]
    period = [rng.randint(lo, hi) for _ in range(rng.randint(1, 2))]
    return {"pre": pre, "period": period}


def _gf_boundary_increase(m: list[int], k: list[int], b: int) -> bool:
    """Group n runs (m_n + k_n - 1) q_n down to m_n q_n with q_n = b^-n.

    True when a group's first term exceeds the previous group's last term,
    which the stream constructor rejects at the seed commit.
    """
    period = len(m)
    return any(
        Fraction(m[(n + 1) % period] + k[(n + 1) % period] - 1, b) > m[n % period]
        for n in range(period)
    )


def _gf(rng: random.Random, defect: bool) -> dict:
    for _ in range(MAX_DRAWS):
        period = rng.randint(1, 2)
        m = [rng.randint(2, 4) for _ in range(period)]
        k = [mv + rng.randint(1, 3) for mv in m]
        b = rng.randint(2, 12)
        if _gf_boundary_increase(m, k, b) == defect:
            return {
                "type": "gf",
                "m": {"pre": [], "period": m},
                "k": {"pre": [], "period": k},
                "q": {"pre": [], "block": [f"1/{b}"], "ratio": f"1/{b}"},
            }
    raise RuntimeError("no gf spec in the requested stratum")


def _kyiv(rng: random.Random, defect: bool) -> dict:
    """m_k = 1 gives a zero term, which the stream rejects at the seed commit."""
    for _ in range(MAX_DRAWS):
        m = _periodic(rng, 1, 5)
        if (1 in m["pre"] + m["period"]) == defect:
            return {"type": "kyiv", "m": m, "s": _periodic(rng, 1, 9)}
    raise RuntimeError("no kyiv spec in the requested stratum")


def _mm(rng: random.Random) -> dict:
    return {"type": "mm", "gaps": _periodic(rng, 1, 3)}


def _repeated(rng: random.Random) -> dict:
    b = rng.randint(2, 9)
    return {
        "type": "repeated",
        "y": {"pre": [], "block": [f"1/{b}"], "ratio": f"1/{b}"},
        "counts": _periodic(rng, 1, 3),
    }


# -- workloads ----------------------------------------------------------------


def ladder_jobs(seed: int, round_: int) -> list[Job]:
    """Every bundled spec at a depth where the subsum ladder dominates."""
    return [
        Job(
            f"ladder/{path.stem}",
            (Step("analyze", ("--spec", path.as_posix(), "--depth", str(LADDER_DEPTH)), (0,)),),
        )
        for path in sorted(SPEC_DIR.glob("*.json"))
    ]


def certify_jobs(seed: int, round_: int) -> list[Job]:
    """Multigeometric specs at a shallow depth: Hutchinson and certificates."""
    rng = random.Random(f"certify:{seed}:{round_}")
    docs = [_mg_draw(rng, m, klass) for count, m, klass in CERTIFY_STRATA
            for _ in range(count)]
    rng.shuffle(docs)
    return [
        Job(
            f"certify/{round_}/{i:03d}",
            (Step("analyze", ("--inline", _inline(doc), "--depth", str(CERTIFY_DEPTH)), (0,)),),
        )
        for i, doc in enumerate(docs)
    ]


def breadth_jobs(seed: int, round_: int) -> list[Job]:
    """All five families, ``validate`` then ``analyze`` at CLI defaults."""
    rng = random.Random(f"breadth:{seed}:{round_}")
    docs = [_mg_draw(rng, m, klass) for count, m, klass in BREADTH_MG_STRATA
            for _ in range(count)]
    docs += [_gf(rng, defect) for defect in (True, False, False, False)]
    docs += [_kyiv(rng, defect) for defect in (True, False, False, False)]
    docs += [_mm(rng) for _ in range(4)]
    docs += [_repeated(rng) for _ in range(4)]
    rng.shuffle(docs)
    return [
        Job(
            f"breadth/{round_}/{i:03d}",
            (
                Step("validate", ("--inline", _inline(doc)), (0, 1)),
                Step("analyze", ("--inline", _inline(doc)), (0,)),
            ),
        )
        for i, doc in enumerate(docs)
    ]


# Ladder passes repeat one seed-independent list; the generated workloads
# draw a fresh stratified list for every pass, so a run covers more specs.
WORKLOADS = {
    "ladder": ladder_jobs,
    "certify": certify_jobs,
    "breadth": breadth_jobs,
}


def build_jobs(workload: str, seed: int, round_: int = 0) -> list[Job]:
    return WORKLOADS[workload](seed, round_)
