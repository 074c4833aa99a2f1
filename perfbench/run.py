"""The cantorval benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

It drives ``cantorval.cli.main`` in-process, from one process and one
thread, as a closed loop with a single caller: each job starts when the
previous one has finished.  Every job writes its report with ``--out``; the
benchmark hashes the bytes and checks them (see ``checks.py``).  Times are
corrected for the machine's drifting speed (see ``speed.py``).  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it runs one untraced pass, then traced passes, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

OUT_DIR = Path(".perfbench_out")
SETUP_REPEATS = 7


def _purge_cantorval() -> None:
    for name in [n for n in sys.modules if n == "cantorval" or n.startswith("cantorval.")]:
        del sys.modules[name]


def setup(workload: str, seed: int):
    """Import cantorval, build the first job list and load the golden manifest.

    Repeated from a clean module table so the median is a steady set-up
    time; the modules of the last repetition are the ones measured.  Returns
    the cli module, the jobs, the manifest and the median corrected seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_cantorval()
        gc.collect()
        with speed.Region() as region:
            cli = importlib.import_module("cantorval.cli")
            jobs = build_jobs(workload, seed, 0)
            golden = checks.load_golden()
        if not Path(cli.__file__).resolve().is_relative_to(Path("src").resolve()):
            raise RuntimeError(f"imported cantorval from {cli.__file__}, not ./src")
        times.append(region.corrected)
    return cli, jobs, golden, statistics.median(times)


class Pass:
    """Outcome of one pass over a job list."""

    def __init__(self) -> None:
        self.job_seconds: list[float] = []  # corrected, completed jobs only
        self.wall = 0.0  # corrected seconds, all jobs
        self.raw_wall = 0.0  # wall-clock seconds, all jobs
        self.factors: list[float] = []
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.wrong: list[str] = []
        self.hashes: dict[str, str] = {}
        self.report_bytes = 0


def _failure(command: str, exc: Exception) -> str:
    """Failure class: exception type and message with numbers blanked."""
    message = re.sub(r"\d+", "N", str(exc).splitlines()[0] if str(exc) else "")
    return f"{command} raised {type(exc).__name__}: {message}"


def run_pass(cli, jobs, golden, out: Path, tracer: Tracer | None = None) -> Pass:
    """Run each job's steps back to back; check outputs outside the timing."""
    result = Pass()
    stderr = io.StringIO()
    for job in jobs:
        outs = [out.with_suffix(f".{i}") for i in range(len(job.steps))]
        for path in outs:
            path.unlink(missing_ok=True)
        gc.collect()
        stderr.seek(0)
        stderr.truncate()
        if tracer is not None:
            tracer.job = job.name
        codes: list[int] = []
        failure = None
        with speed.Region() as region:
            for step, path in zip(job.steps, outs):
                try:
                    with contextlib.redirect_stderr(stderr):
                        code = cli.main(step.argv(str(path)))
                except Exception as exc:  # a crash fails the job, not the run
                    failure = _failure(step.command, exc)
                    break
                if code not in step.expected_exits:
                    lines = stderr.getvalue().strip().splitlines()
                    failure = f"{step.command} exit {code}: {lines[-1] if lines else ''}"
                    break
                codes.append(code)
        elapsed = region.corrected
        result.factors.append(region.factor)
        result.raw_wall += region.raw
        result.wall += elapsed
        result.attempted += 1
        if failure is None:
            for step, path, code in zip(job.steps, outs, codes):
                data = path.read_bytes() if path.exists() else b""
                digest = hashlib.sha256(data).hexdigest()
                problem = checks.check_output(step, code, data, digest, golden)
                if problem is not None:
                    failure = f"{step.command} wrong output: {problem}"
                    result.wrong.append(f"{job.name}: {problem}")
                    break
                result.hashes[step.key] = f"{code}:{digest}"
                result.report_bytes += len(data)
        if failure is None:
            result.job_seconds.append(elapsed)
        else:
            result.failures[failure] += 1
    return result


def percentile(values: list[float], share: float) -> float:
    """Linear interpolation between closest ranks, as statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def measure(cli, workload, seed, first_jobs, golden, seconds, out, tracer=None):
    """Passes until the next one would end after ``seconds``; at least one."""
    passes: list[Pass] = []
    start = time.perf_counter()
    round_ = 0
    while True:
        jobs = first_jobs if round_ == 0 else build_jobs(workload, seed, round_)
        passes.append(run_pass(cli, jobs, golden, out, tracer))
        round_ += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def check_determinism(passes: list[Pass]) -> list[str]:
    """A job run twice in one process must write identical bytes."""
    seen: dict[str, str] = {}
    wrong = []
    for p in passes:
        for key, value in p.hashes.items():
            if seen.setdefault(key, value) != value:
                wrong.append(f"nondeterministic report for {key[:80]}")
    return wrong


def summarize(passes: list[Pass]) -> tuple[int, int, Counter, list[str]]:
    attempted = sum(p.attempted for p in passes)
    failures: Counter[str] = Counter()
    wrong: list[str] = []
    for p in passes:
        failures.update(p.failures)
        wrong.extend(p.wrong)
    wrong.extend(check_determinism(passes))
    return attempted, sum(failures.values()), failures, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/cantorval/cli.py").is_file():
        print("error: run from the root of a cantorval checkout (src/cantorval missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"report-{args.workload}.out"

    cli, jobs, golden, setup_s = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        started = time.perf_counter()
        untraced = measure(cli, args.workload, args.seed, jobs, golden, 0, out)
        remaining = args.seconds - (time.perf_counter() - started)
        tracer = Tracer()
        missing = tracer.install()
        try:
            passes = measure(cli, args.workload, args.seed, jobs, golden,
                             remaining, out, tracer)
        finally:
            tracer.uninstall()
        passes_all = untraced + passes
    else:
        passes = measure(cli, args.workload, args.seed, jobs, golden, args.seconds, out)
        passes_all = passes
    attempted, failed, failures, wrong = summarize(passes_all)
    completed = [t for p in passes for t in p.job_seconds]
    if not completed:
        for reason, count in sorted(failures.items()):
            print(f"failed x{count}: {reason}", file=sys.stderr)
        print("error: no job completed", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in checks.load_benchmark()["per_layer" if args.trace
                                                                      else "end_to_end"]}
    correction = statistics.median(f for p in passes for f in p.factors)
    if args.trace:
        values = {
            name: value * correction if name.endswith("_s") else value
            for name, value in tracer.summary(len(passes)).items()
        }
        values.update(checks.derived_layer_metrics(values))
        values["cli.report_bytes"] = statistics.median(p.report_bytes for p in passes)
        values["trace.wall_s"] = passes[0].wall
        values["trace.overhead_s"] = passes[0].wall - untraced[0].wall
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in passes),
            "job_p50_s": percentile(completed, 0.5),
            "job_p90_s": percentile(completed, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
            "ok_ratio": (attempted - failed) / attempted,
        }
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "raw_wall_s": statistics.median(p.raw_wall for p in passes),
        "speed_factor": correction,
        "jobs_completed": len(completed),
        "fail_ratio": failed / attempted,
        "manifest_digest": checks.manifest_digest(passes_all[0].hashes),
        "golden_checked": checks.golden_hits(passes_all, golden),
    }
    if args.trace:
        record["missing_layers"] = missing
    else:
        record["jobs_beyond_p90"] = sum(t > values["job_p90_s"] for t in completed)
    print("run: " + json.dumps(record, sort_keys=True))
    for reason, count in sorted(failures.items()):
        print(f"failed x{count}: {reason}")
    for line in wrong:
        print(f"WRONG: {line}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
