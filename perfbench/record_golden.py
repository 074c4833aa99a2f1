"""Record the golden manifest: exit code and report hash of every job step.

Run from the root of a checkout at the commit whose reports are the
reference (the benchmark's seed commit):

    python3 perfbench/record_golden.py

It covers the ladder jobs and, for the default seed 0, as many passes of
each generated workload as a run can reach; steps that fail are left out.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import build_jobs  # noqa: E402

ROUNDS = {"ladder": 1, "certify": 16, "breadth": 32}


def main() -> int:
    sys.path.insert(0, str(Path("src").resolve()))
    run.OUT_DIR.mkdir(exist_ok=True)
    cli, _, _, _ = run.setup("ladder", 0)
    golden: dict[str, str] = {}
    for workload, rounds in ROUNDS.items():
        for round_ in range(rounds):
            result = run.run_pass(cli, build_jobs(workload, 0, round_), {},
                                  run.OUT_DIR / "golden.out")
            for key, value in result.hashes.items():
                code, digest = value.split(":")
                golden[checks.golden_key(key)] = checks.golden_value(int(code), digest)
            print(f"{workload} round {round_}: {len(result.hashes)} steps", flush=True)
    checks.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} entries to {checks.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
