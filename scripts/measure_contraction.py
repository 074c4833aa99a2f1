#!/usr/bin/env python3
"""Track lambda(I_n) and the two-sided boundary gap as depth grows.

Usage: python scripts/measure_contraction.py [spec.json] [max_depth]

Defaults to the Guthrie-Nymann spec at depth 12.  Emits CSV to stdout:
n, lambda(I_n), certified lower bound, boundary gap, gap count.  One subsum
ladder serves every depth; the lower bound is certified for multigeometric
specs only.
"""

import json
import os
import sys
from pathlib import Path

from cantorval.engine import iterate, measure_bounds
from cantorval.exact import rat_str
from cantorval.families import spec_from_json
from cantorval.series import SubsumLadder

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec_path = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "specs" / "gn.json"
    max_depth = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    spec = spec_from_json(json.loads(spec_path.read_text()))
    ladder = SubsumLadder(spec.stream())
    print("n,upper,lower,boundary_gap,gap_count")
    for n in range(1, max_depth + 1):
        bounds = measure_bounds(ladder, n, spec=spec)
        gaps = iterate(ladder, n).gap_count
        print(
            f"{n},{rat_str(bounds.upper_lambda_e)},{rat_str(bounds.lower_interior)},"
            f"{rat_str(bounds.boundary_gap)},{gaps}"
        )
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early, as `| head` does.  Point stdout
        # at devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
