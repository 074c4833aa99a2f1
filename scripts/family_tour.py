#!/usr/bin/env python3
"""Print the exact closed-form anatomy of the three non-multigeometric families.

For each bundled family spec: validation verdict, first group boundary tails,
group subsum structure, standardness ratio with its periodic limit, and the
classification the library assigns.
"""

import json
import os
import sys
from pathlib import Path

from cantorval.classify import classify
from cantorval.exact import rat_str
from cantorval.families import (
    GFSpec,
    KyivSpec,
    MMSpec,
    gf_group_set,
    gf_validate,
    kyiv_chain_margin,
    kyiv_validate,
    kyiv_values,
    mm_block,
    spec_from_json,
    standardness_ratio,
)
from cantorval.series import SubsumLadder

HERE = Path(__file__).resolve().parent


def tour(name: str) -> None:
    spec = spec_from_json(json.loads((HERE / "specs" / name).read_text()))
    stream = spec.stream()
    print(f"== {name} ==")
    if isinstance(spec, KyivSpec):
        print("  validation:", "pass" if kyiv_validate(spec).passed else "FAIL")
        for k in (1, 2, 3):
            v = kyiv_values(spec, k)
            print(
                f"  group {k}: a={rat_str(v.a)} r_boundary={rat_str(v.boundary_tail)}"
                f" G={rat_str(v.group_sum)} margin={kyiv_chain_margin(spec, k)}"
            )
    elif isinstance(spec, GFSpec):
        print("  validation:", "pass" if gf_validate(spec).passed else "FAIL")
        print("  group 1 subsums:", [rat_str(v) for v in gf_group_set(spec, 1).values])
    elif isinstance(spec, MMSpec):
        print("  block(1) subsums:", [int(v) for v in mm_block(spec.gaps[1]).values])
    ratio = standardness_ratio(spec, 1)
    print(f"  standardness: {rat_str(ratio.at_index)} (limit {rat_str(ratio.limit)})")
    verdict = classify(spec, SubsumLadder(stream), horizon=10)
    print(f"  classification: {verdict.verdict.value} ({verdict.tier.value})")
    print(f"  first terms: {[rat_str(t) for t in stream.terms(6)]}")
    print()


def main() -> int:
    for name in ("kyiv48.json", "gf_decimal.json", "mm_ones.json"):
        tour(name)
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
