"""Spans around the calls into each cantorval module's public functions.

Tracing wraps functions from the benchmark's side: every binding of a target
function in a loaded ``cantorval`` module is rebound to a wrapper, so calls
made through ``from .exact import normalize`` and the like are seen too.  The
package re-exports ``classify`` as a function, which is why the modules are
reached through ``sys.modules`` and never as package attributes.

Spans stay in memory as ``(name, start, end, parent, job)`` tuples, with
per-span counters, and are written out once the traced passes end.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer -> public functions timed in that module's namespace
TARGETS = {
    "cli": ("main",),
    "classify": ("classify", "resolve_stream"),
    "engine": ("iterate", "hutchinson", "certify_interior", "measure_bounds"),
    "series": ("group_convolve", "finite_subsums"),
    "exact": ("normalize",),
    "tightness": ("tight_trend", "tight_decompose"),
    "uniqueness": (
        "repetition_report",
        "multirep_outer",
        "representation_uniqueness_oracle",
    ),
    "families": ("spec_from_json", "standardness_ratio"),
}


def _counts(name: str, args: tuple, result) -> dict:
    """Work counters for one call, read from its arguments and result."""
    if name == "series.group_convolve":
        pairs = len(args[0]) * len(args[1])
        return {"pairs": pairs, "values_out": len(result)}
    if name == "exact.normalize":
        return {"intervals_in": len(args[0]), "parts_out": len(result)}
    if name == "engine.certify_interior":
        return {"rounds": result.rounds, "verified": int(result.verified)}
    return {}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counters: list[dict] = []
        self.child_time: list[float] = []
        self.job = ""
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, counters, child_time, stack = (
            self.spans, self.counters, self.child_time, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "exact.normalize":
                args = (list(args[0]),) + args[1:]
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            counters.append({})
            child_time.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
                if parent >= 0:
                    child_time[parent] += end - start
            counters[index] = _counts(name, args, result)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every target present; returns the names that are missing."""
        missing = []
        modules = [
            mod for key, mod in list(sys.modules.items())
            if (key == "cantorval" or key.startswith("cantorval.")) and mod is not None
        ]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"cantorval.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return missing

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass totals: calls, total and self seconds, and counters."""
        acc: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            row = acc[name]
            duration = end - start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - self.child_time[index]
            for key, value in self.counters[index].items():
                row[key] += value
            # hutchinson hands all of its translated pieces to one normalize
            if name == "exact.normalize" and parent >= 0 \
                    and self.spans[parent][0] == "engine.hutchinson":
                acc["engine.hutchinson"]["pieces"] += self.counters[index]["intervals_in"]
        out = {}
        for name, row in acc.items():
            for key, value in row.items():
                out[f"{name}.{key}"] = value / passes
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index, job id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span, counters in zip(self.spans, self.counters):
                name, start, end, parent, job = span
                fh.write(json.dumps([name, start, end, parent, job, counters]) + "\n")
