"""Command-line front end.

Subcommands:
  validate   family admissibility conditions with exact witnesses
  analyze    composite report: classification, iterations, measure bounds,
             tight-diameter trend, standardness, uniqueness

Exit codes: 0 ok, 1 condition failure, 2 usage or parse error (including a
spec whose terms form no positive nonincreasing series), 3 capacity
exhausted.  Reports are deterministic: identical invocations produce
byte-identical output (no timestamps, exact rationals only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import Optional

from .classify import Verdict, classify, resolve_stream
from .engine import iterate, measure_bounds
from .families import (
    GFSpec,
    KyivSpec,
    MMSpec,
    MultigeometricSpec,
    gf_validate,
    kyiv_validate,
    spec_from_json,
    standardness_ratio,
)
from .series import DEFAULT_CAP, CapacityError, StreamError, SubsumLadder, kakeya_split
from .tightness import tight_trend
from .uniqueness import (
    RepeatedTermSpec,
    repetition_report,
    representation_uniqueness_oracle,
    semifast_check,
    tail_sum_unique,
)

EXIT_OK = 0
EXIT_CONDITION_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _load_spec(args: argparse.Namespace):
    if bool(args.spec) == bool(args.inline):
        raise ValueError("provide exactly one of --spec PATH or --inline JSON")
    raw = Path(args.spec).read_text() if args.spec else args.inline
    return spec_from_json(json.loads(raw))


def _int_at_least(low: int, text: str) -> int:
    """An integer option value no smaller than ``low``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
    return value


def _default_cap(args: argparse.Namespace) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("CANTORVAL_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        return _int_at_least(1, env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"CANTORVAL_CAP: {exc}") from None


def _usage_error(reason: object) -> int:
    sys.stderr.write(f"error: {reason}\n")
    return EXIT_USAGE


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, byte for byte, for a report.

    The standard library's indenting encoder is pure Python and yields one
    small string per token.  This writer appends to one chunk list, testing
    types in the same order (str, None, True, False, int, list or tuple,
    dict), and renders a list of ints, of strs or of [str, str] pairs (the
    bulk of a report: its parts and gaps) with one join.  A report holds no
    floats and only str keys, so either raises TypeError.
    """
    chunks: list[str] = []
    _write(doc, chunks, "\n")
    chunks.append("\n")
    return "".join(chunks)


def _write(o, chunks: list[str], newline: str) -> None:
    """Append the encoding of ``o``; ``newline`` is "\n" plus its indent."""
    if isinstance(o, str):
        chunks.append(_encode_str(o))
    elif o is None:
        chunks.append("null")
    elif o is True:
        chunks.append("true")
    elif o is False:
        chunks.append("false")
    elif isinstance(o, int):
        chunks.append(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            chunks.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in o):
            items = map(int.__repr__, o)
        elif all(type(x) is str for x in o):
            items = map(_encode_str, o)
        elif all(
            type(x) is list and len(x) == 2 and type(x[0]) is str and type(x[1]) is str
            for x in o
        ):
            deeper = inner + "  "
            items = (
                f"[{deeper}{_encode_str(a)},{deeper}{_encode_str(b)}{inner}]" for a, b in o
            )
        else:
            separator = "[" + inner
            for item in o:
                chunks.append(separator)
                _write(item, chunks, inner)
                separator = "," + inner
            chunks.append(newline + "]")
            return
        chunks.append(f"[{inner}{(',' + inner).join(items)}{newline}]")
    elif isinstance(o, dict):
        if not o:
            chunks.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            chunks.append(separator + _encode_str(key) + ": ")
            _write(value, chunks, inner)
            separator = "," + inner
        chunks.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _validation_conditions(spec) -> list[dict]:
    """Per-condition pass/fail with exact witnesses, per family."""
    if isinstance(spec, KyivSpec):
        return kyiv_validate(spec).to_json()["conditions"]
    if isinstance(spec, GFSpec):
        report = gf_validate(spec)
        doc = report.to_json()
        conditions = [
            {
                "name": "GF1: q_n <= (s_{n+1} - m_{n+1} + 1) q_{n+1}",
                "passed": report.gf1_holds,
                "witness": "all indices" if report.gf1_holds else str(doc["gf1_failure"]),
            },
            {
                "name": "GF2: m_n q_n > tail of (s_i + m_i) q_i",
                "passed": report.gf2_holds,
                "witness": "all indices" if report.gf2_holds else str(doc["gf2_failure"]),
            },
            {
                "name": "run totals s_n",
                "passed": True,
                "witness": str(doc["s"]),
            },
        ]
        return conditions
    if isinstance(spec, MMSpec):
        return [
            {
                "name": "gap parameters n_s >= 1, eventually periodic",
                "passed": True,
                "witness": str(spec.gaps.to_json()),
            }
        ]
    if isinstance(spec, MultigeometricSpec):
        return [
            {
                "name": "coefficients nonincreasing positive, ratio in (0,1)",
                "passed": True,
                "witness": str(spec.to_json()),
            }
        ]
    if isinstance(spec, RepeatedTermSpec):
        report = semifast_check(spec)
        return [
            {
                "name": "semi-fast: y_k > tail of K_i y_i",
                "passed": report.semifast,
                "witness": (
                    "all indices"
                    if report.semifast
                    else f"fails at k={report.first_violation}"
                ),
            }
        ]
    raise ValueError(f"no validator for {type(spec).__name__}")


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = _load_spec(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _usage_error(exc)
    conditions = _validation_conditions(spec)
    passed = all(c["passed"] for c in conditions)
    if args.format == "json":
        doc = {"spec": spec.to_json(), "passed": passed, "conditions": conditions}
        text = _dumps(doc)
    else:
        lines = [
            f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {c['witness']}"
            for c in conditions
        ]
        lines.append("all conditions pass" if passed else "some conditions fail")
        text = "\n".join(lines) + "\n"
    try:
        _emit(text, args.out)
    except OSError as exc:
        return _usage_error(exc)
    return EXIT_OK if passed else EXIT_CONDITION_FAILURE


def _uniqueness_section(spec, ladder: SubsumLadder, depth: int) -> dict:
    k = min(depth, 12)
    stream = ladder.stream
    report = repetition_report(ladder, k)
    section = {
        "repetition": report.to_json(),
        "tail_unique": [[n, tail_sum_unique(stream, n)] for n in range(1, k + 1)],
        "semifast": None,
        "representation_oracle": None,
    }
    if isinstance(spec, RepeatedTermSpec):
        section["semifast"] = semifast_check(spec).to_json()
        try:
            section["representation_oracle"] = representation_uniqueness_oracle(
                spec, min(depth, 6), ladder.cap
            )
        except CapacityError:
            section["representation_oracle"] = None
    return section


def build_report(spec, depth: int, horizon: int, cap: int, budget: int) -> dict:
    """The composite analysis document; everything exact and deterministic.

    One subsum ladder is built for the spec's stream and every section reads
    its F_n from it.  Each interior-certificate search runs at most once:
    measure_bounds reuses the seed-2 search that classify ran with the same
    budget, and runs none at all when the classification proves the
    interior empty (Finite or Cantor, Proved or Certified), because then
    its lower bound is 0 with no certificate whatever the search finds.
    """
    stream, _ = resolve_stream(spec)
    ladder = SubsumLadder(stream, cap)
    classification = classify(spec, ladder, horizon=horizon, budget=budget)
    iterations = [iterate(ladder, n).to_json() for n in range(depth + 1)]
    searchable = isinstance(spec, MultigeometricSpec) and not classification.interior_empty
    bounds = measure_bounds(
        ladder, depth, budget, spec if searchable else None,
        seed2=classification.certificate,
    )
    trend = tight_trend(ladder, horizon)
    try:
        standardness = standardness_ratio(spec, 1, stream).to_json()
    except ValueError:
        standardness = None
    return {
        "spec": spec.to_json(),
        "config": {"depth": depth, "horizon": horizon, "cap": cap, "budget": budget},
        "classification": classification.to_json(),
        "kakeya": kakeya_split(stream, horizon).to_json(),
        "iterations": iterations,
        "measure_bounds": bounds.to_json(),
        "tight_trend": trend.to_json(),
        "standardness": standardness,
        "uniqueness": _uniqueness_section(spec, ladder, depth),
    }


def validate_report_document(doc: dict) -> None:
    """Light schema check used by tests and round-trip validation."""
    required = {
        "spec",
        "config",
        "classification",
        "kakeya",
        "iterations",
        "measure_bounds",
        "tight_trend",
        "standardness",
        "uniqueness",
    }
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"report missing sections: {sorted(missing)}")
    if doc["classification"]["verdict"] not in {v.value for v in Verdict}:
        raise ValueError("bad verdict")
    for row in doc["iterations"]:
        for key in ("n", "measure", "parts", "gaps"):
            if key not in row:
                raise ValueError(f"iteration row missing {key}")
        for token in [row["measure"]] + [x for p in row["parts"] for x in p]:
            if "/" not in token:
                raise ValueError(f"rational not in p/q form: {token}")


def _csv_tables(doc: dict) -> dict[str, str]:
    tables = {}
    tables["iterations.csv"] = "\n".join(
        ["n,measure,brick_count,gap_count"]
        + [
            f"{row['n']},{row['measure']},{row['brick_count']},{row['gap_count']}"
            for row in doc["iterations"]
        ]
    ) + "\n"
    tables["tight_trend.csv"] = "\n".join(
        ["n,delta"] + [f"{n},{v}" for n, v in doc["tight_trend"]["rows"]]
    ) + "\n"
    if doc["standardness"] is not None:
        s = doc["standardness"]
        tables["standardness.csv"] = (
            "k,ratio,limit\n" + f"{s['index']},{s['at_index']},{s['limit']}\n"
        )
    return tables


def _human_summary(doc: dict) -> str:
    c = doc["classification"]
    b = doc["measure_bounds"]
    lines = [
        f"spec: {json.dumps(doc['spec'])}",
        f"classification: {c['verdict']} ({c['tier']}, horizon {c['horizon']})",
        f"measure bounds at depth {b['depth']}: "
        f"upper {b['upper_lambda_e']}, lower {b['lower_interior']}, gap {b['boundary_gap']}",
        f"tight trend final: {doc['tight_trend']['rows'][-1][1]}"
        f" (interval evidence: {doc['tight_trend']['interval_evidence']})",
    ]
    if doc["standardness"] is not None:
        lines.append(
            f"standardness ratio: {doc['standardness']['at_index']}"
            f" (limit {doc['standardness']['limit']})"
        )
    collisions = doc["uniqueness"]["repetition"]["collisions"]["values"]
    lines.append(f"certified collisions at depth {doc['uniqueness']['repetition']['k']}: "
                 f"{collisions if collisions else 'none'}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.format == "csv" and not args.out:
        return _usage_error("--format csv requires --out DIRECTORY")
    try:
        cap = _default_cap(args)
        spec = _load_spec(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _usage_error(exc)
    horizon = args.depth if args.horizon is None else args.horizon
    try:
        doc = build_report(spec, args.depth, horizon, cap, args.budget)
    except CapacityError as exc:
        sys.stderr.write(f"capacity exhausted in {exc.stage}: {exc}\n")
        return EXIT_CAPACITY
    except StreamError as exc:
        return _usage_error(exc)
    try:
        if args.format == "json":
            _emit(_dumps(doc), args.out)
        elif args.format == "csv":
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            for name, text in _csv_tables(doc).items():
                (outdir / name).write_text(text)
            (outdir / "report.json").write_text(_dumps(doc))
        else:
            _emit(_human_summary(doc), args.out)
    except OSError as exc:
        return _usage_error(exc)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports every usage error as one stderr line and exit status 2."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cantorval",
        description="Exact analysis of achievement sets of convergent series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("validate", cmd_validate), ("analyze", cmd_analyze)):
        p = sub.add_parser(name)
        p.add_argument("--spec", help="path to a family spec JSON file")
        p.add_argument("--inline", help="family spec JSON as a literal argument")
        p.add_argument("--depth", type=partial(_int_at_least, 1), default=8)
        p.add_argument("--horizon", type=partial(_int_at_least, 1), default=None)
        p.add_argument("--cap", type=partial(_int_at_least, 1), default=None,
                       help="dedup capacity (env CANTORVAL_CAP overrides the default)")
        p.add_argument("--budget", type=partial(_int_at_least, 0), default=12)
        p.add_argument("--format", choices=("json", "csv", "human"), default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(handler=handler)
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; returns its exit code.

    The parser is built on the first call and kept for later ones, so a
    caller that runs many commands in one process (a benchmark, the test
    suite, a library user) pays for the argument tree once.  A one-shot
    process builds it once either way, and importing this module builds
    nothing.  Defaults that read the environment, such as CANTORVAL_CAP,
    are still read on every call.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
