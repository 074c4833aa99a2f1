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

from .classify import Evidence, Verdict, classify, resolve_stream
from .engine import DEFAULT_BUDGET, IterationRows, measure_bounds
from .exact import rat_str
from .families import spec_from_json, standardness_ratio
from .series import DEFAULT_CAP, CapacityError, StreamError, SubsumLadder
from .uniqueness import (
    RepetitionReport,
    repetition_report,
    representation_uniqueness_oracle,
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
    try:
        doc = json.loads(raw)
    except RecursionError:
        raise ValueError("spec JSON nests too deeply") from None
    return spec_from_json(doc)


def _int_at_least(low: int, text: str) -> int:
    """An integer option value no smaller than ``low``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
    return value


def _usage_error(reason: object) -> int:
    sys.stderr.write(f"error: {reason}\n")
    return EXIT_USAGE


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(doc) -> list[str]:
    """The chunks of ``json.dumps(doc, indent=2) + "\n"`` for a report, in
    order: joined, they are that string byte for byte.

    ``_write`` appends to one chunk list where the standard library's
    pure-Python indenting encoder yields one small string per token, and
    ``_emit`` writes a large report's list as it is to a file, so no
    whole-report string is built for it.
    A report holds no floats and only str keys, so either raises TypeError.
    """
    chunks: list[str] = []
    _write(doc, chunks, "\n")
    chunks.append("\n")
    return chunks


def _write(o, chunks: list[str], newline: str) -> None:
    """Append the encoding of ``o`` to ``chunks``, testing types in json's
    order; ``newline`` is "\n" plus its indent.  IterationRows and a
    RepetitionReport (the uniqueness section's collisions, witnesses and
    ``outer``) add their own chunks, each large list body a chunk of its
    own, so no body is copied into a wrapping string."""
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
        inner = newline + "  "
        separator = "[" + inner
        for item in o:
            chunks.append(separator)
            _write(item, chunks, inner)
            separator = "," + inner
        chunks.append(newline + "]" if o else "[]")
    elif isinstance(o, dict):
        inner = newline + "  "
        separator = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            chunks.append(separator + _encode_str(key) + ": ")
            _write(value, chunks, inner)
            separator = "," + inner
        chunks.append(newline + "}" if o else "{}")
    elif isinstance(o, (IterationRows, RepetitionReport)):
        chunks.extend(o.chunks(newline))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# A report file below this many characters (the reports are ASCII, so
# bytes) is joined, encoded and written to a bare descriptor: a 13.9 KB
# report took a median 115-159 us with writelines on a text file against
# 90-112 us through the descriptor, and 208-268 us against 130-170 us right
# after gc.collect() (Python 3.11 on a 2-CPU Linux VM, ranges over runs).
# Larger reports keep writelines: right after gc.collect() the ladder
# workload's 7 reports of 256 KiB or more took 5.8-7.0 ms that way against
# 10.5-14.3 ms joined, encoded and written to a descriptor (middle_thirds'
# 4.85 MB alone 2.7-3.3 ms against 8.7-10.9 ms), and joining would hold a
# second copy of that report, while that workload's peak_rss_mb sits within
# about 2 MB of the peak perfbench/checks.py itself reaches checking it.
_JOIN_BELOW = 256 * 1024

# O_BINARY (Windows only) keeps the C runtime from writing "\r\n" for "\n"
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _emit(chunks: list[str], out: Optional[str]) -> None:
    """Write ``chunks`` in order to the file ``out``, or to stdout without it.

    A file takes a report below ``_JOIN_BELOW`` as its UTF-8 bytes, written
    through one descriptor with no file object around it, and a larger one
    as the list itself, through a text file's buffer; both write "\n" as it
    is.  Stdout always takes the joined text in one write, since an
    unbuffered stdout (``PYTHONUNBUFFERED=1``) makes each write a system call.
    """
    if not out:
        sys.stdout.write("".join(chunks))
    elif sum(map(len, chunks)) < _JOIN_BELOW:
        data = memoryview("".join(chunks).encode())
        fd = os.open(out, _WRITE_FLAGS, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    else:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = _load_spec(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _usage_error(exc)
    conditions = spec.conditions()
    passed = all(c["passed"] for c in conditions)
    if args.format == "json":
        doc = {"spec": spec.to_json(), "passed": passed, "conditions": conditions}
        chunks = _dumps(doc)
    else:
        lines = [
            f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {c['witness']}"
            for c in conditions
        ]
        lines.append("all conditions pass" if passed else "some conditions fail")
        chunks = ["\n".join(lines) + "\n"]
    try:
        _emit(chunks, args.out)
    except OSError as exc:
        return _usage_error(exc)
    return EXIT_OK if passed else EXIT_CONDITION_FAILURE


def _uniqueness_section(spec, ladder: SubsumLadder, depth: int) -> dict:
    k = min(depth, 12)
    stream = ladder.stream
    section = {
        "repetition": repetition_report(ladder, k),
        "tail_unique": [[n, tail_sum_unique(stream, n)] for n in range(1, k + 1)],
        "semifast": None,
        "representation_oracle": None,
    }
    semifast = getattr(spec, "semifast", None)  # a repeated-term spec's criterion
    if semifast is not None:
        section["semifast"] = semifast().to_json()
        try:
            section["representation_oracle"] = representation_uniqueness_oracle(
                spec, min(depth, 6), ladder.cap
            )
        except CapacityError:
            section["representation_oracle"] = None
    return section


def build_report(spec, depth: int, horizon: int, cap: int, budget: int) -> dict:
    """The composite analysis document as plain JSON: the text ``analyze``
    writes, parsed."""
    return json.loads("".join(_dumps(_analysis(spec, depth, horizon, cap, budget))))


def _analysis(spec, depth: int, horizon: int, cap: int, budget: int) -> dict:
    """The composite analysis document; everything exact and deterministic.

    One subsum ladder is built for the spec's stream and every section reads
    its F_n from it; the tight_trend and kakeya sections are read off the
    Evidence that classify reads.  measure_bounds is handed the spec, and
    searches for an interior certificate when ``families.self_similar``
    gives the spec a block, unless the classification proves the interior
    empty (Cantor, Proved or Certified): then its lower bound is 0 with no
    certificate whatever the search finds, so it is handed no spec.  The iteration rows are
    IterationRows and the uniqueness section's repetition is a
    RepetitionReport, which ``_write`` writes from their own text.
    """
    stream = resolve_stream(spec)
    ladder = SubsumLadder(stream, cap)
    evidence = Evidence(spec, ladder, horizon, budget)
    trend, split = evidence.trend, evidence.split
    classification = classify(spec, ladder, evidence=evidence)
    iterations = IterationRows(ladder, depth)
    bounds = measure_bounds(ladder, depth, budget, None if classification.interior_empty else spec)
    try:
        standardness = standardness_ratio(spec, 1, stream).to_json()
    except ValueError:
        standardness = None
    return {
        "spec": spec.to_json(),
        "config": {"depth": depth, "horizon": horizon, "cap": cap, "budget": budget},
        "classification": classification.to_json(),
        "kakeya": split.to_json(),
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
            f"{row.n},{rat_str(row.measure)},{row.brick_count},{row.gap_count}"
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
    repetition = doc["uniqueness"]["repetition"]
    collisions = repetition.value_strs()
    lines.append(f"certified collisions at depth {repetition.k}: "
                 f"{collisions if collisions else 'none'}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.format == "csv" and not args.out:
        return _usage_error("--format csv requires --out DIRECTORY")
    try:
        spec = _load_spec(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _usage_error(exc)
    horizon = args.depth if args.horizon is None else args.horizon
    try:
        doc = _analysis(spec, args.depth, horizon, args.cap, args.budget)
    except CapacityError as exc:
        sys.stderr.write(f"capacity exhausted in {exc}\n")  # exc starts with its stage
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
                _emit([text], str(outdir / name))
            _emit(_dumps(doc), str(outdir / "report.json"))
        else:
            _emit([_human_summary(doc)], args.out)
    except OSError as exc:
        return _usage_error(exc)
    return EXIT_OK


# Each command's handler and options, in the order ``-h`` lists them: flag
# to type (None for a string), default, choices and help.  build_parser adds
# them to argparse, and _plain_args reads a plain argv by them alone.
_SPEC_OPTIONS = {
    "--spec": (None, None, None, "path to a family spec JSON file"),
    "--inline": (None, None, None, "family spec JSON as a literal argument"),
}
_COMMANDS = {
    "validate": (cmd_validate, {
        **_SPEC_OPTIONS,
        "--format": (None, "json", ("json", "human"), None),
        "--out": (None, None, None, None),
    }),
    "analyze": (cmd_analyze, {
        **_SPEC_OPTIONS,
        "--depth": (partial(_int_at_least, 1), 8, None, None),
        "--horizon": (partial(_int_at_least, 1), None, None, None),
        "--cap": (partial(_int_at_least, 1), DEFAULT_CAP, None, "dedup capacity"),
        "--budget": (partial(_int_at_least, 0), DEFAULT_BUDGET, None, None),
        "--format": (None, "json", ("json", "csv", "human"), None),
        "--out": (None, None, None, None),
    }),
}


def _plain_args(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace the full parser's ``parse_args`` gives a plain ``argv``:
    a command's name, then exact ``--option value`` pairs, each value not
    starting with "-" and passing its option's type and choices.  None for
    any other argv, which argparse then reads and reports on."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    handler, options = _COMMANDS[argv[0]]
    values = {flag[2:]: option[1] for flag, option in options.items()}
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or text.startswith("-"):
            return None
        kind, _, choices, _ = option
        try:
            value = text if kind is None else kind(text)
        except argparse.ArgumentTypeError:
            return None
        if choices is not None and value not in choices:
            return None
        values[flag[2:]] = value
    return argparse.Namespace(command=argv[0], handler=handler, **values)


class _Parser(argparse.ArgumentParser):
    """Reports every usage error as one stderr line and exit status 2."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cantorval",
        description="Exact analysis of achievement sets of convergent series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, (kind, default, choices, text) in options.items():
            p.add_argument(flag, type=kind, default=default, choices=choices, help=text)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; returns its exit code.

    A plain argv (see ``_plain_args``) is read from the option table with no
    parser.  Any other argv (none, ``-h``, an unknown command, an
    abbreviated option, ``--option=value`` or a usage error) is read by a
    parser that ``build_parser`` makes for it; importing this module builds
    nothing.

    The command runs with Python's int-to-str digit limit lifted, since a
    spec's exact values can outgrow it, and restores it on return.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
