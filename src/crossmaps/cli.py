"""Command-line surface binding the library into auditable workflows.

Exit codes: 0 success, 1 validation or coverage failure, 2 usage or I/O
error, 3 probe failure.  Whenever the exit code is nonzero, one JSON
document describing the failure goes to standard error, so scripts can
react without scraping human-readable text.  Output on standard out is
byte-deterministic for identical inputs; wall-clock timestamps appear
only in the opt-in provenance footer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from .algebra import CompositionError, compose, reverse
from .core import (
    Crossmap,
    MassArray,
    ValidationReport,
    build_crossmap,
)
from .extraction import ExternalCommandTransform, ProbeError, probe_blackbox
from .formats import (
    ParseError,
    export_dot,
    import_crosswalk,
    read_array,
    read_edge_list,
    to_json,
    write_array,
    write_edge_list,
)
from .graph import classify, components, imputation_metrics, summarize
from .transform import (
    CoverageError,
    MissingValueError,
    NegativeMassError,
    TransformOptions,
    TransformReceipt,
    apply_transform,
)
from .validation import check_mass_preserving

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_PROBE = 3

SUMMARY_KEY_DISPLAY_LIMIT = 10
MAX_JOBS = 64


def _fail(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, indent=2) + "\n")


def _source(path: str):
    """A readable source for the formats readers; '-' means standard input."""
    return sys.stdin if path == "-" else path


def _emit(args: argparse.Namespace, text: str, inputs: list[str], extra: dict) -> None:
    """Write ``text`` to ``--out`` (or stdout), then append the provenance record.

    A file output is written beside its target under a temporary name and
    renamed into place only after the provenance record is appended, so a
    failed run never leaves an ``--out`` file behind.
    """
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
        _provenance_record(args, inputs, extra)
        return
    target = Path(args.out)
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        partial.write_text(text, encoding="utf-8")
        _provenance_record(args, inputs, extra)
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _load_crossmap(path: str) -> Crossmap:
    built = build_crossmap(read_edge_list(_source(path)))
    if isinstance(built, ValidationReport):
        raise _ReportedFailure(built, subject=path)
    return built


class _ReportedFailure(Exception):
    """Internal: a validation report that should become exit status 1."""

    def __init__(self, report: ValidationReport, subject: str):
        self.report = report
        self.subject = subject
        super().__init__(subject)


def _report_lines(report: ValidationReport) -> str:
    lines = [f"{f.severity} {f.code} {f.subject}: {f.message}" for f in report.findings]
    lines.append("ok" if report.ok else f"invalid: {len(report.errors)} error(s)")
    return "\n".join(lines) + "\n"


def _receipt_lines(receipt: TransformReceipt) -> str:
    d = receipt.to_json_dict()
    width = max(len(k) for k in d)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in d.items())


def _provenance_record(args: argparse.Namespace, inputs: list[str], extra: dict) -> None:
    path = getattr(args, "provenance", None)
    if not path:
        return
    digests = {}
    for name in inputs:
        if name == "-":
            continue
        digests[name] = "sha256:" + hashlib.sha256(Path(name).read_bytes()).hexdigest()
    record = {
        "command": args.command,
        "inputs": digests,
        "options": {
            k: v
            for k, v in vars(args).items()
            if k not in {"handler", "command", "provenance"} and v is not None
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    record.update(extra)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _cmd_validate(args: argparse.Namespace) -> int:
    report = check_mass_preserving(read_edge_list(_source(args.edges)))
    sys.stdout.write(to_json(report) if args.json else _report_lines(report))
    if not report.ok:
        _fail(report.to_json_dict())
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_apply(args: argparse.Namespace) -> int:
    crossmap = _load_crossmap(args.map)
    array = read_array(_source(args.data))
    options = TransformOptions(
        emit_zero_targets=not args.drop_zeros,
        on_uncovered="drop_and_report" if args.drop_uncovered else "error",
    )
    output, receipt = apply_transform(crossmap, array, options)
    _emit(args, write_array(output), [args.map, args.data], {"receipt": receipt.to_json_dict()})
    sys.stderr.write(to_json(receipt) if args.json else _receipt_lines(receipt))
    return EXIT_OK


def _cmd_compose(args: argparse.Namespace) -> int:
    maps = [_load_crossmap(path) for path in args.edges]
    combined = maps[0]
    for nxt in maps[1:]:
        combined = compose(combined, nxt)
    _emit(args, write_edge_list(combined), list(args.edges), {})
    return EXIT_OK


def _cmd_reverse(args: argparse.Namespace) -> int:
    crossmap = _load_crossmap(args.edges)
    result = reverse(crossmap)
    if isinstance(result, ValidationReport):
        raise _ReportedFailure(result, subject=args.edges)
    _emit(args, write_edge_list(result), [args.edges], {})
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    crossmap = _load_crossmap(args.edges)
    found = components(crossmap)
    if args.json:
        sys.stdout.write(to_json([c.to_json_dict() for c in found]))
    else:
        for index, component in enumerate(found):
            sys.stdout.write(
                f"component {index} [{classify(component)}] "
                f"sources: {', '.join(component.sources)} -> "
                f"targets: {', '.join(component.targets)}\n"
            )
    return EXIT_OK


def _summary_table(crossmap: Crossmap) -> str:
    summary = summarize(crossmap)
    rows = []
    for row in summary.target_rows:
        keys = ",".join(row.incoming_keys[:SUMMARY_KEY_DISPLAY_LIMIT])
        if row.incoming_count > SUMMARY_KEY_DISPLAY_LIMIT:
            keys += ",..."
        rows.append((row.target, str(row.incoming_count), keys))
    target_width = max(len("target"), *(len(r[0]) for r in rows))
    count_width = max(len("incoming"), *(len(r[1]) for r in rows))
    lines = [f"{'target'.ljust(target_width)}  {'incoming'.rjust(count_width)}  incoming keys"]
    lines += [f"{t.ljust(target_width)}  {c.rjust(count_width)}  {k}" for t, c, k in rows]
    totals = summary.to_json_dict()["totals"]
    lines.append(
        f"edges: {totals['edges']}  sources: {totals['sources']}  targets: {totals['targets']}  "
        + " ".join(f"{k}={v}" for k, v in totals["component_types"].items())
    )
    return "\n".join(lines) + "\n"


def _metrics_lines(crossmap: Crossmap, array: MassArray | None) -> str:
    metrics = imputation_metrics(crossmap, array)
    d = metrics.to_json_dict()
    lines = [
        "fractional edges: %d" % d["fractional_edge_count"],
        "split sources: %d (potential split share %s)"
        % (d["split_source_count"], d["potential_split_share"]),
    ]
    if d["realized_split_mass_share"] is not None:
        lines.append("realized split mass share: %s" % d["realized_split_mass_share"])
    return "\n".join(lines) + "\n"


def _cmd_summarize(args: argparse.Namespace) -> int:
    crossmap = _load_crossmap(args.edges)
    array = read_array(_source(args.data)) if args.data else None
    if args.json:
        payload = summarize(crossmap).to_json_dict()
        payload["imputation"] = imputation_metrics(crossmap, array).to_json_dict()
        sys.stdout.write(to_json(payload))
    else:
        # Metrics first: they refuse a bad array before any stdout is written.
        metrics = _metrics_lines(crossmap, array)
        sys.stdout.write(_summary_table(crossmap) + metrics)
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    try:
        tolerance = Fraction(args.tolerance)
    except ValueError:
        tolerance = None
    if tolerance is None or tolerance < 0:
        _fail({"error": "usage", "message": f"--tolerance must be a non-negative number, got {args.tolerance!r}"})
        return EXIT_USAGE
    keys = [
        line.strip()
        for line in Path(args.keys).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    transform = ExternalCommandTransform(shlex.split(args.cmd))
    result = probe_blackbox(
        transform,
        keys,
        tolerance=tolerance,
        rationalize_max_denominator=args.rationalize_max_den,
        jobs=args.jobs,
    )
    if result.crossmap is None:
        payload = result.to_json_dict()
        payload["error"] = "nonconforming_probe_totals"
        _fail(payload)
        return EXIT_VALIDATION
    _emit(args, write_edge_list(result.crossmap), [args.keys], {"extraction": result.to_json_dict()})
    return EXIT_OK


def _cmd_import_crosswalk(args: argparse.Namespace) -> int:
    policy = "equal_split" if args.equal_split else "reject_splits"
    crossmap, report = import_crosswalk(_source(args.crosswalk), split_policy=policy)
    if crossmap is None:
        raise _ReportedFailure(report, subject=args.crosswalk)
    for warning in report.warnings:
        sys.stderr.write(f"warning {warning.code} {warning.subject}: {warning.message}\n")
    _emit(args, write_edge_list(crossmap), [args.crosswalk], {})
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    crossmap = _load_crossmap(args.edges)
    _emit(args, export_dot(crossmap), [args.edges], {})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors follow the exit-code contract: one JSON document, exit 2."""

    def error(self, message: str):
        _fail({"error": "usage", "message": message})
        raise SystemExit(EXIT_USAGE)


def _positive_int(upper: int | None = None):
    """argparse type for an integer of at least 1 and at most ``upper``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < 1 or (upper is not None and value > upper):
            bound = "at least 1" if upper is None else f"between 1 and {upper}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crossmap",
        description="Validate, apply, compose, analyse, and extract mass-preserving key mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an edge list satisfies every crossmap condition")
    p.add_argument("edges")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("apply", help="transform a mass array; receipt goes to standard error")
    p.add_argument("--map", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--drop-uncovered", action="store_true", help="drop uncovered keys and report the dropped mass")
    p.add_argument("--drop-zeros", action="store_true", help="omit zero-valued targets from the output")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.add_argument("--provenance")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("compose", help="fold a chain of edge lists into one crossmap")
    p.add_argument("edges", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--provenance")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("reverse", help="transpose a crossmap when the transpose is itself valid")
    p.add_argument("edges")
    p.add_argument("--out", required=True)
    p.add_argument("--provenance")
    p.set_defaults(handler=_cmd_reverse)

    p = sub.add_parser("classify", help="list disjoint components and their relation types")
    p.add_argument("edges")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("summarize", help="per-target aggregation summary and imputation metrics")
    p.add_argument("edges")
    p.add_argument("--data")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_summarize)

    p = sub.add_parser("extract", help="recover the crossmap inside an opaque command by probing")
    p.add_argument("--cmd", required=True, help="command reading an array CSV on stdin, writing one on stdout")
    p.add_argument("--keys", required=True, help="file with one source key per line")
    p.add_argument("--tolerance", default="1e-9")
    p.add_argument("--rationalize-max-den", type=_positive_int(), default=None)
    p.add_argument("--jobs", type=_positive_int(MAX_JOBS), default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--provenance")
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("import-crosswalk", help="turn a two-column lookup table into a crossmap")
    p.add_argument("crosswalk")
    p.add_argument("--equal-split", action="store_true", help="give a split source equal weights instead of rejecting it")
    p.add_argument("--out", required=True)
    p.add_argument("--provenance")
    p.set_defaults(handler=_cmd_import_crosswalk)

    p = sub.add_parser("export-dot", help="deterministic DOT rendering, one cluster per component")
    p.add_argument("edges")
    p.add_argument("--out", required=True)
    p.add_argument("--provenance")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        _fail(exc.to_json_dict())
        return EXIT_VALIDATION
    except _ReportedFailure as exc:
        payload = exc.report.to_json_dict()
        payload["subject"] = exc.subject
        _fail(payload)
        return EXIT_VALIDATION
    except (CoverageError, MissingValueError, NegativeMassError) as exc:
        _fail(exc.to_json_dict())
        return EXIT_VALIDATION
    except CompositionError as exc:
        _fail({"error": "composition", "unmatched_keys": list(exc.unmatched)})
        return EXIT_VALIDATION
    except ProbeError as exc:
        _fail({"error": "probe", "message": str(exc)})
        return EXIT_PROBE
    except OSError as exc:
        _fail({"error": "io", "message": str(exc)})
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        _fail({"error": "encoding", "message": f"input is not UTF-8: {exc}"})
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
