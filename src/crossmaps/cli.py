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
import errno
import io
import json
import os
import shlex
import sys
from pathlib import Path

# Every command reads through formats; each handler imports the rest of the
# library it runs, so a command loads no module it does not use.
from .core import (
    Crossmap,
    CrossmapError,
    InvalidCrossmapError,
    ValidationReport,
    ValueTooLongError,
    _render_ratio,
    validate_draft,
)
from .formats import (
    _read_text,
    export_dot,
    import_crosswalk,
    read_array,
    read_edge_list,
    to_json,
    write_array,
    write_edge_list,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2

SUMMARY_KEY_DISPLAY_LIMIT = 10
MAX_JOBS = 64


def _source(args: argparse.Namespace, path: str):
    """The one reader of an input: a binary stream over its bytes, read once, which the readers decode.

    Under ``--provenance`` the bytes' sha256 is kept for the record.  '-' means
    standard input's bytes, not recorded; a closed standard input is an ``OSError``.
    """
    if path == "-":
        if sys.stdin is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "-")
        return sys.stdin.buffer
    data = Path(path).read_bytes()
    if getattr(args, "provenance", None):
        import hashlib

        args.inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    stream = io.BytesIO(data)
    stream.name = path
    return stream


def _emit(args: argparse.Namespace, text: str, extra: dict, trailer: str = "") -> None:
    """The one writer of a result: provenance record, then ``--out`` or stdout, then ``trailer`` on stderr.

    A file output is written beside its target under a temporary name and
    renamed into place only after the provenance record is appended, so a
    failed run leaves neither an ``--out`` file nor anything on stdout.
    """
    if args.out is None or args.out == "-":
        _provenance_record(args, extra)
        sys.stdout.write(text)
    else:
        target = Path(args.out)
        # Beside the target, even when the target has no name ('.', '/'): the rename then fails.
        partial = target.parent / f".{target.name}.{os.getpid()}.tmp"
        try:
            partial.write_text(text, encoding="utf-8")
            _provenance_record(args, extra)
            os.replace(partial, target)
        except BaseException as exc:
            partial.unlink(missing_ok=True)
            if isinstance(exc, OSError) and exc.filename == str(partial):
                # Name the path the user gave, not the private temporary file.
                raise OSError(exc.errno, exc.strerror, args.out) from exc
            raise
    sys.stderr.write(trailer)


class _Refusal(CrossmapError):
    """A failure a handler finds itself, carrying its whole JSON document and its exit code."""

    _fields = ("document", "exit_code")

    def __init__(self, document: dict, exit_code: int):
        super().__init__(document)
        self.document, self.exit_code = document, exit_code

    def to_json_dict(self) -> dict:
        return self.document


def _load_crossmap(args: argparse.Namespace, path: str) -> Crossmap:
    try:
        return Crossmap._from_rows(read_edge_list(_source(args, path))._rows)
    except InvalidCrossmapError as exc:
        exc.subject = path
        raise


def _report_lines(report: ValidationReport) -> str:
    lines = [f"{f.severity} {f.code} {f.subject}: {f.message}" for f in report.findings]
    lines.append("ok" if report.ok else f"invalid: {len(report.errors)} error(s)")
    return "\n".join(lines) + "\n"


def _receipt_lines(d: dict) -> str:
    width = max(len(k) for k in d)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in d.items())


def _provenance_record(args: argparse.Namespace, extra: dict) -> None:
    if not args.provenance:
        return
    from datetime import datetime, timezone

    record = {
        "command": args.command,
        "inputs": args.inputs,
        "options": {
            k: v
            for k, v in vars(args).items()
            if k not in {"handler", "command", "provenance", "inputs"} and v is not None
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    record.update(extra)
    with open(args.provenance, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _cmd_validate(args: argparse.Namespace) -> None:
    report = validate_draft(read_edge_list(_source(args, args.edges)))
    sys.stdout.write(to_json(report) if args.json else _report_lines(report))
    if not report.ok:
        raise InvalidCrossmapError(report)


def _cmd_apply(args: argparse.Namespace) -> None:
    from .transform import TransformOptions, apply_transform

    crossmap = _load_crossmap(args, args.map)
    array = read_array(_source(args, args.data))
    options = TransformOptions(
        emit_zero_targets=not args.drop_zeros,
        on_uncovered="drop_and_report" if args.drop_uncovered else "error",
    )
    output, receipt = apply_transform(crossmap, array, options)
    document = receipt.to_json_dict()
    trailer = to_json(document) if args.json else _receipt_lines(document)
    _emit(args, write_array(output), {"receipt": document}, trailer)


def _cmd_compose(args: argparse.Namespace) -> None:
    from .algebra import compose

    maps = [_load_crossmap(args, path) for path in args.edges]
    combined = maps[0]
    for nxt in maps[1:]:
        combined = compose(combined, nxt)
    _emit(args, write_edge_list(combined), {})


def _cmd_reverse(args: argparse.Namespace) -> None:
    from .algebra import reverse

    crossmap = _load_crossmap(args, args.edges)
    result = reverse(crossmap)
    if isinstance(result, ValidationReport):
        raise InvalidCrossmapError(result, subject=args.edges)
    _emit(args, write_edge_list(result), {})


def _cmd_classify(args: argparse.Namespace) -> None:
    # Rendered from the cached partition and the rows, with no Edge built.
    crossmap = _load_crossmap(args, args.edges)
    found = crossmap._components
    if args.json:
        from .graph import _component_document

        rows = crossmap._rows
        documents = [
            _component_document(
                relation, sources, targets, ((s, t, _render_ratio(n, d)) for s in sources for t, n, d in rows[s])
            )
            for sources, targets, relation in found
        ]
        sys.stdout.write(to_json(documents))
    else:
        for index, (sources, targets, relation) in enumerate(found):
            sys.stdout.write(
                f"component {index} [{relation}] sources: {', '.join(sources)} -> targets: {', '.join(targets)}\n"
            )


def _summary_table(summary: dict) -> str:
    rows = []
    for row in summary["targets"]:
        keys = ",".join(row["incoming_keys"][:SUMMARY_KEY_DISPLAY_LIMIT])
        if row["incoming_count"] > SUMMARY_KEY_DISPLAY_LIMIT:
            keys += ",..."
        rows.append((row["target"], str(row["incoming_count"]), keys))
    target_width = max(len("target"), *(len(r[0]) for r in rows))
    count_width = max(len("incoming"), *(len(r[1]) for r in rows))
    lines = [f"{'target'.ljust(target_width)}  {'incoming'.rjust(count_width)}  incoming keys"]
    lines += [f"{t.ljust(target_width)}  {c.rjust(count_width)}  {k}" for t, c, k in rows]
    totals = summary["totals"]
    lines.append(
        f"edges: {totals['edges']}  sources: {totals['sources']}  targets: {totals['targets']}  "
        + " ".join(f"{k}={v}" for k, v in totals["component_types"].items())
    )
    return "\n".join(lines) + "\n"


def _metrics_lines(d: dict) -> str:
    lines = [
        "fractional edges: %d" % d["fractional_edge_count"],
        "split sources: %d (potential split share %s)"
        % (d["split_source_count"], d["potential_split_share"]),
    ]
    if d["realized_split_mass_share"] is not None:
        lines.append("realized split mass share: %s" % d["realized_split_mass_share"])
    return "\n".join(lines) + "\n"


def _cmd_summarize(args: argparse.Namespace) -> None:
    from .graph import imputation_metrics, summarize

    crossmap = _load_crossmap(args, args.edges)
    array = read_array(_source(args, args.data)) if args.data else None
    # Metrics first: they refuse a bad array before any stdout is written.
    imputation = imputation_metrics(crossmap, array).to_json_dict()
    payload = summarize(crossmap).to_json_dict()
    if args.json:
        payload["imputation"] = imputation
        sys.stdout.write(to_json(payload))
    else:
        sys.stdout.write(_summary_table(payload) + _metrics_lines(imputation))


def _cmd_extract(args: argparse.Namespace) -> None:
    from .extraction import ExternalCommandTransform, _exact_tolerance, probe_blackbox

    try:
        tolerance = _exact_tolerance(args.tolerance)
    except ValueError:
        message = f"--tolerance must be a non-negative number, got {args.tolerance!r}"
        raise _Refusal({"error": "usage", "message": message}, EXIT_USAGE) from None
    _, text = _read_text(_source(args, args.keys))
    keys = [line.strip() for line in text.split("\n") if line.strip()]
    if not keys:
        raise _Refusal({"error": "usage", "message": f"--keys file {args.keys!r} holds no source keys"}, EXIT_USAGE)
    transform = ExternalCommandTransform(args.cmd)
    result = probe_blackbox(
        transform,
        keys,
        tolerance=tolerance,
        rationalize_max_denominator=args.rationalize_max_den,
        jobs=args.jobs,
    )
    if result.crossmap is None:
        raise _Refusal({**result.to_json_dict(), "error": "nonconforming_probe_totals"}, EXIT_VALIDATION)
    _emit(args, write_edge_list(result.crossmap), {"extraction": result.to_json_dict()})


def _cmd_import_crosswalk(args: argparse.Namespace) -> None:
    policy = "equal_split" if args.equal_split else "reject_splits"
    crossmap, report = import_crosswalk(_source(args, args.crosswalk), split_policy=policy)
    if crossmap is None:
        raise InvalidCrossmapError(report, subject=args.crosswalk)
    warnings = "".join(f"warning {w.code} {w.subject}: {w.message}\n" for w in report.warnings)
    _emit(args, write_edge_list(crossmap), {}, warnings)


def _cmd_export_dot(args: argparse.Namespace) -> None:
    crossmap = _load_crossmap(args, args.edges)
    _emit(args, export_dot(crossmap), {})


class _Parser(argparse.ArgumentParser):
    """Argument errors follow the exit-code contract: one JSON document, exit 2."""

    def error(self, message: str):
        sys.stderr.write(to_json({"error": "usage", "message": message}))
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


def _command(text: str) -> tuple[str, ...]:
    """argparse type for ``--cmd``: shell-style words, at least one."""
    try:
        argv = shlex.split(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot split {text!r} into words: {exc}") from None
    if not argv:
        raise argparse.ArgumentTypeError("command is empty")
    return tuple(argv)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crossmap",
        description="Validate, apply, compose, analyse, and extract mass-preserving key mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Shared by every command that writes a result through _emit.
    result = argparse.ArgumentParser(add_help=False)
    result.add_argument("--out", help="write the result to this file instead of standard output ('-')")
    result.add_argument("--provenance", help="append a JSON record of input digests and options to this file")

    p = sub.add_parser("validate", help="check an edge list satisfies every crossmap condition")
    p.add_argument("edges")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("apply", parents=[result], help="transform a mass array; receipt goes to standard error")
    p.add_argument("--map", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--drop-uncovered", action="store_true", help="drop uncovered keys and report the dropped mass")
    p.add_argument("--drop-zeros", action="store_true", help="omit zero-valued targets from the output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("compose", parents=[result], help="fold a chain of edge lists into one crossmap")
    p.add_argument("edges", nargs="+")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("reverse", parents=[result], help="transpose a crossmap when the transpose is itself valid")
    p.add_argument("edges")
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

    p = sub.add_parser("extract", parents=[result], help="recover the crossmap inside an opaque command by probing")
    p.add_argument("--cmd", required=True, type=_command, help="command reading an array CSV on stdin, writing one on stdout")
    p.add_argument("--keys", required=True, help="file with one source key per line; - reads standard input")
    p.add_argument("--tolerance", default="1e-9")
    p.add_argument("--rationalize-max-den", type=_positive_int(), default=None)
    p.add_argument("--jobs", type=_positive_int(MAX_JOBS), default=1)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("import-crosswalk", parents=[result], help="turn a two-column lookup table into a crossmap")
    p.add_argument("crosswalk")
    p.add_argument("--equal-split", action="store_true", help="give a split source equal weights instead of rejecting it")
    p.set_defaults(handler=_cmd_import_crosswalk)

    p = sub.add_parser("export-dot", parents=[result], help="deterministic DOT rendering, one cluster per component")
    p.add_argument("edges")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.inputs = {}  # input digests, filled by _source under --provenance
    try:
        args.handler(args)
    except CrossmapError as exc:
        try:
            document = to_json(exc)
        except ValueTooLongError as too_long:
            # A field too long to render, such as a coverage error's mass.
            exc, document = too_long, to_json(too_long)
        sys.stderr.write(document)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            payload = {"error": "encoding", "message": f"input is not UTF-8: {exc}"}
        else:
            payload = {"error": "io", "message": str(exc)}
        sys.stderr.write(to_json(payload))
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
