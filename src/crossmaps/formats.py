"""Bit-exact file formats: edge-list CSV, crosswalk CSV, array CSV, DOT, JSON.

Readers are strict and report every malformed row with its line number in
one pass.  Writers emit canonical bytes — sorted rows, weights as exact
``p/q`` text, ``\\n`` line endings — so reading and re-writing a canonical
file reproduces it exactly, and identical inputs always produce identical
output bytes.

``NA`` (exact, case-sensitive) is the only missing-value marker in array
files; an empty value cell is a parse error, because an accidental blank
and a deliberate NA must never be confused.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Literal, TextIO

from .core import (
    Crossmap,
    CrossmapError,
    Edge,
    EdgeListDraft,
    Finding,
    MassArray,
    ONE,
    ValidationReport,
    ZERO,
    parse_rational,
    render_rational,
)
from .graph import components

__all__ = [
    "ParseError",
    "SplitPolicy",
    "export_dot",
    "import_crosswalk",
    "read_array",
    "read_crosswalk",
    "read_edge_list",
    "to_json",
    "write_array",
    "write_crosswalk",
    "write_edge_list",
]

EDGE_HEADER = ["from", "to", "weight"]
ARRAY_HEADER = ["key", "value"]
CROSSWALK_HEADER = ["from", "to"]
MISSING_MARKER = "NA"

SplitPolicy = Literal["reject_splits", "equal_split"]


class ParseError(CrossmapError):
    """A file did not conform; every offending line is listed."""

    def __init__(self, filename: str, problems: list[tuple[int, str]]):
        self.filename = filename
        self.problems = tuple(problems)
        lines = "; ".join(f"line {n}: {msg}" for n, msg in problems)
        super().__init__(f"{filename}: {lines}")

    def to_json_dict(self) -> dict:
        return {
            "error": "parse",
            "file": self.filename,
            "problems": [{"line": n, "message": msg} for n, msg in self.problems],
        }


def _open_rows(source: str | Path | TextIO) -> tuple[str, list[list[str]]]:
    if hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", "<stream>")
    else:
        name = str(source)
        text = Path(source).read_text(encoding="utf-8")
    return name, list(csv.reader(io.StringIO(text, newline="")))


def _check_header(name: str, rows: list[list[str]], expected: list[str]) -> None:
    if not rows or rows[0] != expected:
        got = ",".join(rows[0]) if rows else "<empty file>"
        raise ParseError(name, [(1, f"header must be exactly {','.join(expected)!r}, got {got!r}")])


def _csv_writer(buffer: io.StringIO) -> csv.writer:
    return csv.writer(buffer, lineterminator="\n")


def read_edge_list(source: str | Path | TextIO) -> EdgeListDraft:
    """Read a ``from,to,weight`` CSV into a draft for validation.

    Weights must parse exactly and lie in (0, 1]; blank keys and malformed
    rows are collected with their line numbers.  Duplicate pairs are left
    for crossmap validation to report, since the draft must represent them.
    """
    name, rows = _open_rows(source)
    _check_header(name, rows, EDGE_HEADER)
    problems: list[tuple[int, str]] = []
    edges: list[Edge] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            problems.append((lineno, f"expected 3 fields, got {len(row)}"))
            continue
        raw_from, raw_to, raw_weight = row
        if not raw_from.strip() or not raw_to.strip():
            problems.append((lineno, "blank key"))
            continue
        try:
            weight = parse_rational(raw_weight)
        except ValueError as exc:
            problems.append((lineno, str(exc)))
            continue
        if not ZERO < weight <= ONE:
            problems.append((lineno, f"weight must be in (0, 1], got {render_rational(weight)}"))
            continue
        edges.append(Edge(raw_from, raw_to, weight))
    if problems:
        raise ParseError(name, problems)
    return EdgeListDraft(edges)


def _decimal_text(value: Fraction) -> str | None:
    # Exact finite decimal expansion, or None when there is none (e.g. 1/3).
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    places = max(twos, fives)
    if places == 0:
        return str(value.numerator)
    units = value.numerator * 10**places // value.denominator
    sign = "-" if units < 0 else ""
    whole, part = divmod(abs(units), 10**places)
    return f"{sign}{whole}.{str(part).zfill(places)}"


def write_edge_list(crossmap: Crossmap, decimal_weights: bool = False) -> str:
    """Canonical edge-list CSV: sorted rows, weights as exact ``p/q`` text.

    ``decimal_weights`` is presentation only: weights with a finite decimal
    expansion render as that exact decimal, anything else stays ``p/q``, so
    the file re-parses to the same crossmap either way.
    """
    buffer = io.StringIO()
    writer = _csv_writer(buffer)
    writer.writerow(EDGE_HEADER)
    for edge in crossmap.edges:
        cell = _decimal_text(edge.weight) if decimal_weights else None
        writer.writerow([edge.source, edge.target, cell or render_rational(edge.weight)])
    return buffer.getvalue()


def read_array(source: str | Path | TextIO) -> MassArray:
    """Read a ``key,value`` CSV; ``NA`` becomes an explicit missing marker.

    Duplicate keys are parse errors — two rows claiming the same key means
    the file's provenance is already broken.
    """
    name, rows = _open_rows(source)
    _check_header(name, rows, ARRAY_HEADER)
    problems: list[tuple[int, str]] = []
    entries: dict[str, Fraction | None] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            problems.append((lineno, f"expected 2 fields, got {len(row)}"))
            continue
        raw_key, raw_value = row
        key = raw_key.strip()
        if not key:
            problems.append((lineno, "blank key"))
            continue
        if key in entries:
            problems.append((lineno, f"duplicate key {key!r}"))
            continue
        if raw_value == MISSING_MARKER:
            entries[key] = None
            continue
        try:
            entries[key] = parse_rational(raw_value)
        except ValueError as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise ParseError(name, problems)
    return MassArray(entries)


def write_array(array: MassArray) -> str:
    """Canonical array CSV: sorted keys, exact values, ``NA`` for missing."""
    buffer = io.StringIO()
    writer = _csv_writer(buffer)
    writer.writerow(ARRAY_HEADER)
    for key, value in array.items():
        writer.writerow([key, MISSING_MARKER if value is None else render_rational(value)])
    return buffer.getvalue()


def read_crosswalk(source: str | Path | TextIO) -> tuple[tuple[str, str], ...]:
    """Read a two-column ``from,to`` lookup table; duplicate pairs are errors."""
    name, rows = _open_rows(source)
    _check_header(name, rows, CROSSWALK_HEADER)
    problems: list[tuple[int, str]] = []
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            problems.append((lineno, f"expected 2 fields, got {len(row)}"))
            continue
        raw_from, raw_to = row
        pair = (raw_from.strip(), raw_to.strip())
        if not pair[0] or not pair[1]:
            problems.append((lineno, "blank key"))
            continue
        if pair in seen:
            problems.append((lineno, f"duplicate pair ({pair[0]}, {pair[1]})"))
            continue
        seen.add(pair)
        pairs.append(pair)
    if problems:
        raise ParseError(name, problems)
    return tuple(pairs)


def write_crosswalk(pairs: Iterable[tuple[str, str]]) -> str:
    """Canonical crosswalk CSV, sorted by (from, to)."""
    buffer = io.StringIO()
    writer = _csv_writer(buffer)
    writer.writerow(CROSSWALK_HEADER)
    for pair in sorted(pairs):
        writer.writerow(list(pair))
    return buffer.getvalue()


def import_crosswalk(
    source: str | Path | TextIO,
    split_policy: SplitPolicy = "reject_splits",
) -> tuple[Crossmap | None, ValidationReport]:
    """Turn an unweighted lookup table into a crossmap.

    A two-column table can only express one-to-one and many-to-one
    relations unambiguously: a source with several targets carries no
    weights.  Under ``reject_splits`` each such source is an error; under
    ``equal_split`` every one of its k targets gets weight 1/k, flagged
    with a warning so the imputation is reviewed rather than overlooked.
    Returns the crossmap (when importable) together with the report
    carrying any split errors or imputation warnings.
    """
    pairs = read_crosswalk(source)
    targets_for: dict[str, list[str]] = {}
    for from_key, to_key in pairs:
        targets_for.setdefault(from_key, []).append(to_key)
    findings: list[Finding] = []
    edges: list[Edge] = []
    for from_key in sorted(targets_for):
        targets = targets_for[from_key]
        if len(targets) == 1:
            edges.append(Edge(from_key, targets[0], ONE))
            continue
        if split_policy == "reject_splits":
            findings.append(
                Finding(
                    severity="error",
                    code="split_source",
                    subject=from_key,
                    message=(
                        f"source {from_key!r} maps to {len(targets)} targets; a plain "
                        "crosswalk carries no weights for splits"
                    ),
                )
            )
            continue
        share = Fraction(1, len(targets))
        findings.append(
            Finding(
                severity="warning",
                code="equal_split_imputed",
                subject=from_key,
                message=(
                    f"source {from_key!r} split equally across {len(targets)} targets "
                    f"(weight {render_rational(share)} each): imputed equal split - review"
                ),
                value=share,
            )
        )
        edges.extend(Edge(from_key, t, share) for t in targets)
    report = ValidationReport(tuple(findings))
    if not report.ok:
        return None, report
    return Crossmap(edges), report


def _dot_quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def export_dot(crossmap: Crossmap) -> str:
    """Deterministic DOT text: one cluster per component, split edges dashed.

    Source and target occurrences of the same key become distinct nodes so
    identity edges render as a left-to-right link.  Fractional-weight edges
    are dashed and labelled with their exact weight; unit edges are plain.
    The output is a pure function of the canonical crossmap.
    """
    lines = [
        "digraph crossmap {",
        "  rankdir=LR;",
        "  node [shape=box];",
    ]
    for index, component in enumerate(components(crossmap)):
        lines.append(f"  subgraph cluster_{index} {{")
        for key in component.sources:
            lines.append(f"    {_dot_quote('src:' + key)} [label={_dot_quote(key)}];")
        for key in component.targets:
            lines.append(f"    {_dot_quote('tgt:' + key)} [label={_dot_quote(key)}];")
        source_rank = " ".join(f"{_dot_quote('src:' + k)};" for k in component.sources)
        target_rank = " ".join(f"{_dot_quote('tgt:' + k)};" for k in component.targets)
        lines.append(f"    {{ rank=same; {source_rank} }}")
        lines.append(f"    {{ rank=same; {target_rank} }}")
        for edge in component.edges:
            head = f"    {_dot_quote('src:' + edge.source)} -> {_dot_quote('tgt:' + edge.target)}"
            if len(crossmap.outgoing[edge.source]) > 1:
                label = _dot_quote(render_rational(edge.weight))
                lines.append(f"{head} [style=dashed, label={label}];")
            else:
                lines.append(f"{head};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(payload: object) -> str:
    """Deterministic JSON text for any report object exposing ``to_json_dict``."""
    if hasattr(payload, "to_json_dict"):
        payload = payload.to_json_dict()
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
