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
    parse_rational,
    render_rational,
)

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
    if "\r" in text:
        # The universal-newline reading a text-mode file gets, for streams too:
        # csv.reader ends a row at a bare \r that the writers leave unquoted.
        text = io.StringIO(text, newline=None).read()
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return name, list(reader)
    except csv.Error as exc:
        # E.g. a field over csv.field_size_limit(): reported like any bad row.
        raise ParseError(name, [(reader.line_num, str(exc))]) from exc


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
    # Each distinct weight token is parsed and range-checked once; a token that
    # fails is never stored, so every line carrying it reports its own problem.
    weights: dict[str, Fraction] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            problems.append((lineno, f"expected 3 fields, got {len(row)}"))
            continue
        raw_from, raw_to, raw_weight = row
        source, target = raw_from.strip(), raw_to.strip()
        if not source or not target:
            problems.append((lineno, "blank key"))
            continue
        weight = weights.get(raw_weight)
        if weight is None:
            try:
                weight = parse_rational(raw_weight)
            except ValueError as exc:
                problems.append((lineno, str(exc)))
                continue
            n, d = weight.as_integer_ratio()
            # Fraction denominators are positive, so 0 < n/d <= 1 iff 0 < n <= d.
            if not 0 < n <= d:
                problems.append((lineno, f"weight must be in (0, 1], got {render_rational(weight)}"))
                continue
            weights[raw_weight] = weight
        edges.append(Edge._from_clean(source, target, weight))
    if problems:
        raise ParseError(name, problems)
    return EdgeListDraft(edges)


def write_edge_list(crossmap: Crossmap) -> str:
    """Canonical edge-list CSV: sorted rows, weights as exact ``p/q`` text."""
    buffer = io.StringIO()
    writer = _csv_writer(buffer)
    writer.writerow(EDGE_HEADER)
    # Real maps repeat a few weights, so each distinct one is rendered once.
    # Keyed by the integer pair: hashing the Fraction itself costs more than
    # rendering it.
    rendered: dict[tuple[int, int], str] = {}
    rows = []
    for e in crossmap.edges:
        pair = e.weight.as_integer_ratio()
        text = rendered.get(pair)
        if text is None:
            text = rendered[pair] = render_rational(e.weight)
        rows.append((e.source, e.target, text))
    writer.writerows(rows)
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
    return MassArray._from_clean(entries)


def write_array(array: MassArray) -> str:
    """Canonical array CSV: sorted keys, exact values, ``NA`` for missing."""
    buffer = io.StringIO()
    writer = _csv_writer(buffer)
    writer.writerow(ARRAY_HEADER)
    writer.writerows(
        (key, MISSING_MARKER if value is None else render_rational(value)) for key, value in array.items()
    )
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
            edges.append(Edge._from_clean(from_key, targets[0], ONE))
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
        edges.extend(Edge._from_clean(from_key, t, share) for t in targets)
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
    from .graph import components

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
