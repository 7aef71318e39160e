"""Bit-exact file formats: edge-list CSV, crosswalk CSV, array CSV, DOT, JSON.

Readers are strict: each takes a path, a text stream or a binary stream
(bytes must be UTF-8) and reports every malformed row in one pass, at the
line the row starts on, counting the lines inside quoted fields; a ``csv``
error ends reading and is listed after the problems found before it.
Writers emit canonical bytes — sorted rows, weights as exact ``p/q`` text,
``\\n`` line endings — so reading and re-writing a canonical file reproduces
it exactly, and identical inputs always produce identical output bytes.

The writers build their lines directly, with no ``csv.writer``: a key is
quoted, each ``"`` in it doubled, exactly when it holds ``,``, ``"`` or
``\\n``.  That rule gives the bytes ``csv.writer`` gives every key a
crossmap, an array or a written crosswalk can hold, and one helper,
``_quoted``, holds it.

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
from typing import BinaryIO, Iterable, Iterator, Literal, TextIO, get_args

from . import _EXPORTS
from .core import (
    Crossmap,
    CrossmapError,
    EdgeListDraft,
    Finding,
    MassArray,
    ValidationReport,
    _Pairs,
    _check_policy,
    _for_message,
    _parse_ratio,
    _in_key_order,
    _render_ratio,
    _rows_of,
    _too_long,
    clean_key,
    render_rational,
)

__all__ = _EXPORTS["formats"]

EDGE_HEADER = ["from", "to", "weight"]
ARRAY_HEADER = ["key", "value"]
CROSSWALK_HEADER = ["from", "to"]
MISSING_MARKER = "NA"

SplitPolicy = Literal["reject_splits", "equal_split"]


class ParseError(CrossmapError):
    """A file did not conform; every offending line is listed."""

    _fields = ("filename", "problems")

    def __init__(self, filename: str, problems: list[tuple[int, str]]):
        self.filename = filename
        self.problems = tuple(problems)
        lines = "; ".join(f"line {n}: {msg}" for n, msg in problems)
        super().__init__(f"{filename}: {lines}")

    def to_json_dict(self) -> dict:
        problems = [{"line": n, "message": msg} for n, msg in self.problems]
        return {"error": "parse", "file": self.filename, "problems": problems}


def _read_text(source: str | Path | TextIO | BinaryIO) -> tuple[str, str]:
    """A source's name and whole text, the one decoder: bytes as strict UTF-8, line ends as ``\\n``, NUL refused."""
    if hasattr(source, "read"):
        data = source.read()
        name = getattr(source, "name", "<stream>")
    else:
        name = str(source)
        data = Path(source).read_bytes()
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    if "\r" in text:
        # The universal-newline rule a text-mode file follows: csv.reader ends
        # a row at a bare \r that the writers leave unquoted.
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if "\x00" in text:
        # csv.reader refuses NUL before Python 3.11 and reads it after; refuse it
        # on every version, with the document 3.10 gives.
        line = text.count("\n", 0, text.index("\x00")) + 1
        raise ParseError(name, [(line, "line contains NUL")])
    return name, text


def _csv_rows(source: str | Path | TextIO | BinaryIO, header: list[str], refused: list[str]) -> Iterator[list[str]]:
    """Yield each row after an exact ``header`` that has as many fields.

    The caller refuses the row it was just given by appending one message to
    ``refused`` before taking the next.  Every problem is listed at the line
    its row starts on, counting the lines inside quoted fields; a
    ``csv.Error`` ends reading and is listed after the problems found before
    it.  After the last row, any problems raise one ``ParseError``.
    """
    name, text = _read_text(source)
    reader = csv.reader(io.StringIO(text, newline=""))
    width, problems = len(header), []
    try:
        first = next(reader, None)
        if first != header:
            got = ",".join(first) if first is not None else "<empty file>"
            problems.append((1, f"header must be exactly {','.join(header)!r}, got {got!r}"))
        else:
            for row in reader:
                if len(row) == width:
                    yield row
                else:
                    refused.append(f"expected {width} fields, got {len(row)}")
                if refused:
                    # The row's last line less the line breaks its quoted fields
                    # hold (_read_text leaves "\n" the only one): no line number
                    # is built for a row nobody refuses.
                    line = reader.line_num - sum(field.count("\n") for field in row)
                    problems.append((line, refused.pop()))
    except csv.Error as exc:
        # E.g. a field over csv.field_size_limit(): reported like any bad row.
        problems.append((reader.line_num, str(exc)))
    if problems:
        raise ParseError(name, problems)


def _quoted(key: str) -> str:
    """A key as a CSV field: quoted, each ``"`` doubled, when it holds ``,``, ``"`` or ``\\n``.

    Byte for byte what ``csv.writer(lineterminator="\\n")`` writes on Python
    3.10 to 3.13 for every key :func:`clean_key` returns, the only keys the
    ``_Rows`` and ``_Pairs`` layouts and ``write_crosswalk`` admit: non-empty,
    trimmed, with no ``\\r`` and no NUL.  The versions differ only on ``\\r``,
    NUL and a lone empty field, which no writer is given.
    """
    if "," in key or '"' in key or "\n" in key:
        return '"' + key.replace('"', '""') + '"'
    return key


def _key_value_text(header: list[str], lines: Iterable[tuple[str, tuple[int, int] | None]]) -> str:
    """The header, then one ``key,value`` line per ``(key, pair)``, each ending in ``\n``.

    The key comes as written, its fields already :func:`_quoted`; the value
    is ``NA`` for ``None`` and :func:`_render_ratio`'s text of a pair, a
    value too long to render raising its ``ValueTooLongError``.
    """
    out = [",".join(header)]
    append = out.append
    try:
        for key, pair in lines:
            if pair is None:
                append(f"{key},{MISSING_MARKER}")
            else:
                n, d = pair
                append(f"{key},{n}" if d == 1 else f"{key},{n}/{d}")
    except ValueError:
        raise _too_long() from None
    out.append("")
    return "\n".join(out)


def read_edge_list(source: str | Path | TextIO | BinaryIO) -> EdgeListDraft:
    """Read a ``from,to,weight`` CSV into a draft for validation.

    Weights must parse exactly and lie in (0, 1]; blank keys and malformed
    rows are collected with their line numbers.  Duplicate pairs are left
    for crossmap validation to report, since the draft must represent them.
    The rows are grouped as they are parsed, with no ``Edge`` built.
    """
    refused: list[str] = []
    # Each distinct weight token is parsed and range-checked once, to its reduced pair; a token
    # that fails is never stored, so every line carrying it reports its own problem.
    weights: dict[str, tuple[int, int]] = {}

    def edges() -> Iterator[tuple[str, str, int, int]]:
        for raw_from, raw_to, raw_weight in _csv_rows(source, EDGE_HEADER, refused):
            from_key, to_key = raw_from.strip(), raw_to.strip()
            if not from_key or not to_key:
                refused.append("blank key")
                continue
            pair = weights.get(raw_weight)
            if pair is None:
                try:
                    pair = n, d = _parse_ratio(raw_weight)
                except ValueError as exc:
                    refused.append(str(exc))
                    continue
                # The denominator is positive, so 0 < n/d <= 1 iff 0 < n <= d.
                if not 0 < n <= d:
                    refused.append(f"weight must be in (0, 1], got {_for_message(Fraction(n, d))}")
                    continue
                weights[raw_weight] = pair
            yield from_key, to_key, *pair

    return EdgeListDraft._from_rows(_rows_of(edges()))


def write_edge_list(crossmap: Crossmap) -> str:
    """Canonical edge-list CSV: sorted rows, weights as exact ``p/q`` text."""
    # Read from the rows, with no Edge or Fraction built.
    return _key_value_text(
        EDGE_HEADER,
        (
            (f"{head},{_quoted(target)}", (n, d))
            for head, row in ((_quoted(source), row) for source, row in crossmap._rows.items())
            for target, n, d in row
        ),
    )


def read_array(source: str | Path | TextIO | BinaryIO) -> MassArray:
    """Read a ``key,value`` CSV; ``NA`` becomes an explicit missing marker.

    Duplicate keys are parse errors — two rows claiming the same key means
    the file's provenance is already broken.  Each value is parsed straight
    to its integer pair, with no ``Fraction`` built.
    """
    refused: list[str] = []
    pairs: _Pairs = {}
    for raw_key, raw_value in _csv_rows(source, ARRAY_HEADER, refused):
        key = raw_key.strip()
        if not key:
            refused.append("blank key")
            continue
        if key in pairs:
            refused.append(f"duplicate key {key!r}")
            continue
        if raw_value == MISSING_MARKER:
            pairs[key] = None
            continue
        try:
            pairs[key] = _parse_ratio(raw_value)
        except ValueError as exc:
            refused.append(str(exc))
    return MassArray._from_pairs(_in_key_order(pairs))


def write_array(array: MassArray) -> str:
    """Canonical array CSV: sorted keys, exact values, ``NA`` for missing."""
    return _key_value_text(ARRAY_HEADER, ((_quoted(key), pair) for key, pair in array._pairs.items()))


def read_crosswalk(source: str | Path | TextIO | BinaryIO) -> tuple[tuple[str, str], ...]:
    """Read a two-column ``from,to`` lookup table; duplicate pairs are errors."""
    refused: list[str] = []
    # Insertion-ordered, so the pairs come back in file order.
    pairs: dict[tuple[str, str], None] = {}
    for raw_from, raw_to in _csv_rows(source, CROSSWALK_HEADER, refused):
        pair = (raw_from.strip(), raw_to.strip())
        if not pair[0] or not pair[1]:
            refused.append("blank key")
            continue
        if pair in pairs:
            refused.append(f"duplicate pair ({pair[0]}, {pair[1]})")
            continue
        pairs[pair] = None
    return tuple(pairs)


def write_crosswalk(pairs: Iterable[tuple[str, str]]) -> str:
    """Canonical crosswalk CSV, sorted by (from, to), that :func:`read_crosswalk` reads back as the cleaned pairs.

    Each key passes :func:`clean_key`, so a key that is not ``str`` is a
    ``TypeError``, and a blank key or one holding ``\\r`` or NUL a
    ``ValueError``; a pair that repeats after trimming is a ``ValueError``
    too.  Each error names the pair and is raised before any text is built.
    """
    cleaned: set[tuple[str, str]] = set()
    for pair in pairs:
        try:
            from_key, to_key = pair
            key = (clean_key(from_key), clean_key(to_key))
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"pair {pair!r}: {exc}") from None
        if key in cleaned:
            raise ValueError(f"pair {pair!r}: duplicate pair {key!r}")
        cleaned.add(key)
    lines = [",".join(CROSSWALK_HEADER), *(f"{_quoted(s)},{_quoted(t)}" for s, t in sorted(cleaned)), ""]
    return "\n".join(lines)


def import_crosswalk(
    source: str | Path | TextIO | BinaryIO,
    split_policy: SplitPolicy = "reject_splits",
) -> tuple[Crossmap | None, ValidationReport]:
    """Turn an unweighted lookup table into a crossmap.

    A two-column table can only express one-to-one and many-to-one
    relations unambiguously: a source with several targets carries no
    weights.  Under ``reject_splits`` each such source is an error; under
    ``equal_split`` every one of its k targets gets weight 1/k, flagged
    with a warning so the imputation is reviewed rather than overlooked.
    Returns the crossmap (when importable) together with the report
    carrying any split errors or imputation warnings.  Any other policy is
    a ``ValueError``, raised before the source is read.
    """
    _check_policy("split_policy", split_policy, get_args(SplitPolicy))
    pairs = read_crosswalk(source)
    fan_out: dict[str, int] = {}
    for from_key, _ in pairs:
        fan_out[from_key] = fan_out.get(from_key, 0) + 1
    findings: list[Finding] = []
    for from_key in sorted(fan_out):
        count = fan_out[from_key]
        if count == 1:
            continue
        if split_policy == "reject_splits":
            findings.append(
                Finding(
                    severity="error",
                    code="split_source",
                    subject=from_key,
                    message=(
                        f"source {from_key!r} maps to {count} targets; a plain "
                        "crosswalk carries no weights for splits"
                    ),
                )
            )
            continue
        share = Fraction(1, count)
        findings.append(
            Finding(
                severity="warning",
                code="equal_split_imputed",
                subject=from_key,
                message=(
                    f"source {from_key!r} split equally across {count} targets "
                    f"(weight {render_rational(share)} each): imputed equal split - review"
                ),
                value=share,
            )
        )
    report = ValidationReport(tuple(findings))
    if not report.ok:
        return None, report
    return Crossmap._from_rows(_rows_of((s, t, 1, fan_out[s]) for s, t in pairs)), report


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
    rows = crossmap._rows
    # Read from the rows and the cached partition, with no Edge built; each
    # distinct fractional weight's label is rendered once.
    labels: dict[tuple[int, int], str] = {}
    lines = [
        "digraph crossmap {",
        "  rankdir=LR;",
        "  node [shape=box];",
    ]
    for index, (sources, targets, _) in enumerate(crossmap._components):
        lines.append(f"  subgraph cluster_{index} {{")
        for key in sources:
            lines.append(f"    {_dot_quote('src:' + key)} [label={_dot_quote(key)}];")
        for key in targets:
            lines.append(f"    {_dot_quote('tgt:' + key)} [label={_dot_quote(key)}];")
        source_rank = " ".join(f"{_dot_quote('src:' + k)};" for k in sources)
        target_rank = " ".join(f"{_dot_quote('tgt:' + k)};" for k in targets)
        lines.append(f"    {{ rank=same; {source_rank} }}")
        lines.append(f"    {{ rank=same; {target_rank} }}")
        for source in sources:
            tail = f"    {_dot_quote('src:' + source)} -> "
            for target, n, d in rows[source]:
                head = tail + _dot_quote("tgt:" + target)
                # Reduced, so the weight is 1 iff n == d.
                if n != d:
                    label = labels.get((n, d))
                    if label is None:
                        label = labels[n, d] = _dot_quote(_render_ratio(n, d))
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
