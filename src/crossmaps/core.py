"""Core domain types: keys, exact weights, edges, crossmaps, mass arrays.

A crossmap is a weighted relation between a source and a target key set in
which the outgoing weights of every source key sum to exactly 1.  Applying
it to a key-indexed array of numeric mass redistributes the total without
creating or destroying any of it.  Everything here is exact: weights and
masses are rationals, never floats, so "sums to 1" and "totals are equal"
are plain equalities rather than tolerance checks.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Literal

__all__ = [
    "Crossmap",
    "CrossmapError",
    "Edge",
    "EdgeListDraft",
    "Finding",
    "InvalidCrossmapError",
    "MassArray",
    "Severity",
    "ValidationReport",
    "build_crossmap",
    "clean_key",
    "identity_crossmap",
    "parse_rational",
    "render_rational",
    "validate_draft",
]

ONE = Fraction(1)
ZERO = Fraction(0)

Severity = Literal["error", "warning"]


class CrossmapError(Exception):
    """Base class for errors raised by this package."""


class InvalidCrossmapError(CrossmapError, ValueError):
    """Edges that break a crossmap condition; ``report`` holds every finding."""

    def __init__(self, report: ValidationReport):
        self.report = report
        details = "; ".join(f.message for f in report.errors[:3])
        super().__init__(f"invalid crossmap: {details}")


# Accepted weight/mass tokens: "p/q", a base-10 decimal, or an integer.
# Deliberately narrower than Fraction's own parser: no exponents, no
# underscores, no whitespace inside the token.
_RATIONAL_TOKEN = re.compile(
    r"""\A
        (?P<sign>[-+]?)
        (?:
            (?P<num>\d+)\s*/\s*(?P<den>\d+)     # p/q
          | (?P<int>\d+)(?:\.(?P<frac>\d*))?    # 123 or 123.45 or 123.
          | \.(?P<onlyfrac>\d+)                 # .5
        )
    \Z""",
    re.VERBOSE,
)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, a base-10 decimal, or an integer into an exact value.

    Decimals are read digit-by-digit in base 10, so ``"0.1"`` becomes
    exactly 1/10 and never the binary double closest to 0.1.
    """
    token = text.strip()
    m = _RATIONAL_TOKEN.match(token)
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("den") is not None:
        den = int(m.group("den"))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(sign * int(m.group("num")), den)
    if m.group("onlyfrac") is not None:
        digits = m.group("onlyfrac")
        return Fraction(sign * int(digits), 10 ** len(digits))
    whole = int(m.group("int"))
    frac = m.group("frac") or ""
    value = Fraction(whole * 10 ** len(frac) + (int(frac) if frac else 0), 10 ** len(frac))
    return sign * value


def render_rational(value: Fraction) -> str:
    """Canonical text for an exact value: ``p/q``, or just ``p`` for integers."""
    return str(value)


def clean_key(text: str) -> str:
    """Strip surrounding whitespace and reject empty keys.

    Keys are otherwise opaque and compared by exact byte equality; any
    normalisation beyond trimming is the caller's concern.
    """
    key = text.strip()
    if not key:
        raise ValueError("key is empty after trimming whitespace")
    return key


def _check_weight_type(weight: Fraction) -> Fraction:
    # Floats sneak inexactness into every downstream equality, and bool is an
    # int subclass the int branch would read as 1; refuse both rather than
    # guessing what the caller meant.
    if isinstance(weight, (float, bool)):
        raise TypeError(f"weights must be Fraction or int, not {type(weight).__name__}; parse text with parse_rational")
    if isinstance(weight, int):
        return Fraction(weight)
    if not isinstance(weight, Fraction):
        raise TypeError(f"weights must be Fraction or int, got {type(weight).__name__}")
    return weight


@dataclass(frozen=True)
class Edge:
    """One weighted link: ``source`` distributes ``weight`` of its value to ``target``.

    The weight range (0, 1] is deliberately not enforced here: drafts may
    carry out-of-range weights so that validation can report them instead
    of construction refusing to represent them.
    """

    source: str
    target: str
    weight: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", clean_key(self.source))
        object.__setattr__(self, "target", clean_key(self.target))
        object.__setattr__(self, "weight", _check_weight_type(self.weight))


@dataclass(frozen=True)
class EdgeListDraft:
    """Unvalidated edge list, the staging form for crossmap construction."""

    edges: tuple[Edge, ...]

    def __init__(self, edges: Iterable[Edge]) -> None:
        object.__setattr__(self, "edges", tuple(edges))


@dataclass(frozen=True)
class Finding:
    """One validation observation; ``value`` carries the offending exact sum or weight."""

    severity: Severity
    code: str
    subject: str
    message: str
    value: Fraction | None = None

    def to_json_dict(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "subject": self.subject,
            "message": self.message,
            "value": None if self.value is None else render_rational(self.value),
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a draft or derived structure; ok iff no error findings."""

    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "findings": [f.to_json_dict() for f in self.findings]}


@dataclass(frozen=True)
class Crossmap:
    """Validated mass-preserving mapping between two key sets.

    Edges are canonically sorted by (source, target); ``sources`` and
    ``targets`` are the sorted key sets actually appearing on each side.
    Two crossmaps built from the same edges in any order compare equal.
    """

    edges: tuple[Edge, ...]

    def __init__(self, edges: Iterable[Edge]) -> None:
        object.__setattr__(self, "edges", tuple(sorted(edges, key=lambda e: (e.source, e.target))))
        report = _validate_edges(self.edges)
        if not report.ok:
            raise InvalidCrossmapError(report)

    @cached_property
    def sources(self) -> tuple[str, ...]:
        return tuple(self.outgoing)

    @cached_property
    def targets(self) -> tuple[str, ...]:
        return tuple(sorted({e.target for e in self.edges}))

    @cached_property
    def outgoing(self) -> Mapping[str, tuple[Edge, ...]]:
        """Edges grouped by source key, in canonical order."""
        return {s: tuple(es) for s, es in groupby(self.edges, key=lambda e: e.source)}

    @cached_property
    def split_sources(self) -> tuple[str, ...]:
        """Source keys with more than one outgoing edge (value is divided)."""
        return tuple(s for s, es in self.outgoing.items() if len(es) > 1)

    @cached_property
    def _components(self) -> tuple:
        # Cached like ``outgoing``; graph.components is the documented accessor.
        from .graph import _find_components
        return _find_components(self)

    def __len__(self) -> int:
        return len(self.edges)


class MassArray(Mapping):
    """Associative array of key -> exact mass, with an explicit missing marker.

    A value of ``None`` records a mass that was missing (``NA``) in the
    source file; validation reports it and the transform refuses it.
    Entries are stored in sorted key order, so equal contents compare and
    serialise identically regardless of input order.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Fraction | int | None] | Iterable[tuple[str, Fraction | int | None]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        cleaned: dict[str, Fraction | None] = {}
        for raw_key, raw_value in items:
            key = clean_key(raw_key)
            if key in cleaned:
                raise ValueError(f"duplicate key {key!r}")
            cleaned[key] = None if raw_value is None else _check_weight_type(raw_value)
        object.__setattr__(self, "_entries", dict(sorted(cleaned.items())))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MassArray is immutable")

    def __getitem__(self, key: str) -> Fraction | None:
        return self._entries[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in self._entries.items())
        return f"MassArray({{{inner}}})"

    @property
    def total(self) -> Fraction:
        """Exact sum of all present masses; missing entries contribute nothing."""
        return sum((v for v in self._entries.values() if v is not None), ZERO)

    def missing_keys(self) -> tuple[str, ...]:
        return tuple(k for k, v in self._entries.items() if v is None)


def _validate_edges(edges: tuple[Edge, ...]) -> ValidationReport:
    findings: list[Finding] = []
    if not edges:
        findings.append(
            Finding(
                severity="error",
                code="no_edges",
                subject="<map>",
                message="a crossmap needs at least one edge",
            )
        )
    seen: set[tuple[str, str]] = set()
    sums: dict[str, Fraction] = {}
    for edge in edges:
        pair = (edge.source, edge.target)
        if pair in seen:
            findings.append(
                Finding(
                    severity="error",
                    code="duplicate_edge",
                    subject=f"{edge.source}->{edge.target}",
                    message=f"duplicate edge ({edge.source}, {edge.target})",
                )
            )
        seen.add(pair)
        if not ZERO < edge.weight <= ONE:
            findings.append(
                Finding(
                    severity="error",
                    code="weight_out_of_range",
                    subject=f"{edge.source}->{edge.target}",
                    message=f"weight {render_rational(edge.weight)} outside (0, 1]",
                    value=edge.weight,
                )
            )
        sums[edge.source] = sums.get(edge.source, ZERO) + edge.weight
    for source in sorted(sums):
        total = sums[source]
        if total != ONE:
            findings.append(
                Finding(
                    severity="error",
                    code="weight_sum_not_one",
                    subject=source,
                    message=(
                        f"outgoing weights of source {source!r} sum to "
                        f"{render_rational(total)}, expected exactly 1"
                    ),
                    value=total,
                )
            )
    return ValidationReport(tuple(findings))


def validate_draft(draft: EdgeListDraft) -> ValidationReport:
    """Check every crossmap condition on a draft, reporting all violations.

    Never raises for data problems: a bad weight sum, a duplicate pair and
    an out-of-range weight each become a finding, so one pass surfaces the
    complete repair list.
    """
    return _validate_edges(tuple(sorted(draft.edges, key=lambda e: (e.source, e.target))))


def build_crossmap(draft: EdgeListDraft) -> Crossmap | ValidationReport:
    """Validate a draft and return the canonical crossmap, or the full report.

    The result is independent of the draft's edge order.
    """
    try:
        return Crossmap(draft.edges)
    except InvalidCrossmapError as exc:
        return exc.report


def identity_crossmap(keys: Iterable[str]) -> Crossmap:
    """One unit-weight edge ``k -> k`` per key; applying it changes nothing."""
    cleaned = [clean_key(k) for k in keys]
    if not cleaned:
        raise ValueError("identity crossmap needs at least one key")
    return Crossmap(Edge(k, k, ONE) for k in dict.fromkeys(cleaned))
