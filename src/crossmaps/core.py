"""Core domain types: keys, exact weights, edges, crossmaps, mass arrays.

A crossmap is a weighted relation between a source and a target key set in
which the outgoing weights of every source key sum to exactly 1.  Applying
it to a key-indexed array of numeric mass redistributes the total without
creating or destroying any of it.  Everything here is exact: weights and
masses are rationals, never floats, so "sums to 1" and "totals are equal"
are plain equalities rather than tolerance checks.

All types are immutable after construction and safe to share across
threads.  The value types are plain slotted classes on one private base,
``_Record``, so loading a module generates no method and loads no
``inspect``, which every command-line run would pay for.  To change a
field, call the constructor with the new value.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Iterator, Mapping, ValuesView
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import gcd
from operator import attrgetter
from sys import get_int_max_str_digits
from typing import Hashable, Literal, TypeVar

__all__ = [
    "Crossmap",
    "CrossmapError",
    "Edge",
    "EdgeListDraft",
    "Finding",
    "InvalidCrossmapError",
    "MassArray",
    "ProbeError",
    "Severity",
    "ValidationReport",
    "ValueTooLongError",
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

K = TypeVar("K", bound=Hashable)


class _Record:
    """Field-wise equality, hash, repr and ``__match_args__``; assignment and deletion raise ``AttributeError``.

    Each subclass declares ``__slots__ = _fields = (...)`` and an ``__init__``
    taking those fields in order, which sets them with ``object.__setattr__``.
    Only instances of one class compare equal.  Pickling and copying call the
    class on the field values, so the constructor's checks run again.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class CrossmapError(Exception):
    """Base class for errors raised by this package.

    ``to_json_dict`` is the failure's JSON document; by default its
    ``"error"`` key is the subclass's ``error`` attribute.
    """

    error: str

    def to_json_dict(self) -> dict:
        return {"error": self.error, "message": str(self)}


class InvalidCrossmapError(CrossmapError, ValueError):
    """Edges that break a crossmap condition; ``report`` holds every finding, ``subject`` names the input."""

    def __init__(self, report: ValidationReport, subject: str | None = None):
        self.report = report
        self.subject = subject
        details = "; ".join(f.message for f in report.errors[:3])
        super().__init__(f"invalid crossmap: {details}")

    def to_json_dict(self) -> dict:
        out = {"error": "validation", **self.report.to_json_dict()}
        if self.subject is not None:
            out["subject"] = self.subject
        return out


class ValueTooLongError(CrossmapError, ValueError):
    """An exact value with too many digits to render as text."""

    error = "too_long"


class ProbeError(CrossmapError):
    """A probe failed: process error, unparsable output, or nondeterminism."""

    error = "probe"


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, a base-10 decimal, or an integer into an exact value.

    Accepted, after trimming surrounding whitespace: an optional sign, then
    ``p/q`` (whitespace allowed around the ``/``), ``123``, ``123.45``,
    ``123.`` or ``.5``, with Unicode decimal digits.  Deliberately narrower
    than Fraction's own parser: no exponents, no underscores, no whitespace
    elsewhere inside the token.  Decimals are read digit-by-digit in base
    10, so ``"0.1"`` becomes exactly 1/10 and never the binary double
    closest to 0.1.
    """
    token = text.strip()
    sign = -1 if token[:1] == "-" else 1
    if token[:1] in ("+", "-"):
        token = token[1:]
    num, slash, den = token.partition("/")
    if slash:
        num, den = num.rstrip(), den.lstrip()
        if not (num.isdecimal() and den.isdecimal()):
            raise ValueError(f"malformed rational {text!r}")
        q = int(den)
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(sign * int(num), q)
    whole, _, frac = token.partition(".")
    # Both parts may be empty, but not together: "123", "123.", ".5".
    if not (whole + frac).isdecimal():
        raise ValueError(f"malformed rational {text!r}")
    if not frac:
        return Fraction(sign * int(whole))
    scale = 10 ** len(frac)
    units = int(whole) * scale if whole else 0
    return Fraction(sign * (units + int(frac)), scale)


def render_rational(value: Fraction) -> str:
    """Canonical text for an exact value: ``p/q``, or just ``p`` for integers.

    A numerator or denominator over ``sys.get_int_max_str_digits()`` digits
    raises :class:`ValueTooLongError`; the limit stops ``str`` going quadratic.
    """
    try:
        return str(value)
    except ValueError:
        limit = get_int_max_str_digits()
        raise ValueTooLongError(f"exact value has a numerator or denominator over {limit} digits") from None


def _exact_pairs(terms: Iterable[tuple[K, int, int]]) -> dict[K, list[int]]:
    """Exact sum per key of the terms ``(key, numerator, denominator)``, denominators positive.

    Each key keeps one integer numerator over a running common denominator,
    which only ever grows to the lcm of its term denominators: a term whose
    denominator divides it is scaled up to it, any other term rescales the
    sum to the lcm.  The sums come back as unreduced ``[numerator,
    denominator]`` pairs, with no ``Fraction`` object and no gcd per term;
    the denominator stays positive.  Keys keep first-seen order.
    """
    acc: dict[K, list[int]] = {}
    for key, n, d in terms:
        pair = acc.get(key)
        if pair is None:
            acc[key] = [n, d]
            continue
        common = pair[1]
        g = gcd(common, d)
        if g == d:
            pair[0] += n * (common // d)
        elif g == 1:
            pair[0] = pair[0] * d + n * common
            pair[1] = common * d
        else:
            pair[0] = pair[0] * (d // g) + n * (common // g)
            pair[1] = common // g * d
    return acc


def _exact_sums(terms: Iterable[tuple[K, int, int]]) -> dict[K, Fraction]:
    """:func:`_exact_pairs` reduced once per key: the canonical ``Fraction`` sums."""
    return {key: Fraction(n, d) for key, (n, d) in _exact_pairs(terms).items()}


def _exact_total(values: Iterable[Fraction]) -> Fraction:
    """Exact sum of the values, through :func:`_exact_sums`; 0 when there are none."""
    return _exact_sums((None, *v.as_integer_ratio()) for v in values).get(None, ZERO)


def clean_key(text: str) -> str:
    """Strip surrounding whitespace and reject empty keys and keys holding ``\\r``.

    Keys are otherwise opaque and compared by exact byte equality; any
    normalisation beyond trimming is the caller's concern.  A carriage
    return is refused because no CSV file can carry it back: text-mode
    reading turns it into ``\\n``.
    """
    key = text.strip()
    if not key:
        raise ValueError("key is empty after trimming whitespace")
    if "\r" in key:
        raise ValueError(f"key {key!r} contains a carriage return")
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


class Edge(_Record):
    """One weighted link: ``source`` distributes ``weight`` of its value to ``target``.

    The weight range (0, 1] is deliberately not enforced here: drafts may
    carry out-of-range weights so that validation can report them instead
    of construction refusing to represent them.
    """

    __slots__ = _fields = ("source", "target", "weight")

    def __init__(self, source: str, target: str, weight: Fraction) -> None:
        _set_source(self, clean_key(source))
        _set_target(self, clean_key(target))
        _set_weight(self, _check_weight_type(weight))

    @classmethod
    def _from_clean(cls, source: str, target: str, weight: Fraction) -> Edge:
        # For keys the caller already stripped and found non-empty and a
        # weight that is already a Fraction.  Sets the fields, checks nothing.
        edge = object.__new__(cls)
        _set_source(edge, source)
        _set_target(edge, target)
        _set_weight(edge, weight)
        return edge


# The slot descriptors' own setters: _Record blocks plain assignment, and
# these skip the generic object.__setattr__ lookup on the hot trusted path.
_set_source, _set_target, _set_weight = (Edge.__dict__[name].__set__ for name in ("source", "target", "weight"))

_EDGE_ORDER = attrgetter("source", "target")
_EDGE_SOURCE = attrgetter("source")


class EdgeListDraft(_Record):
    """Unvalidated edge list, the staging form for crossmap construction."""

    __slots__ = _fields = ("edges",)

    def __init__(self, edges: Iterable[Edge]) -> None:
        object.__setattr__(self, "edges", tuple(edges))


class Finding(_Record):
    """One validation observation; ``value`` carries the offending exact sum or weight."""

    __slots__ = _fields = ("severity", "code", "subject", "message", "value")

    def __init__(
        self, severity: Severity, code: str, subject: str, message: str, value: Fraction | None = None
    ) -> None:
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "value", value)

    def to_json_dict(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "subject": self.subject,
            "message": self.message,
            "value": None if self.value is None else render_rational(self.value),
        }


class ValidationReport(_Record):
    """Outcome of checking a draft or derived structure; ok iff no error findings."""

    __slots__ = _fields = ("findings",)

    def __init__(self, findings: tuple[Finding, ...]) -> None:
        object.__setattr__(self, "findings", findings)

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


class Crossmap(_Record):
    """Validated mass-preserving mapping between two key sets.

    Edges are canonically sorted by (source, target); ``sources`` and
    ``targets`` are the sorted key sets actually appearing on each side.
    Two crossmaps built from the same edges in any order compare equal.
    """

    # The instance dict holds only the cached views.
    _fields = ("edges",)
    __slots__ = ("edges", "__dict__")

    def __init__(self, edges: Iterable[Edge]) -> None:
        object.__setattr__(self, "edges", tuple(sorted(edges, key=_EDGE_ORDER)))
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
        return {s: tuple(es) for s, es in groupby(self.edges, key=_EDGE_SOURCE)}

    @cached_property
    def incoming(self) -> Mapping[str, tuple[str, ...]]:
        """Source keys grouped by target key, both in canonical order."""
        grouped: dict[str, list[str]] = {t: [] for t in self.targets}
        # Edges are sorted by source, so each list fills in sorted order.
        for e in self.edges:
            grouped[e.target].append(e.source)
        return {t: tuple(sources) for t, sources in grouped.items()}

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

    __slots__ = _fields = ("_entries",)
    # A record's pickling, copying and immutability; equality stays the Mapping's.
    _values = _Record._values
    __reduce__ = _Record.__reduce__
    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def __init__(self, entries: Mapping[str, Fraction | int | None] | Iterable[tuple[str, Fraction | int | None]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        cleaned: dict[str, Fraction | None] = {}
        for raw_key, raw_value in items:
            key = clean_key(raw_key)
            if key in cleaned:
                raise ValueError(f"duplicate key {key!r}")
            cleaned[key] = None if raw_value is None else _check_weight_type(raw_value)
        object.__setattr__(self, "_entries", dict(sorted(cleaned.items())))

    @classmethod
    def _from_clean(cls, entries: dict[str, Fraction | None]) -> MassArray:
        # For entries the library built or already checked: keys stripped,
        # non-empty and unique, values Fraction or None.  Only sorts them.
        array = cls.__new__(cls)
        object.__setattr__(array, "_entries", dict(sorted(entries.items())))
        return array

    def __getitem__(self, key: str) -> Fraction | None:
        return self._entries[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # The backing dict's read-only views, instead of the Mapping mixins that
    # call __iter__ and __getitem__ once per entry.
    def items(self) -> ItemsView[str, Fraction | None]:
        return self._entries.items()

    def values(self) -> ValuesView[Fraction | None]:
        return self._entries.values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in self._entries.items())
        return f"MassArray({{{inner}}})"

    @property
    def total(self) -> Fraction:
        """Exact sum of all present masses; missing entries contribute nothing."""
        # `if v` skips missing entries and zeros alike: neither adds to the sum.
        return _exact_total(v for v in self._entries.values() if v)

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
    # The edges come sorted by (source, target), so a duplicate pair always
    # directly follows its twin.
    previous_source = previous_target = None
    terms: list[tuple[str, int, int]] = []
    for edge in edges:
        if edge.target == previous_target and edge.source == previous_source:
            findings.append(
                Finding(
                    severity="error",
                    code="duplicate_edge",
                    subject=f"{edge.source}->{edge.target}",
                    message=f"duplicate edge ({edge.source}, {edge.target})",
                )
            )
        previous_source, previous_target = edge.source, edge.target
        n, d = edge.weight.as_integer_ratio()
        terms.append((edge.source, n, d))
        # Fraction denominators are positive, so 0 < n/d <= 1 iff 0 < n <= d.
        if not 0 < n <= d:
            findings.append(
                Finding(
                    severity="error",
                    code="weight_out_of_range",
                    subject=f"{edge.source}->{edge.target}",
                    message=f"weight {render_rational(edge.weight)} outside (0, 1]",
                    value=edge.weight,
                )
            )
    sums = _exact_pairs(terms)
    for source in sorted(sums):
        n, d = sums[source]
        # Unreduced, but with d > 0 the sum is 1 iff n == d; only a failing
        # sum needs its reduced Fraction, for the finding.
        if n != d:
            total = Fraction(n, d)
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
    return _validate_edges(tuple(sorted(draft.edges, key=_EDGE_ORDER)))


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
    return Crossmap(Edge._from_clean(k, k, ONE) for k in dict.fromkeys(cleaned))
