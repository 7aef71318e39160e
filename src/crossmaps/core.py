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
from functools import cache, cached_property
from math import gcd
from operator import itemgetter
from sys import get_int_max_str_digits
from typing import Hashable, Literal, NoReturn, TypeVar, get_args

from . import _EXPORTS

__all__ = _EXPORTS["core"]

ONE = Fraction(1)
ZERO = Fraction(0)

Severity = Literal["error", "warning"]
_SEVERITIES: tuple[str, ...] = get_args(Severity)

K = TypeVar("K", bound=Hashable)

# The row contract, stated only here: ``EdgeListDraft._rows`` maps each source, in sorted order,
# to a non-empty row of (target, n, d) triples sorted by target, each weight the reduced n/d
# with d > 0.  A draft's rows may repeat a pair, in input order, and hold weights outside (0, 1].
# ``_from_rows`` trusts its caller for this layout and validates only the crossmap conditions.
# Beside core, algebra, cli, datasets, extraction, formats, graph, transform and validation read it;
# formats.export_dot and `crossmap classify` render from it and the cached partition, with no Edge built.
_Row = tuple[tuple[str, int, int], ...]
_Rows = dict[str, _Row]
# The array layout, stated only here: ``MassArray._pairs`` maps each key, in sorted order, to its
# mass as the reduced pair (n, d) with d > 0, or to None for a missing mass (NA).  ``_from_pairs``
# trusts its caller for this layout.  Extraction, formats, transform and validation read it.
_Pairs = dict[str, tuple[int, int] | None]


class _Record:
    """Field-wise equality, hash, repr and ``__match_args__``; assignment and deletion raise ``AttributeError``.

    Each subclass declares ``__slots__ = _fields = (...)``, and the one
    constructor binds its arguments to those fields as a function would:
    positional arguments in field order, then keywords.  ``_defaults`` fills
    the trailing fields left unbound, as ``namedtuple``'s does.  Each field
    named in ``_exact`` passes :func:`_check_weight_type` (a ``Fraction``
    passes as it is): an ``int`` becomes a ``Fraction``, a float or ``bool``
    is a ``TypeError``, and ``None`` is kept only where it is the field's
    default.  A wrong call is a ``TypeError`` naming the class and its
    fields.  A class writes its own ``__init__`` only to convert or check
    its input, and then calls this one or sets every field itself.  Only
    instances of one class compare equal.  Pickling and copying call the
    class on the field values, so the constructor's checks run again.

    A record whose JSON document is its fields sets ``to_json_dict =
    _Record._json_dict``: a key per field, in field order, where a ``Fraction``
    becomes :func:`render_rational` text, a tuple a list, a dict a copy, and
    any other value (``bool``, ``int``, ``str``, ``None``) stays as it is.
    Its exact fields hold ``Fraction``s, so equal records render equal documents.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _defaults: tuple = ()
    _exact: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields, exact = self._fields, self._exact
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            if name in exact and type(value) is not Fraction:
                value = self._exact_value(name, value)
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        fields, defaults = self._fields, self._defaults
        if len(args) > len(fields):
            self._refuse_call(f"{len(args)} positional arguments given")
        values, first_default = list(args), len(fields) - len(defaults)
        for index in range(len(args), len(fields)):
            name = fields[index]
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif index >= first_default:
                values.append(defaults[index - first_default])
            else:
                self._refuse_call(f"no value for {name!r}")
        for name in kwargs:
            self._refuse_call(f"{name!r} given twice" if name in fields else f"no field {name!r}")
        return values

    def _exact_value(self, name: str, value: object) -> Fraction | None:
        # None stays only in a field whose default is None.
        if value is None and dict(zip(self._fields[::-1], self._defaults[::-1])).get(name, ...) is None:
            return None
        return _check_weight_type(value)

    def _refuse_call(self, problem: str) -> NoReturn:
        raise TypeError(f"{type(self).__name__}({', '.join(self._fields)}): {problem}")

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

    def _json_dict(self) -> dict:
        document = {}
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Fraction):
                value = render_rational(value)
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            document[name] = value
        return document

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class CrossmapError(Exception):
    """Base class for errors raised by this package.

    ``_fields`` names the constructor's parameters in order, each stored under
    its name: by default the ``message`` raised with.  Pickling and copying call
    the class on them.  ``to_json_dict``, the failure's JSON document, is
    ``"error"`` (the ``error`` attribute), then each field not ``None`` as
    :meth:`_Record._json_dict` renders it, unless the subclass writes its own.
    ``exit_code`` is the status the command line exits with after writing it.
    """

    error: str
    exit_code = 1
    _fields: tuple[str, ...] = ("message",)
    _values = _Record._values
    __reduce__ = _Record.__reduce__

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def to_json_dict(self) -> dict:
        fields = _Record._json_dict(self).items()
        return {"error": self.error, **{name: value for name, value in fields if value is not None}}


class InvalidCrossmapError(CrossmapError, ValueError):
    """Edges that break a crossmap condition; ``report`` holds every finding, ``subject`` names the input."""

    _fields = ("report", "subject")

    def __init__(self, report: ValidationReport, subject: str | None = None):
        self.report = report
        self.subject = subject
        details = "; ".join(f.message for f in report.errors[:3])
        super().__init__(f"invalid crossmap: {details}")

    def to_json_dict(self) -> dict:
        subject = {} if self.subject is None else {"subject": self.subject}
        return {"error": "validation", **self.report.to_json_dict(), **subject}


class ValueTooLongError(CrossmapError, ValueError):
    """An exact value with too many digits to render as text."""

    error = "too_long"


class ProbeError(CrossmapError):
    """A probe failed: process error, unparsable output, or nondeterminism."""

    error = "probe"
    exit_code = 3


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
    return Fraction(*_parse_ratio(text))


def _parse_ratio(text: str) -> tuple[int, int]:
    """:func:`parse_rational`'s value as the reduced pair ``(n, d)``, ``d`` positive, with no ``Fraction`` built."""
    num, slash, den = text.partition("/")
    if slash and num.isdecimal() and den.isdecimal():
        # Bare "digits/digits", the form every writer emits: no sign or space
        # to trim.  The denominator is read first, as below, so an over-limit
        # token raises the same error; a zero one takes the path below.
        d = int(den)
        if d:
            n = int(num)
            g = gcd(n, d)
            return n // g, d // g
    token = text.strip()
    sign = -1 if token[:1] == "-" else 1
    if token[:1] in ("+", "-"):
        token = token[1:]
    num, slash, den = token.partition("/")
    if slash:
        num, den = num.rstrip(), den.lstrip()
        if not (num.isdecimal() and den.isdecimal()):
            raise ValueError(f"malformed rational {text!r}")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        n = int(num)
    else:
        whole, _, frac = token.partition(".")
        # Both parts may be empty, but not together: "123", "123.", ".5".
        if not (whole + frac).isdecimal():
            raise ValueError(f"malformed rational {text!r}")
        if not frac:
            return sign * int(whole), 1
        d = 10 ** len(frac)
        n = (int(whole) * d if whole else 0) + int(frac)
    g = gcd(n, d)
    return sign * (n // g), d // g


def render_rational(value: Fraction) -> str:
    """Canonical text for an exact value: ``p/q``, or just ``p`` for integers.

    A numerator or denominator over ``sys.get_int_max_str_digits()`` digits
    raises :class:`ValueTooLongError`; the limit stops ``str`` going quadratic.
    """
    return _render_ratio(value.numerator, value.denominator)


def _render_ratio(n: int, d: int) -> str:
    """:func:`render_rational` of the reduced pair ``n/d``, ``d`` positive, with no ``Fraction`` built."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        raise _too_long() from None


def _too_long() -> ValueTooLongError:
    """The error for a value whose ``str`` raised ``ValueError``: a part over ``sys.get_int_max_str_digits()`` digits."""
    return ValueTooLongError(f"exact value has a numerator or denominator over {get_int_max_str_digits()} digits")


def _for_message(value: Fraction) -> str:
    """An exact value as message text: :func:`render_rational`'s, or its size in bits when too long for that."""
    try:
        return render_rational(value)
    except ValueTooLongError:
        n, d = value.as_integer_ratio()
        return f"too long to render: a {n.bit_length()}-bit numerator over a {d.bit_length()}-bit denominator"


def _exact_pairs(rows: Iterable[tuple[Iterable[tuple[K, int, int]], int, int]]) -> dict[K, list[int]]:
    """Exact sum per key of every row's terms, each term ``(key, n, d)`` of a row ``(terms, p, q)`` scaled by ``p/q``.

    All denominators are positive.  Each key keeps one integer numerator
    over a running common denominator, which only ever grows to the lcm of
    its term denominators: a term whose denominator divides it is scaled up
    to it, any other term rescales the sum to the lcm.  The sums come back
    as unreduced ``[numerator, denominator]`` pairs, with no ``Fraction``
    object and no reduction per term; the denominator stays positive.  Keys
    keep first-seen order.  ``apply_transform`` passes its covered entries,
    each a source's row and mass, as the rows: the loop is its kernel.
    """
    acc: dict[K, list[int]] = {}
    for terms, p, q in rows:
        for key, n, d in terms:
            n *= p
            d *= q
            pair = acc.get(key)
            if pair is None:
                acc[key] = [n, d]
                continue
            common = pair[1]
            g = gcd(common, d)
            if g == d:
                pair[0] += n * (common // d)
            else:
                pair[0] = pair[0] * (d // g) + n * (common // g)
                pair[1] = common // g * d
    return acc


def _add_ratio(n: int, d: int, m: int, e: int) -> tuple[int, int]:
    """``n/d + m/e`` as an unreduced pair over the lcm of the positive denominators ``d`` and ``e``.

    The same step as :func:`_exact_pairs`'s, which writes it out inline
    because it is ``apply_transform``'s per-term kernel.
    """
    g = gcd(d, e)
    if g == e:
        return n + m * (d // e), d
    return n * (e // g) + m * (d // g), d // g * e


def _total_pair(pairs: Iterable[tuple[int, int]]) -> list[int] | tuple[int, int]:
    """Exact sum of the ``(numerator, denominator)`` pairs by :func:`_exact_pairs`, unreduced; ``(0, 1)`` for none."""
    return _exact_pairs([(((None, n, d) for n, d in pairs), 1, 1)]).get(None, (0, 1))


def _exact_total(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """:func:`_total_pair` reduced once: the canonical ``Fraction`` sum."""
    return Fraction(*_total_pair(pairs))


def clean_key(text: str) -> str:
    """Strip surrounding whitespace and reject non-``str``, empty keys and keys holding ``\\r`` or NUL.

    Keys are otherwise opaque and compared by exact byte equality; any
    normalisation beyond trimming is the caller's concern.  Both characters
    are refused because no CSV file can carry them back: text-mode reading
    turns a carriage return into ``\\n``, and the readers refuse NUL.
    """
    if not isinstance(text, str):
        raise TypeError(f"keys must be str, not {type(text).__name__}")
    key = text.strip()
    if not key:
        raise ValueError("key is empty after trimming whitespace")
    if "\r" in key:
        raise ValueError(f"key {key!r} contains a carriage return")
    if "\x00" in key:
        raise ValueError(f"key {key!r} contains NUL")
    return key


def _check_weight_type(weight: Fraction) -> Fraction:
    # The rule for every exact value a caller hands in: floats sneak inexactness
    # into every downstream equality, and bool is an int subclass that would read
    # as 1.  An exact Fraction, the common case, returns before any isinstance test.
    if type(weight) is Fraction:
        return weight
    if isinstance(weight, int) and not isinstance(weight, bool):
        return Fraction(weight)
    if not isinstance(weight, Fraction):
        raise TypeError(f"exact values must be Fraction or int, not {type(weight).__name__}; parse text with parse_rational")
    return weight


def _check_policy(name: str, value: str, choices: tuple[str, ...]) -> None:
    # The rule for every policy argument: a misspelled value must not take the non-default branch.
    if value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(map(repr, choices))}, not {value!r}")


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


# The slot descriptors' own setters: _Record blocks plain assignment, and
# these skip the generic object.__setattr__ lookup in Edge.__init__.
_set_source, _set_target, _set_weight = (Edge.__dict__[name].__set__ for name in ("source", "target", "weight"))

_TARGET = itemgetter(0)


class EdgeListDraft(_Record):
    """Unvalidated edge list, the staging form for crossmap construction.

    A draft holds only ``_rows``, laid out as the comment on ``_Rows`` states.
    ``edges``, sorted by (source, target) with a pair's repeats in input
    order, and ``outgoing``, each source's run of ``edges``, are built from
    the rows on first read.  Drafts of the same edges compare equal whatever
    their order, but for the order of a pair's repeats.
    """

    # The instance dict holds only the cached views.
    _fields = ("edges",)
    __slots__ = ("_rows", "__dict__")
    _rows: _Rows

    def __init__(self, *args: object, **kwargs: object) -> None:
        # Bound as any record's call, so a wrong call names the class: EdgeListDraft(edges).
        (edges,) = self._bind(args, kwargs)
        self._set_rows(_rows_of((e.source, e.target, *e.weight.as_integer_ratio()) for e in edges))

    @classmethod
    def _from_rows(cls, rows: _Rows) -> EdgeListDraft:
        draft = object.__new__(cls)
        draft._set_rows(rows)
        return draft

    def _set_rows(self, rows: _Rows) -> None:
        object.__setattr__(self, "_rows", rows)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        # One Fraction per distinct weight, shared by every edge that carries it.
        weight, rows = cache(Fraction), self._rows.items()
        return tuple([Edge(s, t, ONE if n == d else weight(n, d)) for s, row in rows for t, n, d in row])

    @cached_property
    def outgoing(self) -> Mapping[str, tuple[Edge, ...]]:
        """Each source's row as a slice of ``edges``, in canonical order."""
        edges, rows, end = self.edges, {}, 0
        for source, row in self._rows.items():
            start = end
            end += len(row)
            rows[source] = edges[start:end]
        return rows

    @cached_property
    def sources(self) -> tuple[str, ...]:
        return tuple(self._rows)

    @cached_property
    def targets(self) -> tuple[str, ...]:
        return tuple(sorted({t for row in self._rows.values() for t, _, _ in row}))

    @cached_property
    def _columns(self) -> _Rows:
        # The transpose in ``_Rows`` layout; rows come in source order, so each column fills sorted.
        columns: dict[str, list[tuple[str, int, int]]] = {t: [] for t in self.targets}
        for source, row in self._rows.items():
            for target, n, d in row:
                columns[target].append((source, n, d))
        return {t: tuple(column) for t, column in columns.items()}

    @cached_property
    def incoming(self) -> Mapping[str, tuple[str, ...]]:
        """Source keys grouped by target key, both in canonical order."""
        return {t: tuple([s for s, _, _ in column]) for t, column in self._columns.items()}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._rows.items()))

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))


class Finding(_Record):
    """One validation observation; ``value`` carries the offending exact sum or weight."""

    __slots__ = _fields = ("severity", "code", "subject", "message", "value")
    _defaults = (None,)
    _exact = ("value",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        _check_policy("severity", self.severity, _SEVERITIES)

    to_json_dict = _Record._json_dict


class ValidationReport(_Record):
    """Outcome of checking a draft or derived structure; ok iff no error findings."""

    __slots__ = _fields = ("findings",)

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


class Crossmap(EdgeListDraft):
    """Validated mass-preserving mapping between two key sets.

    A draft whose rows passed validation: building one from edges or rows
    raises :class:`InvalidCrossmapError` otherwise.  A map that is only
    applied, composed or written builds no ``Edge``.
    """

    __slots__ = ()

    def _set_rows(self, rows: _Rows) -> None:
        report = _validate_rows(rows)
        if not report.ok:
            raise InvalidCrossmapError(report)
        object.__setattr__(self, "_rows", rows)

    @cached_property
    def split_sources(self) -> tuple[str, ...]:
        """Source keys with more than one outgoing edge (value is divided)."""
        return tuple(s for s, row in self._rows.items() if len(row) > 1)

    @cached_property
    def _components(self) -> tuple:
        # The partition, cached like ``incoming``; graph.components is the documented accessor.
        from .graph import _find_components
        return _find_components(self)


class MassArray(Mapping):
    """Associative array of key -> exact mass, with an explicit missing marker.

    A value of ``None`` records a mass that was missing (``NA``) in the
    source file; validation reports it and the transform refuses it.
    Entries are stored in sorted key order, so equal contents compare and
    serialise identically regardless of input order.

    An array holds its masses once, as ``_pairs``, laid out as the comment
    on ``_Pairs`` states.  Iteration, length, membership, ``total``,
    ``missing_keys`` and equality between two arrays read only the pairs.
    The mapping of ``Fraction`` values read by ``[]``, ``get``, ``items``,
    ``values``, ``repr`` and pickling is a view of the pairs, built on the
    first such read and then cached; its zeros share one ``Fraction``.
    """

    # The instance dict holds only the cached view.
    _fields = ("_view",)
    __slots__ = ("_pairs", "__dict__")
    _pairs: _Pairs
    # A record's pickling, copying and immutability; equality with other mappings stays the Mapping's.
    _values = _Record._values
    __reduce__ = _Record.__reduce__
    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def __init__(self, entries: Mapping[str, Fraction | int | None] | Iterable[tuple[str, Fraction | int | None]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        pairs: _Pairs = {}
        for raw_key, value in items:
            key = clean_key(raw_key)
            if key in pairs:
                raise ValueError(f"duplicate key {key!r}")
            pairs[key] = None if value is None else _check_weight_type(value).as_integer_ratio()
        _set_pairs(self, _in_key_order(pairs))

    @classmethod
    def _from_pairs(cls, pairs: _Pairs) -> MassArray:
        # Checks and sorts nothing, and keeps the dict itself, so the caller
        # must not change it afterwards.
        array = object.__new__(cls)
        _set_pairs(array, pairs)
        return array

    @cached_property
    def _view(self) -> dict[str, Fraction | None]:
        return {key: None if p is None else Fraction(*p) if p[0] else ZERO for key, p in self._pairs.items()}

    def __getitem__(self, key: str) -> Fraction | None:
        return self._view[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, key: object) -> bool:
        return key in self._pairs

    # The view's own read-only views, instead of the Mapping mixins that
    # call __iter__ and __getitem__ once per entry.
    def items(self) -> ItemsView[str, Fraction | None]:
        return self._view.items()

    def values(self) -> ValuesView[Fraction | None]:
        return self._view.values()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MassArray):
            return self._pairs == other._pairs
        return Mapping.__eq__(self, other)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in self._view.items())
        return f"MassArray({{{inner}}})"

    @property
    def total(self) -> Fraction:
        """Exact sum of all present masses; missing entries contribute nothing."""
        # `p and p[0]` skips missing entries and zeros alike: neither adds to the sum.
        return _exact_total(p for p in self._pairs.values() if p and p[0])

    def missing_keys(self) -> tuple[str, ...]:
        return tuple(k for k, p in self._pairs.items() if p is None)


_set_pairs = MassArray.__dict__["_pairs"].__set__


def _in_key_order(pairs: _Pairs) -> _Pairs:
    """``pairs`` itself when its keys are in sorted order, else a copy in that order.

    Only keys out of order pay for a rebuild: an array's own items, and a
    file an array was written to, come in order.
    """
    order = sorted(pairs)
    if order != list(pairs):
        pairs = {key: pairs[key] for key in order}
    return pairs


def _out_of_range(source: str, target: str, n: int, d: int) -> Finding:
    weight = Fraction(n, d)
    return Finding(
        severity="error",
        code="weight_out_of_range",
        subject=f"{source}->{target}",
        message=f"weight {_for_message(weight)} outside (0, 1]",
        value=weight,
    )


def _rows_of(edges: Iterable[tuple[str, str, int, int]]) -> _Rows:
    """The rows of ``(source, target, n, d)`` edges in any order, ``n/d`` reduced with ``d > 0``.

    Grouped by source in one pass, then sorted: the sources, and each row by
    target with a stable sort, so the repeats of a pair keep their input order.
    """
    grouped: dict[str, list[tuple[str, int, int]]] = {}
    for source, target, n, d in edges:
        grouped.setdefault(source, []).append((target, n, d))
    return {source: tuple(sorted(grouped[source], key=_TARGET)) for source in sorted(grouped)}


def _validate_rows(rows: _Rows) -> ValidationReport:
    """Check every crossmap condition on rows in canonical order, one row at a time.

    Each row holds a source's ``(target, numerator, denominator)`` triples,
    sorted by target, with positive denominators.  Per-edge findings come in
    row order, then each ``weight_sum_not_one`` in source order.
    """
    findings: list[Finding] = []
    if not rows:
        findings.append(
            Finding(
                severity="error",
                code="no_edges",
                subject="<map>",
                message="a crossmap needs at least one edge",
            )
        )
    unbalanced: list[tuple[str, int, int]] = []
    for source, row in rows.items():
        triples = iter(row)
        previous_target, total_n, total_d = next(triples)
        # Denominators are positive, so 0 < n/d <= 1 iff 0 < n <= d; the
        # common unit weight, n == d, is in range and needs one test.
        if total_n != total_d and not 0 < total_n <= total_d:
            findings.append(_out_of_range(source, previous_target, total_n, total_d))
        for target, n, d in triples:
            # Sorted by target within the row, a duplicate pair always
            # directly follows its twin.
            if target == previous_target:
                findings.append(
                    Finding(
                        severity="error",
                        code="duplicate_edge",
                        subject=f"{source}->{target}",
                        message=f"duplicate edge ({source}, {target})",
                    )
                )
            previous_target = target
            if not 0 < n <= d:
                findings.append(_out_of_range(source, target, n, d))
            total_n, total_d = _add_ratio(total_n, total_d, n, d)
        # Unreduced, but with a positive denominator the sum is 1 iff n == d.
        if total_n != total_d:
            unbalanced.append((source, total_n, total_d))
    for source, n, d in unbalanced:
        # Only a failing sum needs its reduced Fraction, for the finding.
        total = Fraction(n, d)
        findings.append(
            Finding(
                severity="error",
                code="weight_sum_not_one",
                subject=source,
                message=(
                    f"outgoing weights of source {source!r} sum to "
                    f"{_for_message(total)}, expected exactly 1"
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
    return _validate_rows(draft._rows)


def build_crossmap(draft: EdgeListDraft) -> Crossmap | ValidationReport:
    """Validate a draft and return the canonical crossmap, or the full report.

    The result is independent of the draft's edge order.
    """
    try:
        return Crossmap._from_rows(draft._rows)
    except InvalidCrossmapError as exc:
        return exc.report


def identity_crossmap(keys: Iterable[str]) -> Crossmap:
    """One unit-weight edge ``k -> k`` per key; applying it changes nothing."""
    cleaned = [clean_key(k) for k in keys]
    if not cleaned:
        raise ValueError("identity crossmap needs at least one key")
    return Crossmap._from_rows({k: ((k, 1, 1),) for k in sorted(set(cleaned))})
