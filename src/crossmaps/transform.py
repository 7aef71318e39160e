"""Applying crossmaps to mass arrays: join, multiply, aggregate.

The transform walks the edge list exactly like the equivalent database
query: join each (key, mass) row with its outgoing edges, multiply mass by
weight, then group by target and sum.  All arithmetic is rational, so the
receipt identity ``input_total == output_total + dropped_mass`` holds as
an exact equality on every call.

Key-set edits (dropping unwanted categories, attaching new ones) happen
outside the transform on purpose: the transform itself only ever
redistributes mass, never creates or destroys it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NoReturn, Sequence

from . import _EXPORTS
from .core import (
    Crossmap,
    CrossmapError,
    MassArray,
    ZERO,
    _Record,
    _Row,
    _check_policy,
    _check_weight_type,
    _exact_pairs,
    _exact_total,
    _for_message,
)
from .validation import CoverageReport, check_array, check_coverage

__all__ = _EXPORTS["transform"]


class CoverageError(CrossmapError):
    """The array holds keys the crossmap has no instructions for.

    A mass at risk too long to render is stated in the message by its size;
    the document then raises :class:`ValueTooLongError`, as any such value does.
    """

    error = "coverage"
    _fields = ("uncovered_keys", "mass_at_risk", "step")

    def __init__(self, uncovered_keys: tuple[str, ...], mass_at_risk: Fraction, step: int | None = None):
        self.uncovered_keys = uncovered_keys
        self.mass_at_risk = _check_weight_type(mass_at_risk)
        self.step = step
        where = "" if step is None else f" at step {step}"
        mass = _for_message(self.mass_at_risk)
        super().__init__(f"uncovered keys{where}: {', '.join(uncovered_keys)} (mass at risk {mass})")


class MissingValueError(CrossmapError):
    """The array holds missing (NA) values; they must be resolved explicitly first."""

    error = "missing_values"
    _fields = ("keys",)

    def __init__(self, keys: tuple[str, ...]):
        self.keys = keys
        super().__init__(
            f"missing values on keys: {', '.join(keys)}; replace them with zeros explicitly before transforming"
        )


class NegativeMassError(CrossmapError):
    """The array holds negative masses, which a shared total cannot contain."""

    error = "negative_masses"
    _fields = ("keys",)

    def __init__(self, keys: tuple[str, ...]):
        self.keys = keys
        super().__init__(f"negative masses on keys: {', '.join(keys)}")


class TransformOptions(_Record):
    """Behaviour switches; the defaults are the safe choices.

    ``emit_zero_targets`` keeps every target key in the output (with mass 0
    where nothing arrived) so downstream schemas stay stable.
    ``on_uncovered`` controls the coverage guard: ``"error"``, or
    ``"drop_and_report"`` to drop uncovered keys while reporting the dropped
    mass; any other value is a ``ValueError``.  Silent leakage is not an option.
    """

    __slots__ = _fields = ("emit_zero_targets", "on_uncovered")
    _defaults = (True, "error")

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        _check_policy("on_uncovered", self.on_uncovered, ("error", "drop_and_report"))


class TransformReceipt(_Record):
    """Exact accounting for one transform: where every unit of mass went."""

    __slots__ = _fields = _exact = ("input_total", "output_total", "dropped_mass", "split_mass")

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if self.input_total != self.output_total + self.dropped_mass:
            raise ValueError("receipt does not balance: input_total != output_total + dropped_mass")

    to_json_dict = _Record._json_dict


_FULLY_COVERED = CoverageReport(conformable=True, uncovered_keys=(), mass_at_risk=ZERO)

# A covered entry with nonzero mass: the source's row (see ``core._Rows``) and
# the mass as its integer pair (numerator, denominator).
_Covered = tuple[_Row, int, int]


def _refuse_flawed(array: MassArray) -> NoReturn:
    # The refusal of an array holding a missing or a negative mass, as
    # check_array classifies them: every missing key if there is one, else
    # every negative key.
    findings = check_array(array)
    missing = tuple(f.subject for f in findings if f.code == "missing_value")
    if missing:
        raise MissingValueError(missing)
    raise NegativeMassError(tuple(f.subject for f in findings if f.code == "negative_value"))


def _require_clean(
    crossmap: Crossmap, array: MassArray, options: TransformOptions
) -> tuple[CoverageReport, list[_Covered]]:
    # The one place the array preconditions are enforced, in this order:
    # missing values, negative masses, then coverage (as check_coverage
    # reports it).  One pass reads each entry's mass and row once; the
    # reports are built only when the pass finds something to refuse or
    # drop.  Returns the coverage report and the covered entries with
    # nonzero mass, in key order.
    row_of = crossmap._rows.get
    covered: list[_Covered] = []
    uncovered = False
    for key, mass in array._pairs.items():
        if mass is None:
            _refuse_flawed(array)
        p, q = mass
        if p < 0:
            _refuse_flawed(array)
        row = row_of(key)
        if row is None:
            uncovered = True
        elif p:
            covered.append((row, p, q))
    if not uncovered:
        return _FULLY_COVERED, covered
    coverage = check_coverage(crossmap, array)
    if options.on_uncovered == "error":
        raise CoverageError(coverage.uncovered_keys, coverage.mass_at_risk)
    return coverage, covered


def _split_totals(covered: list[_Covered], dropped: Fraction) -> tuple[Fraction, Fraction]:
    # (total mass, mass on split sources) of _require_clean's covered
    # entries plus the dropped mass, which counts toward the total only.  A
    # source is split when its row has more than one edge.  Masses sharing a
    # denominator are added as plain integers first, since an array's masses
    # share few denominators, so the lcm step runs once per distinct one.
    split: dict[int, int] = {}
    whole: dict[int, int] = {}
    for row, p, q in covered:
        group = split if len(row) > 1 else whole
        group[q] = group.get(q, 0) + p
    split_mass = _exact_total((n, q) for q, n in split.items())
    return split_mass + _exact_total((n, q) for q, n in whole.items()) + dropped, split_mass


def apply_transform(
    crossmap: Crossmap,
    array: MassArray,
    options: TransformOptions = TransformOptions(),
) -> tuple[MassArray, TransformReceipt]:
    """Redistribute the array's mass from source keys to target keys.

    Every output value is the exact sum ``y_k = sum(x_i * w_ik)`` over the
    edges arriving at target k.  Raises :class:`CoverageError` for
    uncovered keys unless options say to drop them, in which case the
    dropped mass is reported in the receipt instead of vanishing.

    Cost: one pass over the array, plus one integer term per edge of each
    covered key with nonzero mass, so zeros cost little.  The input total
    adds the masses of each distinct denominator as integers before any
    lcm step, and the output total takes one term per target that received
    mass.  The refusal and drop reports are built only when the call
    refuses or drops something.
    """
    coverage, covered = _require_clean(crossmap, array, options)
    # Each covered row's weights scaled by its mass, summed per target.
    # Masses and weights are positive, so every accumulated sum is too:
    # none is a zero to leave out, and each is reduced once, here.
    sums: dict[str, tuple[int, int]] = {}
    for target, (n, d) in _exact_pairs(covered).items():
        g = gcd(n, d)
        sums[target] = (n // g, d // g)
    input_total, split_mass = _split_totals(covered, coverage.mass_at_risk)

    if options.emit_zero_targets:
        # crossmap.targets is sorted, so the pairs come in key order.
        pairs = {t: sums.get(t, (0, 1)) for t in crossmap.targets}
    else:
        pairs = dict(sorted(sums.items()))
    receipt = TransformReceipt(
        input_total=input_total,
        # Summed from the outputs, not taken from the input: the receipt's balance check.
        output_total=_exact_total(sums.values()),
        dropped_mass=coverage.mass_at_risk,
        split_mass=split_mass,
    )
    return MassArray._from_pairs(pairs), receipt


def apply_sequence(
    crossmaps: Sequence[Crossmap],
    array: MassArray,
    options: TransformOptions = TransformOptions(),
) -> tuple[MassArray, tuple[TransformReceipt, ...]]:
    """Fold a chain of transforms left to right, one receipt per step.

    Equivalent to applying the composed crossmap in one go.  A coverage
    failure names which step broke the chain.
    """
    current = array
    receipts: list[TransformReceipt] = []
    for step, crossmap in enumerate(crossmaps):
        try:
            current, receipt = apply_transform(crossmap, current, options)
        except CoverageError as exc:
            raise CoverageError(exc.uncovered_keys, exc.mass_at_risk, step=step) from None
        receipts.append(receipt)
    return current, tuple(receipts)
