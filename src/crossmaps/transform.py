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
from typing import Literal, Mapping, Sequence

from .core import (
    Crossmap,
    CrossmapError,
    MassArray,
    ZERO,
    _Record,
    _exact_sums,
    _exact_total,
    clean_key,
    render_rational,
)
from .validation import CoverageReport, check_array, check_coverage

__all__ = [
    "CoverageError",
    "MissingValueError",
    "NegativeMassError",
    "TransformOptions",
    "TransformReceipt",
    "append_keys",
    "apply_sequence",
    "apply_transform",
    "drop_keys",
]


class CoverageError(CrossmapError):
    """The array holds keys the crossmap has no instructions for."""

    def __init__(self, uncovered_keys: tuple[str, ...], mass_at_risk: Fraction, step: int | None = None):
        self.uncovered_keys = uncovered_keys
        self.mass_at_risk = mass_at_risk
        self.step = step
        where = "" if step is None else f" at step {step}"
        super().__init__(
            f"uncovered keys{where}: {', '.join(uncovered_keys)} "
            f"(mass at risk {render_rational(mass_at_risk)})"
        )

    def to_json_dict(self) -> dict:
        out = {
            "error": "coverage",
            "uncovered_keys": list(self.uncovered_keys),
            "mass_at_risk": render_rational(self.mass_at_risk),
        }
        if self.step is not None:
            out["step"] = self.step
        return out


class MissingValueError(CrossmapError):
    """The array holds missing (NA) values; they must be resolved explicitly first."""

    def __init__(self, keys: tuple[str, ...]):
        self.keys = keys
        super().__init__(
            f"missing values on keys: {', '.join(keys)}; replace them with zeros explicitly before transforming"
        )

    def to_json_dict(self) -> dict:
        return {"error": "missing_values", "keys": list(self.keys)}


class NegativeMassError(CrossmapError):
    """The array holds negative masses, which a shared total cannot contain."""

    def __init__(self, keys: tuple[str, ...]):
        self.keys = keys
        super().__init__(f"negative masses on keys: {', '.join(keys)}")

    def to_json_dict(self) -> dict:
        return {"error": "negative_masses", "keys": list(self.keys)}


class TransformOptions(_Record):
    """Behaviour switches; the defaults are the safe choices.

    ``emit_zero_targets`` keeps every target key in the output (with mass 0
    where nothing arrived) so downstream schemas stay stable.
    ``on_uncovered`` controls the coverage guard: erroring out, or dropping
    uncovered keys while reporting the dropped mass.  Silent leakage is not
    an option.
    """

    __slots__ = _fields = ("emit_zero_targets", "on_uncovered")

    def __init__(
        self, emit_zero_targets: bool = True, on_uncovered: Literal["error", "drop_and_report"] = "error"
    ) -> None:
        object.__setattr__(self, "emit_zero_targets", emit_zero_targets)
        object.__setattr__(self, "on_uncovered", on_uncovered)


class TransformReceipt(_Record):
    """Exact accounting for one transform: where every unit of mass went."""

    __slots__ = _fields = ("input_total", "output_total", "dropped_mass", "split_mass")

    def __init__(
        self, input_total: Fraction, output_total: Fraction, dropped_mass: Fraction, split_mass: Fraction
    ) -> None:
        if input_total != output_total + dropped_mass:
            raise ValueError("receipt does not balance: input_total != output_total + dropped_mass")
        object.__setattr__(self, "input_total", input_total)
        object.__setattr__(self, "output_total", output_total)
        object.__setattr__(self, "dropped_mass", dropped_mass)
        object.__setattr__(self, "split_mass", split_mass)

    def to_json_dict(self) -> dict:
        return {
            "input_total": render_rational(self.input_total),
            "output_total": render_rational(self.output_total),
            "dropped_mass": render_rational(self.dropped_mass),
            "split_mass": render_rational(self.split_mass),
        }


def _require_clean(crossmap: Crossmap, array: MassArray, options: TransformOptions) -> CoverageReport:
    # The one place the array preconditions are enforced, in this order:
    # missing values, negative masses (both as check_array classifies
    # them), then coverage.
    findings = check_array(array)
    missing = tuple(f.subject for f in findings if f.code == "missing_value")
    if missing:
        raise MissingValueError(missing)
    negative = tuple(f.subject for f in findings if f.code == "negative_value")
    if negative:
        raise NegativeMassError(negative)
    coverage = check_coverage(crossmap, array)
    if not coverage.conformable and options.on_uncovered == "error":
        raise CoverageError(coverage.uncovered_keys, coverage.mass_at_risk)
    return coverage


def _split_totals(crossmap: Crossmap, array: MassArray) -> tuple[Fraction, Fraction]:
    # (total mass, mass on split sources) of an array with no missing
    # values, in one pass; a key the crossmap does not cover counts toward
    # the total only.
    split = frozenset(crossmap.split_sources)
    sums = _exact_sums((k in split, *m.as_integer_ratio()) for k, m in array.items() if m)
    split_mass = sums.get(True, ZERO)
    return split_mass + sums.get(False, ZERO), split_mass


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
    """
    coverage = _require_clean(crossmap, array, options)
    outgoing = crossmap.outgoing

    def terms():
        # mass * weight as an unreduced integer pair; a zero mass adds nothing.
        for key, mass in array.items():
            if mass and key in outgoing:
                p, q = mass.as_integer_ratio()
                for edge in outgoing[key]:
                    n, d = edge.weight.as_integer_ratio()
                    yield edge.target, p * n, q * d

    accumulated = _exact_sums(terms())
    input_total, split_mass = _split_totals(crossmap, array)

    if options.emit_zero_targets:
        entries = {t: accumulated.get(t, ZERO) for t in crossmap.targets}
    else:
        entries = {t: v for t, v in accumulated.items() if v != ZERO}
    output = MassArray._from_clean(entries)
    receipt = TransformReceipt(
        input_total=input_total,
        output_total=output.total,
        dropped_mass=coverage.mass_at_risk,
        split_mass=split_mass,
    )
    return output, receipt


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


def drop_keys(array: MassArray, keys: set[str] | frozenset[str] | tuple[str, ...]) -> tuple[MassArray, Fraction]:
    """Remove entries for the given keys, reporting the removed mass.

    The sanctioned way to discard unwanted categories before a transform;
    the returned mass makes the removal auditable rather than silent.
    Missing entries can be dropped too and contribute nothing to the total.
    """
    to_drop = {clean_key(k) for k in keys}
    kept = {k: v for k, v in array.items() if k not in to_drop}
    dropped_mass = _exact_total(v for k, v in array.items() if k in to_drop and v is not None)
    return MassArray._from_clean(kept), dropped_mass


def append_keys(array: MassArray, new_entries: Mapping[str, Fraction | int]) -> MassArray:
    """Attach new categories after a transform; colliding keys are an error."""
    additions = {clean_key(k): v for k, v in new_entries.items()}
    collisions = sorted(set(array) & set(additions))
    if collisions:
        raise ValueError(f"keys already present: {', '.join(collisions)}")
    merged: dict[str, Fraction | None] = dict(array.items())
    merged.update(additions)
    return MassArray(merged)
