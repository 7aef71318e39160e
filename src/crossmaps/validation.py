"""Standalone checks usable before, or independently of, any transform.

Three guards cover the ways a transform silently goes wrong: weights that
do not sum to 1 (mass created or destroyed per source), array keys the
mapping does not cover (rows lost in the join), and array values that are
missing or negative (arithmetic that is programmatically fine but
statistically meaningless).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal

from .core import (
    Crossmap,
    Finding,
    MassArray,
    ZERO,
    _Record,
    _exact_total,
    render_rational,
    validate_draft,
)

__all__ = [
    "ArrayPolicy",
    "CoverageReport",
    "check_array",
    "check_coverage",
    "check_mass_preserving",
]

ArrayPolicy = Literal["allow_zero", "strict_positive"]


class CoverageReport(_Record):
    """Whether every array key has mapping instructions, and what is at stake if not.

    ``mass_at_risk`` is the exact total sitting on uncovered keys — the loss a
    naive inner-join transform would silently incur.
    """

    __slots__ = _fields = ("conformable", "uncovered_keys", "mass_at_risk")

    def __init__(self, conformable: bool, uncovered_keys: tuple[str, ...], mass_at_risk: Fraction) -> None:
        object.__setattr__(self, "conformable", conformable)
        object.__setattr__(self, "uncovered_keys", uncovered_keys)
        object.__setattr__(self, "mass_at_risk", mass_at_risk)

    def to_json_dict(self) -> dict:
        return {
            "conformable": self.conformable,
            "uncovered_keys": list(self.uncovered_keys),
            "mass_at_risk": render_rational(self.mass_at_risk),
        }


# The weight-sum rule as a standalone check: the one ``build_crossmap`` runs,
# so its report also carries duplicate-pair and out-of-range findings.
check_mass_preserving = validate_draft


def check_coverage(crossmap: Crossmap, array: MassArray) -> CoverageReport:
    """List every array key the crossmap has no instructions for.

    Missing (NA) entries still count as uncovered keys when absent from the
    sources; they contribute nothing to ``mass_at_risk`` since they carry
    no known mass (``check_array`` flags them separately).
    """
    outgoing = crossmap.outgoing
    uncovered = tuple(k for k in array if k not in outgoing)
    at_risk = _exact_total(array[k] for k in uncovered if array[k] is not None)
    return CoverageReport(conformable=not uncovered, uncovered_keys=uncovered, mass_at_risk=at_risk)


def check_array(array: MassArray, policy: ArrayPolicy = "allow_zero") -> tuple[Finding, ...]:
    """Flag missing, negative, and (under ``strict_positive``) zero masses.

    Each finding is an error whose ``code`` is ``missing_value``,
    ``negative_value`` or ``nonpositive_value`` and whose ``subject`` is
    the key.  Zeros are admitted by default: they are the sanctioned
    explicit replacement for missing values, and rejecting them would push
    users back toward leaving NAs in place.
    """
    findings: list[Finding] = []
    for key, value in array.items():
        if value is None:
            message = f"{key!r} is missing (NA); replace it with zero explicitly before transforming"
            findings.append(Finding("error", "missing_value", key, message))
        elif value.numerator < 0:
            message = f"{key!r} has negative mass {render_rational(value)}"
            findings.append(Finding("error", "negative_value", key, message, value))
        elif policy == "strict_positive" and value == ZERO:
            message = f"{key!r} has zero mass, rejected under the strict-positive policy"
            findings.append(Finding("error", "nonpositive_value", key, message, value))
    return tuple(findings)
