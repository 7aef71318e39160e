"""Standalone checks usable before, or independently of, any transform.

Three guards cover the ways a transform silently goes wrong: weights that
do not sum to 1 (mass created or destroyed per source), array keys the
mapping does not cover (rows lost in the join), and array values that are
missing or negative (arithmetic that is programmatically fine but
statistically meaningless).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .core import (
    Crossmap,
    EdgeListDraft,
    MassArray,
    ValidationReport,
    ZERO,
    render_rational,
    validate_draft,
)

__all__ = [
    "ArrayFinding",
    "ArrayPolicy",
    "CoverageReport",
    "check_array",
    "check_coverage",
    "check_mass_preserving",
]

ArrayPolicy = Literal["allow_zero", "strict_positive"]


@dataclass(frozen=True)
class CoverageReport:
    """Whether every array key has mapping instructions, and what is at stake if not.

    ``mass_at_risk`` is the exact total sitting on uncovered keys — the loss a
    naive inner-join transform would silently incur.
    """

    conformable: bool
    uncovered_keys: tuple[str, ...]
    mass_at_risk: Fraction

    def to_json_dict(self) -> dict:
        return {
            "conformable": self.conformable,
            "uncovered_keys": list(self.uncovered_keys),
            "mass_at_risk": render_rational(self.mass_at_risk),
        }


@dataclass(frozen=True)
class ArrayFinding:
    """One problematic mass array entry."""

    key: str
    kind: Literal["missing_value", "negative_value", "nonpositive_value"]
    value: Fraction | None = None

    def message(self) -> str:
        if self.kind == "missing_value":
            return f"{self.key!r} is missing (NA); replace it with zero explicitly before transforming"
        if self.kind == "negative_value":
            return f"{self.key!r} has negative mass {render_rational(self.value)}"
        return f"{self.key!r} has zero mass, rejected under the strict-positive policy"

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "value": None if self.value is None else render_rational(self.value),
            "message": self.message(),
        }


def check_mass_preserving(draft: EdgeListDraft) -> ValidationReport:
    """Report every source whose outgoing weights do not sum to exactly 1.

    Equivalent to checking that the matrix encoding maps the all-ones
    vector to itself; any failing row pinpoints a source key with at least
    one incorrectly specified outgoing relation.  This is the same rule
    ``build_crossmap`` enforces, exposed as a standalone check, so the
    report also carries duplicate-pair and out-of-range findings.
    """
    return validate_draft(draft)


def check_coverage(crossmap: Crossmap, array: MassArray) -> CoverageReport:
    """List every array key the crossmap has no instructions for.

    Missing (NA) entries still count as uncovered keys when absent from the
    sources; they contribute nothing to ``mass_at_risk`` since they carry
    no known mass (``check_array`` flags them separately).
    """
    outgoing = crossmap.outgoing
    uncovered = tuple(k for k in array if k not in outgoing)
    at_risk = sum((array[k] for k in uncovered if array[k] is not None), ZERO)
    return CoverageReport(conformable=not uncovered, uncovered_keys=uncovered, mass_at_risk=at_risk)


def check_array(array: MassArray, policy: ArrayPolicy = "allow_zero") -> tuple[ArrayFinding, ...]:
    """Flag missing, negative, and (under ``strict_positive``) zero masses.

    Zeros are admitted by default: they are the sanctioned explicit
    replacement for missing values, and rejecting them would push users
    back toward leaving NAs in place.
    """
    findings: list[ArrayFinding] = []
    for key, value in array.items():
        if value is None:
            findings.append(ArrayFinding(key, "missing_value"))
        elif value < ZERO:
            findings.append(ArrayFinding(key, "negative_value", value))
        elif policy == "strict_positive" and value == ZERO:
            findings.append(ArrayFinding(key, "nonpositive_value", value))
    return tuple(findings)
