"""Standalone checks usable before, or independently of, any transform.

Three guards cover the ways a transform silently goes wrong: weights that
do not sum to 1 (mass created or destroyed per source), array keys the
mapping does not cover (rows lost in the join), and array values that are
missing or negative (arithmetic that is programmatically fine but
statistically meaningless).
"""

from __future__ import annotations

from fractions import Fraction

from . import _EXPORTS
from .core import Crossmap, Finding, MassArray, _Record, _exact_total, _for_message, validate_draft

__all__ = _EXPORTS["validation"]


class CoverageReport(_Record):
    """Whether every array key has mapping instructions, and what is at stake if not.

    ``mass_at_risk`` is the exact total sitting on uncovered keys — the loss a
    naive inner-join transform would silently incur.
    """

    __slots__ = _fields = ("conformable", "uncovered_keys", "mass_at_risk")
    _exact = ("mass_at_risk",)

    to_json_dict = _Record._json_dict


# The weight-sum rule as a standalone check: the one ``build_crossmap`` runs,
# so its report also carries duplicate-pair and out-of-range findings.
check_mass_preserving = validate_draft


def check_coverage(crossmap: Crossmap, array: MassArray) -> CoverageReport:
    """List every array key the crossmap has no instructions for.

    Missing (NA) entries still count as uncovered keys when absent from the
    sources; they contribute nothing to ``mass_at_risk`` since they carry
    no known mass (``check_array`` flags them separately).
    """
    rows, pairs = crossmap._rows, array._pairs
    uncovered = tuple(k for k in pairs if k not in rows)
    at_risk = _exact_total(pairs[k] for k in uncovered if pairs[k] is not None)
    return CoverageReport(conformable=not uncovered, uncovered_keys=uncovered, mass_at_risk=at_risk)


def check_array(array: MassArray) -> tuple[Finding, ...]:
    """Flag missing and negative masses.

    Each finding is an error whose ``code`` is ``missing_value`` or
    ``negative_value`` and whose ``subject`` is the key.  Zeros are
    admitted: they are the sanctioned explicit replacement for missing
    values, and rejecting them would push users back toward leaving NAs in
    place.
    """
    findings: list[Finding] = []
    for key, pair in array._pairs.items():
        if pair is None:
            message = f"{key!r} is missing (NA); replace it with zero explicitly before transforming"
            findings.append(Finding("error", "missing_value", key, message))
        elif pair[0] < 0:
            value = Fraction(*pair)
            message = f"{key!r} has negative mass {_for_message(value)}"
            findings.append(Finding("error", "negative_value", key, message, value))
    return tuple(findings)
