"""Bundled example crossmaps used in documentation and tests."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from importlib.resources import files

from .core import Crossmap, Edge, ONE
from .formats import read_edge_list

__all__ = ["country_recode", "occupation_recode", "occupation_recode_path"]

HALF = Fraction(1, 2)


def country_recode() -> Crossmap:
    """Small mixed example: one split, one merge, one identity.

    Recodes legacy country aggregates: the Belgium-Luxembourg combination
    is split evenly, the two German states merge, and Australia passes
    through unchanged.
    """
    return Crossmap(
        [
            Edge("BLX", "BEL", HALF),
            Edge("BLX", "LUX", HALF),
            Edge("E.GER", "DEU", ONE),
            Edge("W.GER", "DEU", ONE),
            Edge("AUS", "AUS", ONE),
        ]
    )


def occupation_recode_path() -> str:
    """Filesystem path of the bundled occupation aggregation edge list."""
    return str(files("crossmaps").joinpath("data/occupation_recode.csv"))


@cache
def occupation_recode() -> Crossmap:
    """Aggregation of 329 four-digit occupation codes into 12 broad groups.

    The mapping was recovered by probing a legacy survey-processing script
    that banded codes with chained range conditions; every weight is 1 and
    each component is a rename or an aggregation.  The file is read once;
    every call returns the same immutable crossmap.
    """
    return Crossmap(read_edge_list(occupation_recode_path()).edges)
