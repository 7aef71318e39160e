"""The bundled occupation crossmap, used in documentation, tests and the benchmark."""

from __future__ import annotations

from functools import cache
from importlib.resources import files

from .core import Crossmap
from .formats import read_edge_list

__all__ = ["occupation_recode", "occupation_recode_path"]


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
    return Crossmap._from_rows(read_edge_list(occupation_recode_path())._rows)
