"""Matrix view of crossmaps: encoding, dense products, composition, reversal.

The dense matrix encoding exists as an oracle, not the production path —
crossmaps are sparse, and the edge-list transform is the one that scales.
Keeping both lets every transform result be checked against an
independent dense matrix-vector product with exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from . import _EXPORTS
from .core import (
    Crossmap,
    CrossmapError,
    InvalidCrossmapError,
    ValidationReport,
    ZERO,
    _Record,
    _Rows,
    _add_ratio,
)

__all__ = _EXPORTS["algebra"]


class CompositionError(CrossmapError):
    """A chained pair is not conformable: intermediate keys lack instructions."""

    error = "composition"
    _fields = ("unmatched_keys",)

    def __init__(self, unmatched_keys: tuple[str, ...]):
        self.unmatched_keys = unmatched_keys
        super().__init__(
            "cannot compose: intermediate keys not covered by the second crossmap: "
            + ", ".join(unmatched_keys)
        )


class MatrixEncoding(_Record):
    """Row-stochastic dense grid: rows are sources, columns targets.

    Cell (j, k) holds the edge weight from row key j to column key k, or 0
    where no edge exists.  Every row sums to exactly 1.
    """

    __slots__ = _fields = ("row_keys", "col_keys", "cells")


def to_matrix(crossmap: Crossmap) -> MatrixEncoding:
    """Dense matrix encoding in the crossmap's canonical key order."""
    col_index = {t: k for k, t in enumerate(crossmap.targets)}
    cells = []
    for row in crossmap._rows.values():
        cell = [ZERO] * len(col_index)
        for target, n, d in row:
            cell[col_index[target]] = Fraction(n, d)
        cells.append(tuple(cell))
    return MatrixEncoding(row_keys=crossmap.sources, col_keys=crossmap.targets, cells=tuple(cells))


def matvec_dense(matrix: MatrixEncoding, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact product of the transposed encoding with a source-indexed vector.

    ``y[k] = sum over j of cells[j][k] * x[j]`` — the target-indexed result
    of pushing the vector through the mapping.
    """
    if len(x) != len(matrix.row_keys):
        raise ValueError(f"vector length {len(x)} does not match {len(matrix.row_keys)} row keys")
    y = [ZERO] * len(matrix.col_keys)
    for j, row in enumerate(matrix.cells):
        xj = x[j]
        if xj == ZERO:
            continue
        for k, cell in enumerate(row):
            if cell != ZERO:
                y[k] += cell * xj
    return tuple(y)


def compose(first: Crossmap, second: Crossmap) -> Crossmap:
    """Collapse two chained crossmaps into one: weights multiply along paths and sum.

    Every target of ``first`` must be a source of ``second``.  The result's
    rows still sum to 1 (the product of row-stochastic matrices is
    row-stochastic), which construction re-asserts.  The work goes row by
    row, over both maps' rows (laid out as ``core._Rows`` states), and
    builds no ``Edge`` and no ``Fraction``:

    - a source of ``first`` with a single edge (weight 1) shares its
      target's row of ``second`` unchanged;
    - a split source whose paths all reach one target gets that one edge
      with weight exactly 1 and no arithmetic, because both rows on each
      of its paths sum to 1;
    - elsewhere each path is an unreduced integer product, paths that
      meet at one target are summed as integer pairs, and each such edge
      is reduced with one ``gcd``.

    Sources come in ``first``'s order and each row sorted by target, which
    is canonical order, so the result is validated once and not sorted
    again.  Its ``edges`` are built only if a caller reads them.
    """
    rows = second._rows
    unmatched = tuple(t for t in first.targets if t not in rows)
    if unmatched:
        raise CompositionError(unmatched)
    composed: _Rows = {}
    for source, lefts in first._rows.items():
        if len(lefts) == 1:
            composed[source] = rows[lefts[0][0]]
            continue
        # Each target's paths as unreduced integer products (a*n, b*d).
        reached: dict[str, list[tuple[int, int]]] = {}
        for middle, a, b in lefts:
            for target, n, d in rows[middle]:
                reached.setdefault(target, []).append((a * n, b * d))
        if len(reached) == 1:
            composed[source] = ((next(iter(reached)), 1, 1),)
            continue
        row = []
        for target in sorted(reached):
            paths = reached[target]
            n, d = paths[0]
            for m, e in paths[1:]:
                n, d = _add_ratio(n, d, m, e)
            g = gcd(n, d)
            row.append((target, n // g, d // g))
        composed[source] = tuple(row)
    return Crossmap._from_rows(composed)


def reverse(crossmap: Crossmap) -> Crossmap | ValidationReport:
    """Transpose the edge set if that itself satisfies the weight-sum rule.

    Weighted mappings are one-way: reversing an aggregation gives the old
    target several outgoing unit weights, whose sum exceeds 1.  Failure
    returns a report naming each such key with its exact reversed sum.
    """
    try:
        return Crossmap._from_rows(crossmap._columns)
    except InvalidCrossmapError as exc:
        return exc.report
