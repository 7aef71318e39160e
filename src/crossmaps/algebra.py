"""Matrix view of crossmaps: encoding, dense products, composition, reversal.

The dense matrix encoding exists as an oracle and export form, not the
production path — crossmaps are sparse, and the edge-list transform is the
one that scales.  Keeping both lets every transform result be checked
against an independent dense matrix-vector product with exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import _EXPORTS
from .core import (
    Crossmap,
    CrossmapError,
    Edge,
    InvalidCrossmapError,
    ValidationReport,
    ZERO,
    _Record,
    _exact_sums,
    render_rational,
)

__all__ = _EXPORTS["algebra"]


class CompositionError(CrossmapError):
    """A chained pair is not conformable: intermediate keys lack instructions."""

    def __init__(self, unmatched: tuple[str, ...]):
        self.unmatched = unmatched
        super().__init__(
            "cannot compose: intermediate keys not covered by the second crossmap: "
            + ", ".join(unmatched)
        )

    def to_json_dict(self) -> dict:
        return {"error": "composition", "unmatched_keys": list(self.unmatched)}


class MatrixEncoding(_Record):
    """Row-stochastic dense grid: rows are sources, columns targets.

    Cell (j, k) holds the edge weight from row key j to column key k, or 0
    where no edge exists.  Every row sums to exactly 1.
    """

    __slots__ = _fields = ("row_keys", "col_keys", "cells")

    def __init__(
        self, row_keys: tuple[str, ...], col_keys: tuple[str, ...], cells: tuple[tuple[Fraction, ...], ...]
    ) -> None:
        object.__setattr__(self, "row_keys", row_keys)
        object.__setattr__(self, "col_keys", col_keys)
        object.__setattr__(self, "cells", cells)

    def row_sums(self) -> tuple[Fraction, ...]:
        """The product with the all-ones vector; all ones for a valid crossmap."""
        return tuple(sum(row, ZERO) for row in self.cells)

    def to_csv(self) -> str:
        """Grid as CSV with key headers and exact cells, row-major."""
        lines = ["," + ",".join(self.col_keys)]
        for key, row in zip(self.row_keys, self.cells):
            lines.append(key + "," + ",".join(render_rational(c) for c in row))
        return "\n".join(lines) + "\n"


def to_matrix(crossmap: Crossmap) -> MatrixEncoding:
    """Dense matrix encoding in the crossmap's canonical key order."""
    col_index = {t: k for k, t in enumerate(crossmap.targets)}
    cells = []
    for source in crossmap.sources:
        row = [ZERO] * len(crossmap.targets)
        for edge in crossmap.outgoing[source]:
            row[col_index[edge.target]] = edge.weight
        cells.append(tuple(row))
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
    row-stochastic), which construction re-asserts.  A source of ``first``
    with a single edge passes all its mass on with weight 1, so its composed
    row is its target's row in ``second``, copied with no arithmetic; only
    split sources multiply and sum.
    """
    unmatched = tuple(t for t in first.targets if t not in second.outgoing)
    if unmatched:
        raise CompositionError(unmatched)
    outgoing = second.outgoing
    edges: list[Edge] = []
    split: list[Edge] = []
    for source, lefts in first.outgoing.items():
        if len(lefts) == 1:
            edges.extend(Edge._from_clean(source, e.target, e.weight) for e in outgoing[lefts[0].target])
        else:
            split.extend(lefts)

    def terms():
        # Each split path's weight product as an unreduced integer pair.
        for left in split:
            a, b = left.weight.as_integer_ratio()
            for right in outgoing[left.target]:
                n, d = right.weight.as_integer_ratio()
                yield (left.source, right.target), a * n, b * d

    accumulated = _exact_sums(terms())
    edges.extend(Edge._from_clean(s, t, w) for (s, t), w in accumulated.items())
    return Crossmap(edges)


def reverse(crossmap: Crossmap) -> Crossmap | ValidationReport:
    """Transpose the edge set if that itself satisfies the weight-sum rule.

    Weighted mappings are one-way: reversing an aggregation gives the old
    target several outgoing unit weights, whose sum exceeds 1.  Failure
    returns a report naming each such key with its exact reversed sum.
    """
    try:
        return Crossmap(Edge._from_clean(e.target, e.source, e.weight) for e in crossmap.edges)
    except InvalidCrossmapError as exc:
        return exc.report
