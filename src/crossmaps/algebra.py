"""Matrix view of crossmaps: encoding, dense products, composition, reversal.

The dense matrix encoding exists as an oracle and export form, not the
production path — crossmaps are sparse, and the edge-list transform is the
one that scales.  Keeping both lets every transform result be checked
against an independent dense matrix-vector product with exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    Crossmap,
    CrossmapError,
    Edge,
    InvalidCrossmapError,
    ValidationReport,
    ZERO,
    render_rational,
)

__all__ = [
    "CompositionError",
    "MatrixEncoding",
    "compose",
    "matvec_dense",
    "reverse",
    "to_matrix",
]


class CompositionError(CrossmapError):
    """A chained pair is not conformable: intermediate keys lack instructions."""

    def __init__(self, unmatched: tuple[str, ...]):
        self.unmatched = unmatched
        super().__init__(
            "cannot compose: intermediate keys not covered by the second crossmap: "
            + ", ".join(unmatched)
        )


@dataclass(frozen=True)
class MatrixEncoding:
    """Row-stochastic dense grid: rows are sources, columns targets.

    Cell (j, k) holds the edge weight from row key j to column key k, or 0
    where no edge exists.  Every row sums to exactly 1.
    """

    row_keys: tuple[str, ...]
    col_keys: tuple[str, ...]
    cells: tuple[tuple[Fraction, ...], ...]

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
    row-stochastic), which construction re-asserts.
    """
    unmatched = tuple(t for t in first.targets if t not in second.outgoing)
    if unmatched:
        raise CompositionError(unmatched)
    accumulated: dict[tuple[str, str], Fraction] = {}
    for left in first.edges:
        for right in second.outgoing[left.target]:
            pair = (left.source, right.target)
            accumulated[pair] = accumulated.get(pair, ZERO) + left.weight * right.weight
    return Crossmap(Edge(s, t, w) for (s, t), w in accumulated.items())


def reverse(crossmap: Crossmap) -> Crossmap | ValidationReport:
    """Transpose the edge set if that itself satisfies the weight-sum rule.

    Weighted mappings are one-way: reversing an aggregation gives the old
    target several outgoing unit weights, whose sum exceeds 1.  Failure
    returns a report naming each such key with its exact reversed sum.
    """
    try:
        return Crossmap(Edge(e.target, e.source, e.weight) for e in crossmap.edges)
    except InvalidCrossmapError as exc:
        return exc.report
