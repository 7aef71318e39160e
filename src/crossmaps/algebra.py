"""Matrix view of crossmaps: encoding, dense products, composition, reversal.

The dense matrix encoding exists as an oracle, not the production path —
crossmaps are sparse, and the edge-list transform is the one that scales.
Keeping both lets every transform result be checked against an
independent dense matrix-vector product with exact equality.
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
    _exact_pairs,
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
    row-stochastic), which construction re-asserts.  The work goes row by
    row, over the rows validation built, and a weight passes unchanged
    through a unit row (a single edge, weight 1) of either map: a source of
    ``first`` with a single edge gets its target's row in ``second`` copied,
    and a path through a single-edge row of ``second`` keeps the weight
    object of its ``first`` edge.  Arithmetic happens only where a row of
    ``second`` splits (a product) or where paths of one source meet at one
    target (a sum).
    """
    rows = second.outgoing
    unmatched = tuple(t for t in first.targets if t not in rows)
    if unmatched:
        raise CompositionError(unmatched)
    new_edge = Edge._from_clean
    edges: list[Edge | tuple[str, str]] = []
    # Paths of one source that meet at one target are summed together at the
    # end: their edge waits in ``edges`` as its (source, target) pair, and
    # their terms, keyed by its index there, wait in ``meeting``.
    meeting: list[tuple[int, int, int]] = []
    for source, lefts in first.outgoing.items():
        if len(lefts) == 1:
            for right in rows[lefts[0].target]:
                edges.append(new_edge(source, right.target, right.weight))
            continue
        # Each target's path weights.  A unit right row passes the left
        # weight object on; a split one gives one integer product per edge.
        reached: dict[str, list[Fraction]] = {}
        for left in lefts:
            rights = rows[left.target]
            if len(rights) == 1:
                target = rights[0].target
                if target in reached:
                    reached[target].append(left.weight)
                else:
                    reached[target] = [left.weight]
                continue
            a, b = left.weight.as_integer_ratio()
            for right in rights:
                n, d = right.weight.as_integer_ratio()
                reached.setdefault(right.target, []).append(Fraction(a * n, b * d))
        for target in sorted(reached):
            weights = reached[target]
            if len(weights) == 1:
                edges.append(new_edge(source, target, weights[0]))
                continue
            index = len(edges)
            edges.append((source, target))
            for weight in weights:
                meeting.append((index, *weight.as_integer_ratio()))
    for index, (n, d) in _exact_pairs(meeting).items():
        edges[index] = new_edge(*edges[index], Fraction(n, d))
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
