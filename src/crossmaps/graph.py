"""Bipartite-graph view: components, relation types, summaries, imputation metrics.

Viewed as an undirected bipartite graph, a crossmap falls apart into
disjoint components, and each component is one of the familiar mapping
cases: a rename (one-to-one), an aggregation (many-to-one), a
redistribution (one-to-many), or overlapping mixtures (many-to-many).
Renames and aggregations carry no imputation assumptions — their weights
are forced to 1 — so partitioning a crossmap this way shows exactly where
scrutiny belongs.

Components are found by walking the crossmap's rows and columns (see
``core._Rows``), source to target through a source's row and target to
source through a target's column, so the same key text on both sides (an
identity edge) names two distinct nodes without any extra bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Literal, get_args

from . import _EXPORTS
from .core import Crossmap, MassArray, ZERO, _Record, render_rational

__all__ = _EXPORTS["graph"]

RelationType = Literal["one_to_one", "one_to_many", "many_to_one", "many_to_many"]

RELATION_TYPES: tuple[RelationType, ...] = get_args(RelationType)


class Component(_Record):
    """One maximal weakly-connected subgraph of the crossmap."""

    __slots__ = _fields = ("sources", "targets", "edges", "relation_type")

    def to_json_dict(self) -> dict:
        edges = ((e.source, e.target, render_rational(e.weight)) for e in self.edges)
        return _component_document(self.relation_type, self.sources, self.targets, edges)


def _component_document(
    relation_type: RelationType,
    sources: tuple[str, ...],
    targets: tuple[str, ...],
    edges: Iterable[tuple[str, str, str]],
) -> dict:
    # A component's JSON document, from its edges as (source, target, weight text):
    # Component.to_json_dict's, and `crossmap classify --json`'s, which renders from the rows.
    return {
        "relation_type": relation_type,
        "sources": list(sources),
        "targets": list(targets),
        "edges": [{"from": source, "to": target, "weight": weight} for source, target, weight in edges],
    }


def _relation_type(sources: tuple[str, ...], targets: tuple[str, ...]) -> RelationType:
    # A connected component without duplicate edges has a node touching
    # every edge, with all other nodes of degree 1, exactly when one side
    # holds a single key; so the key counts alone decide the type.
    if len(sources) == 1:
        return "one_to_one" if len(targets) == 1 else "one_to_many"
    return "many_to_one" if len(targets) == 1 else "many_to_many"


def components(crossmap: Crossmap) -> tuple[Component, ...]:
    """Partition the crossmap into disjoint components, ordered by smallest source key.

    A component with one source key is one_to_one when it also has one
    target key and one_to_many otherwise; with several source keys it is
    many_to_one when it has one target key and many_to_many otherwise.
    Non-split relation types (one_to_one, many_to_one) are asserted to carry
    only unit weights — the weight-sum rule forces this, so a violation
    would mean a corrupted crossmap.  The partition is computed once per
    crossmap and reused by every later call, which builds only the records.
    """
    outgoing = crossmap.outgoing
    return tuple(
        Component(sources, targets, tuple([e for s in sources for e in outgoing[s]]), relation)
        for sources, targets, relation in crossmap._components
    )


def _find_components(crossmap: Crossmap) -> tuple[tuple[tuple[str, ...], tuple[str, ...], RelationType], ...]:
    rows, columns = crossmap._rows, crossmap._columns
    seen: set[str] = set()
    found = []
    for start, start_row in rows.items():
        if start in seen:
            continue
        seen.add(start)
        stack = [start_row]
        member_sources = [start]
        member_targets: set[str] = set()
        while stack:
            for target, _, _ in stack.pop():
                if target in member_targets:
                    continue
                member_targets.add(target)
                for source, _, _ in columns[target]:
                    if source not in seen:
                        seen.add(source)
                        stack.append(rows[source])
                        member_sources.append(source)
        sources = tuple(sorted(member_sources))
        targets = tuple(sorted(member_targets))
        relation = _relation_type(sources, targets)
        if relation in ("one_to_one", "many_to_one"):
            # Rows hold reduced pairs, so a unit weight is n == d.
            assert all(n == d for s in sources for _, n, d in rows[s]), "non-split component with fractional weight"
        found.append((sources, targets, relation))
    return tuple(found)


def _type_counts(crossmap: Crossmap) -> dict[RelationType, int]:
    counts: dict[RelationType, int] = {t: 0 for t in RELATION_TYPES}
    for _, _, relation in crossmap._components:
        counts[relation] += 1
    return counts


class TargetSummary(_Record):
    __slots__ = _fields = ("target", "incoming_count", "incoming_keys")


class CrossmapSummary(_Record):
    """Per-target aggregation view plus whole-map totals."""

    __slots__ = _fields = ("target_rows", "edge_count", "source_count", "target_count", "component_type_counts")

    def to_json_dict(self) -> dict:
        return {
            "targets": [_Record._json_dict(row) for row in self.target_rows],
            "totals": {
                "edges": self.edge_count,
                "sources": self.source_count,
                "targets": self.target_count,
                "component_types": dict(self.component_type_counts),
            },
        }


def summarize(crossmap: Crossmap) -> CrossmapSummary:
    """Per-target incoming counts and key lists, largest aggregations first."""
    rows = tuple(
        sorted(
            (TargetSummary(t, len(keys), keys) for t, keys in crossmap.incoming.items()),
            key=lambda r: (-r.incoming_count, r.target),
        )
    )
    return CrossmapSummary(
        target_rows=rows,
        edge_count=len(crossmap),
        source_count=len(crossmap.sources),
        target_count=len(crossmap.targets),
        component_type_counts=_type_counts(crossmap),
    )


class ImputationMetrics(_Record):
    """How much a crossmap could alter values, and how much it actually would.

    ``potential_split_share`` is structural: the share of source keys whose
    value gets divided.  ``realized_split_mass_share`` weighs that by the
    data: the share of total mass entering split sources.  A crossmap with
    only one-to-one components scores 0 on both — the zero-imputation
    baseline.
    """

    __slots__ = _fields = (
        "component_type_counts",
        "fractional_edge_count",
        "split_source_count",
        "potential_split_share",
        "realized_split_mass_share",
    )
    _defaults = (None,)
    _exact = ("potential_split_share", "realized_split_mass_share")

    to_json_dict = _Record._json_dict


def imputation_metrics(crossmap: Crossmap, array: MassArray | None = None) -> ImputationMetrics:
    """Structural imputation metrics, plus the data-weighted share when an array is given.

    With an array, missing, negative and uncovered entries are refused,
    exactly as :func:`apply_transform` refuses them.  An all-zero array
    realizes no splitting, so its share is 0.
    """
    split = crossmap.split_sources
    realized = None
    if array is not None:
        from .transform import TransformOptions, _require_clean, _split_totals

        coverage, covered = _require_clean(crossmap, array, TransformOptions())
        total, entering = _split_totals(covered, coverage.mass_at_risk)
        realized = ZERO if total == ZERO else entering / total
    return ImputationMetrics(
        component_type_counts=_type_counts(crossmap),
        # A lone edge has weight 1 and every edge of a split source less.
        fractional_edge_count=len(crossmap) - len(crossmap.sources) + len(split),
        split_source_count=len(split),
        potential_split_share=Fraction(len(split), len(crossmap.sources)),
        realized_split_mass_share=realized,
    )
