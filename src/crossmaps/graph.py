"""Bipartite-graph view: components, relation types, summaries, imputation metrics.

Viewed as an undirected bipartite graph, a crossmap falls apart into
disjoint components, and each component is one of the familiar mapping
cases: a rename (one-to-one), an aggregation (many-to-one), a
redistribution (one-to-many), or overlapping mixtures (many-to-many).
Renames and aggregations carry no imputation assumptions — their weights
are forced to 1 — so partitioning a crossmap this way shows exactly where
scrutiny belongs.

Components are found by walking the crossmap's own two indexes, source to
target through ``outgoing`` and target to source through ``incoming``, so
the same key text on both sides (an identity edge) names two distinct
nodes without any extra bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal

from .core import Crossmap, Edge, MassArray, ONE, ZERO, _Record, render_rational

__all__ = [
    "Component",
    "CrossmapSummary",
    "ImputationMetrics",
    "RelationType",
    "TargetSummary",
    "components",
    "imputation_metrics",
    "summarize",
]

RelationType = Literal["one_to_one", "one_to_many", "many_to_one", "many_to_many"]

RELATION_TYPES: tuple[RelationType, ...] = (
    "one_to_one",
    "one_to_many",
    "many_to_one",
    "many_to_many",
)


class Component(_Record):
    """One maximal weakly-connected subgraph of the crossmap."""

    __slots__ = _fields = ("sources", "targets", "edges", "relation_type")

    def __init__(
        self, sources: tuple[str, ...], targets: tuple[str, ...], edges: tuple[Edge, ...], relation_type: RelationType
    ) -> None:
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "relation_type", relation_type)

    def to_json_dict(self) -> dict:
        return {
            "relation_type": self.relation_type,
            "sources": list(self.sources),
            "targets": list(self.targets),
            "edges": [
                {"from": e.source, "to": e.target, "weight": render_rational(e.weight)}
                for e in self.edges
            ],
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
    crossmap and reused by every later call.
    """
    return crossmap._components


def _find_components(crossmap: Crossmap) -> tuple[Component, ...]:
    outgoing, incoming = crossmap.outgoing, crossmap.incoming
    seen: set[str] = set()
    out: list[Component] = []
    for start in crossmap.sources:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        member_sources = [start]
        member_targets: set[str] = set()
        while stack:
            for edge in outgoing[stack.pop()]:
                if edge.target in member_targets:
                    continue
                member_targets.add(edge.target)
                for source in incoming[edge.target]:
                    if source not in seen:
                        seen.add(source)
                        stack.append(source)
                        member_sources.append(source)
        sources = tuple(sorted(member_sources))
        targets = tuple(sorted(member_targets))
        # Each source's outgoing edges are already in canonical order.
        edges = tuple(e for s in sources for e in outgoing[s])
        relation = _relation_type(sources, targets)
        if relation in ("one_to_one", "many_to_one"):
            assert all(e.weight == ONE for e in edges), "non-split component with fractional weight"
        out.append(Component(sources=sources, targets=targets, edges=edges, relation_type=relation))
    return tuple(out)


def _type_counts(crossmap: Crossmap) -> dict[RelationType, int]:
    counts: dict[RelationType, int] = {t: 0 for t in RELATION_TYPES}
    for component in components(crossmap):
        counts[component.relation_type] += 1
    return counts


class TargetSummary(_Record):
    __slots__ = _fields = ("target", "incoming_count", "incoming_keys")

    def __init__(self, target: str, incoming_count: int, incoming_keys: tuple[str, ...]) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "incoming_count", incoming_count)
        object.__setattr__(self, "incoming_keys", incoming_keys)


class CrossmapSummary(_Record):
    """Per-target aggregation view plus whole-map totals."""

    __slots__ = _fields = ("target_rows", "edge_count", "source_count", "target_count", "component_type_counts")

    def __init__(
        self,
        target_rows: tuple[TargetSummary, ...],
        edge_count: int,
        source_count: int,
        target_count: int,
        component_type_counts: dict[RelationType, int],
    ) -> None:
        object.__setattr__(self, "target_rows", target_rows)
        object.__setattr__(self, "edge_count", edge_count)
        object.__setattr__(self, "source_count", source_count)
        object.__setattr__(self, "target_count", target_count)
        object.__setattr__(self, "component_type_counts", component_type_counts)

    def to_json_dict(self) -> dict:
        return {
            "targets": [
                {
                    "target": row.target,
                    "incoming_count": row.incoming_count,
                    "incoming_keys": list(row.incoming_keys),
                }
                for row in self.target_rows
            ],
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
        edge_count=len(crossmap.edges),
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

    def __init__(
        self,
        component_type_counts: dict[RelationType, int],
        fractional_edge_count: int,
        split_source_count: int,
        potential_split_share: Fraction,
        realized_split_mass_share: Fraction | None = None,
    ) -> None:
        object.__setattr__(self, "component_type_counts", component_type_counts)
        object.__setattr__(self, "fractional_edge_count", fractional_edge_count)
        object.__setattr__(self, "split_source_count", split_source_count)
        object.__setattr__(self, "potential_split_share", potential_split_share)
        object.__setattr__(self, "realized_split_mass_share", realized_split_mass_share)

    def to_json_dict(self) -> dict:
        return {
            "component_type_counts": dict(self.component_type_counts),
            "fractional_edge_count": self.fractional_edge_count,
            "split_source_count": self.split_source_count,
            "potential_split_share": render_rational(self.potential_split_share),
            "realized_split_mass_share": (
                None
                if self.realized_split_mass_share is None
                else render_rational(self.realized_split_mass_share)
            ),
        }


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

        _require_clean(crossmap, array, TransformOptions())
        total, entering = _split_totals(crossmap, array)
        realized = ZERO if total == ZERO else entering / total
    return ImputationMetrics(
        component_type_counts=_type_counts(crossmap),
        fractional_edge_count=sum(1 for e in crossmap.edges if e.weight != ONE),
        split_source_count=len(split),
        potential_split_share=Fraction(len(split), len(crossmap.sources)),
        realized_split_mass_share=realized,
    )
