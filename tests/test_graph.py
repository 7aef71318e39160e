"""Component discovery, relation typing, summaries, imputation metrics."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crossmaps import graph
from crossmaps.algebra import compose
from crossmaps.core import Crossmap, Edge, MassArray, identity_crossmap
from crossmaps.datasets import occupation_recode
from crossmaps.graph import (
    Component,
    RelationType,
    components,
    imputation_metrics,
    summarize,
)
from crossmaps.transform import CoverageError, NegativeMassError

from helpers import country_crossmap, random_chain, random_crossmap, random_mass_array
from occupation_fixture import (
    EXPECTED_INCOMING_COUNTS,
    occupation_crossmap_from_rules,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


# Reference partition: the earlier breadth-first search over ("s"|"t", key)
# tuple nodes and the hub-rule classifier, kept verbatim as the oracle for
# the walk over Crossmap.outgoing/incoming and the key-count rule.
def _classify_edges(edges: tuple[Edge, ...]) -> RelationType:
    # Single-edge components are renames, full stop; the hub rule below
    # would also match them, so this check runs first.
    if len(edges) == 1:
        return "one_to_one"
    degree: dict[tuple[str, str], int] = {}
    for e in edges:
        degree[("s", e.source)] = degree.get(("s", e.source), 0) + 1
        degree[("t", e.target)] = degree.get(("t", e.target), 0) + 1
    hubs = [node for node, d in degree.items() if d == len(edges)]
    if len(hubs) == 1 and all(d == 1 for node, d in degree.items() if node != hubs[0]):
        return "one_to_many" if hubs[0][0] == "s" else "many_to_one"
    return "many_to_many"


def _reference_components(crossmap: Crossmap) -> tuple[Component, ...]:
    adjacency: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for e in crossmap.edges:
        s, t = ("s", e.source), ("t", e.target)
        adjacency.setdefault(s, []).append(t)
        adjacency.setdefault(t, []).append(s)

    outgoing = crossmap.outgoing
    seen: set[tuple[str, str]] = set()
    out: list[Component] = []
    for start_key in crossmap.sources:
        start = ("s", start_key)
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        member_sources: set[str] = set()
        member_targets: set[str] = set()
        while queue:
            node = queue.popleft()
            side, key = node
            (member_sources if side == "s" else member_targets).add(key)
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        sources = tuple(sorted(member_sources))
        # Each source's outgoing edges are already in canonical order.
        edges = tuple(e for s in sources for e in outgoing[s])
        relation = _classify_edges(edges)
        if relation in ("one_to_one", "many_to_one"):
            assert all(e.weight == ONE for e in edges), "non-split component with fractional weight"
        out.append(
            Component(
                sources=sources,
                targets=tuple(sorted(member_targets)),
                edges=edges,
                relation_type=relation,
            )
        )
    return tuple(out)


def _with_shared_key_text(crossmap: Crossmap) -> Crossmap:
    # Renames target tN to sN, so sources and targets share key text and
    # some edges become identity edges sN -> sN.
    return Crossmap(Edge(e.source, "s" + e.target[1:], e.weight) for e in crossmap.edges)


@pytest.fixture
def occupation_splits_map() -> Crossmap:
    """Three-component fixture: an aggregation, a rename, and overlapping splits."""
    return Crossmap(
        [
            Edge("111311", "1111", ONE),
            Edge("111312", "1111", ONE),
            Edge("111399", "1111", ONE),
            Edge("111212", "0110", ONE),
            Edge("111111", "1112", THIRD),
            Edge("111111", "1114", THIRD),
            Edge("111111", "1120", THIRD),
            Edge("111211", "1114", HALF),
            Edge("111211", "1120", HALF),
        ]
    )


class TestComponents:
    def test_three_disjoint_subgraphs(self, occupation_splits_map):
        found = components(occupation_splits_map)
        assert len(found) == 3
        assert [c.relation_type for c in found] == ["many_to_many", "one_to_one", "many_to_one"]
        aggregation = found[2]
        assert aggregation.sources == ("111311", "111312", "111399")
        assert aggregation.targets == ("1111",)

    def test_ordered_by_smallest_source_key(self, occupation_splits_map):
        found = components(occupation_splits_map)
        assert [c.sources[0] for c in found] == ["111111", "111212", "111311"]

    def test_identity_map_gives_one_component_per_key(self):
        found = components(identity_crossmap([f"k{i}" for i in range(5)]))
        assert len(found) == 5
        assert all(c.relation_type == "one_to_one" for c in found)

    def test_shared_key_text_on_both_sides_stays_one_component(self):
        # AUS -> AUS identity edge: source node and target node are distinct.
        crossmap = Crossmap([Edge("AUS", "AUS", ONE)])
        (component,) = components(crossmap)
        assert component.sources == component.targets == ("AUS",)

    @given(st.integers(0, 10_000))
    def test_components_partition_the_edge_set(self, seed):
        crossmap = random_crossmap(random.Random(seed))
        found = components(crossmap)
        gathered = [e for c in found for e in c.edges]
        assert sorted(gathered, key=lambda e: (e.source, e.target)) == list(crossmap.edges)
        assert len(gathered) == len(crossmap.edges)

    @given(st.integers(0, 10_000))
    def test_invariant_under_edge_reordering(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng, max_sources=6, max_targets=6)
        edges = list(crossmap.edges)
        rng.shuffle(edges)
        assert components(Crossmap(edges)) == components(crossmap)

    @given(st.integers(0, 10_000), st.booleans())
    def test_matches_reference_partition(self, seed, shared_key_text):
        crossmap = random_crossmap(random.Random(seed))
        if shared_key_text:
            crossmap = _with_shared_key_text(crossmap)
        assert components(crossmap) == _reference_components(crossmap)

    @given(st.integers(0, 10_000))
    def test_non_split_components_have_unit_weights(self, seed):
        crossmap = random_crossmap(random.Random(seed))
        for component in components(crossmap):
            if component.relation_type in ("one_to_one", "many_to_one"):
                assert all(e.weight == ONE for e in component.edges)


class TestClassify:
    def test_single_edge_is_one_to_one_despite_hub_rule(self):
        (component,) = components(Crossmap([Edge("a", "b", ONE)]))
        assert component.relation_type == "one_to_one"

    def test_one_to_many_when_hub_is_a_source(self):
        crossmap = Crossmap([Edge("s", "t1", HALF), Edge("s", "t2", HALF)])
        (component,) = components(crossmap)
        assert component.relation_type == "one_to_many"

    def test_many_to_one_when_hub_is_a_target(self):
        crossmap = Crossmap([Edge("s1", "t", ONE), Edge("s2", "t", ONE)])
        (component,) = components(crossmap)
        assert component.relation_type == "many_to_one"

    def test_overlapping_splits_are_many_to_many(self, occupation_splits_map):
        overlapping = components(occupation_splits_map)[0]
        assert overlapping.relation_type == "many_to_many"

    @given(st.integers(0, 10_000))
    def test_type_counts_sum_to_component_count(self, seed):
        crossmap = random_crossmap(random.Random(seed))
        found = components(crossmap)
        counts = summarize(crossmap).component_type_counts
        assert sum(counts.values()) == len(found)


class TestSummarize:
    def test_occupation_aggregation_counts(self):
        summary = summarize(occupation_crossmap_from_rules())
        counts = {row.target: row.incoming_count for row in summary.target_rows}
        assert counts == EXPECTED_INCOMING_COUNTS
        assert summary.edge_count == 329
        assert summary.edge_count == sum(counts.values()) == summary.source_count
        assert summary.target_count == 12
        type_counts = summary.component_type_counts
        assert type_counts["many_to_one"] == 11
        assert type_counts["one_to_one"] == 1
        assert sum(type_counts.values()) == 12

    def test_rows_sorted_by_count_then_target(self):
        summary = summarize(occupation_crossmap_from_rules())
        ordered = [(row.incoming_count, row.target) for row in summary.target_rows]
        assert ordered == sorted(ordered, key=lambda pair: (-pair[0], pair[1]))
        assert summary.target_rows[0].target == "assprofclerk"
        assert summary.target_rows[-1].target == "xefe"

    def test_incoming_keys_complete_and_sorted(self):
        summary = summarize(occupation_crossmap_from_rules())
        by_target = {row.target: row.incoming_keys for row in summary.target_rows}
        assert by_target["teacher"] == (
            "2410", "2421", "2422", "2431", "2432", "2440", "2450", "2461", "2462", "2469",
        )
        assert by_target["armforces"] == ("110", "120", "140", "190")
        assert by_target["xefe"] == ("1130",)

    @given(st.integers(0, 10_000), st.booleans())
    def test_rows_match_a_scan_of_the_edges(self, seed, shared_key_text):
        crossmap = random_crossmap(random.Random(seed))
        if shared_key_text:
            crossmap = _with_shared_key_text(crossmap)
        incoming: dict[str, list[str]] = {}
        for e in crossmap.edges:
            incoming.setdefault(e.target, []).append(e.source)
        expected = sorted(
            ((-len(keys), t, tuple(sorted(keys))) for t, keys in incoming.items())
        )
        rows = summarize(crossmap).target_rows
        assert [(-r.incoming_count, r.target, r.incoming_keys) for r in rows] == expected

    def test_identity_map_every_target_has_one_incoming(self):
        summary = summarize(identity_crossmap(["a", "b", "c"]))
        assert all(row.incoming_count == 1 for row in summary.target_rows)


class TestImputationMetrics:
    def test_one_to_one_only_is_zero_baseline(self):
        crossmap = Crossmap([Edge("a", "x", ONE), Edge("b", "y", ONE)])
        metrics = imputation_metrics(crossmap)
        assert metrics.potential_split_share == 0
        assert metrics.fractional_edge_count == 0
        assert metrics.split_source_count == 0

    def test_country_mass_all_on_split_source(self):
        crossmap = country_crossmap()
        array = MassArray({"BLX": 100, "AUS": 0, "E.GER": 0, "W.GER": 0})
        metrics = imputation_metrics(crossmap, array)
        assert metrics.realized_split_mass_share == ONE
        assert metrics.potential_split_share == Fraction(1, 4)
        assert metrics.fractional_edge_count == 2

    def test_realized_share_tracks_where_mass_sits(self, occupation_splits_map):
        # Split sources here are 111111 and 111211; 111212 is a pure rename.
        mostly_renamed = MassArray({"111212": 90, "111111": 10})
        mostly_split = MassArray({"111212": 10, "111111": 90})
        low = imputation_metrics(occupation_splits_map, mostly_renamed)
        high = imputation_metrics(occupation_splits_map, mostly_split)
        assert low.realized_split_mass_share == Fraction(1, 10)
        assert high.realized_split_mass_share == Fraction(9, 10)
        assert low.realized_split_mass_share < high.realized_split_mass_share

    @given(st.integers(0, 10_000))
    def test_one_to_one_only_realizes_zero_for_any_array(self, seed):
        rng = random.Random(seed)
        keys = tuple(f"k{i}" for i in range(rng.randint(1, 8)))
        renaming = Crossmap([Edge(k, f"R_{k}", ONE) for k in keys])
        array = random_mass_array(rng, keys, subset=True)
        assert imputation_metrics(renaming, array).realized_split_mass_share == 0

    def test_structure_only_when_no_array(self, occupation_splits_map):
        assert imputation_metrics(occupation_splits_map).realized_split_mass_share is None

    def test_coverage_failure_when_array_not_conformable(self, occupation_splits_map):
        with pytest.raises(CoverageError):
            imputation_metrics(occupation_splits_map, MassArray({"nope": 1}))

    def test_negative_mass_refused_like_the_transform(self, occupation_splits_map):
        with pytest.raises(NegativeMassError):
            imputation_metrics(occupation_splits_map, MassArray({"111111": -3}))

    def test_components_built_once_per_crossmap(self, occupation_splits_map, monkeypatch):
        calls = []
        find = graph._find_components
        monkeypatch.setattr(graph, "_find_components", lambda m: calls.append(m) or find(m))
        summarize(occupation_splits_map)
        imputation_metrics(occupation_splits_map, MassArray({"111111": 1}))
        assert components(occupation_splits_map)[0].sources == ("111111", "111211")
        assert len(calls) == 1

    def test_zero_total_array_realizes_zero(self, occupation_splits_map):
        array = MassArray({"111111": 0, "111212": 0})
        assert imputation_metrics(occupation_splits_map, array).realized_split_mass_share == 0


def assert_counts_match_a_scan_of_the_edges(crossmap: Crossmap) -> None:
    assert imputation_metrics(crossmap).fractional_edge_count == sum(e.weight != 1 for e in crossmap.edges)
    assert summarize(crossmap).edge_count == len(crossmap.edges)


class TestEdgeCounts:
    @given(st.integers(0, 10_000))
    def test_random_maps(self, seed):
        assert_counts_match_a_scan_of_the_edges(random_crossmap(random.Random(seed)))

    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_composed_chains(self, seed, length):
        chain = random_chain(random.Random(seed), length=length)
        composed = chain[0]
        for step in chain[1:]:
            composed = compose(composed, step)
        assert_counts_match_a_scan_of_the_edges(composed)

    def test_occupation_recode(self):
        assert_counts_match_a_scan_of_the_edges(occupation_recode())
