"""Standalone checks: weight sums, coverage, array hygiene."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from crossmaps.core import (
    Crossmap,
    Edge,
    EdgeListDraft,
    MassArray,
    build_crossmap,
)
from crossmaps.transform import apply_transform
from crossmaps.validation import check_array, check_coverage, check_mass_preserving

from helpers import random_crossmap, random_mass_array

ONE = Fraction(1)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class TestMassPreserving:
    def test_country_table_ok(self):
        draft = EdgeListDraft(
            [
                Edge("BLX", "BEL", HALF),
                Edge("BLX", "LUX", HALF),
                Edge("E.GER", "DEU", ONE),
                Edge("W.GER", "DEU", ONE),
                Edge("AUS", "AUS", ONE),
            ]
        )
        assert check_mass_preserving(draft).ok

    def test_short_sum_named_with_exact_value(self):
        draft = EdgeListDraft([Edge("BLX", "BEL", HALF), Edge("BLX", "LUX", Fraction(2, 5))])
        report = check_mass_preserving(draft)
        (finding,) = report.errors
        assert (finding.subject, finding.value) == ("BLX", Fraction(9, 10))

    def test_three_way_equal_split_sums_exactly(self):
        # The classic floating-point trap: 1/3 + 1/3 + 1/3 must equal 1, no tolerance.
        draft = EdgeListDraft([Edge("s", f"t{i}", THIRD) for i in range(3)])
        assert check_mass_preserving(draft).ok

    @given(st.integers(0, 5_000))
    def test_agrees_with_build_crossmap_on_valid_drafts(self, seed):
        crossmap = random_crossmap(random.Random(seed), max_sources=6, max_targets=6)
        draft = EdgeListDraft(crossmap.edges)
        assert check_mass_preserving(draft).ok
        assert isinstance(build_crossmap(draft), Crossmap)

    @given(st.integers(0, 5_000))
    def test_agrees_with_build_crossmap_on_corrupted_drafts(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng, max_sources=6, max_targets=6)
        edges = list(crossmap.edges)
        victim = rng.randrange(len(edges))
        edges[victim] = Edge(
            edges[victim].source, edges[victim].target, edges[victim].weight + Fraction(1, 7)
        )
        draft = EdgeListDraft(edges)
        report = check_mass_preserving(draft)
        assert not report.ok
        assert not isinstance(build_crossmap(draft), Crossmap)


def one_to_one_map(*keys: str) -> Crossmap:
    return Crossmap([Edge(k, k.upper(), ONE) for k in keys])


class TestCoverage:
    def test_uncovered_key_and_mass_at_risk(self):
        crossmap = one_to_one_map("a1", "b2")
        array = MassArray({"a1": 7, "x7285!": 3895})
        report = check_coverage(crossmap, array)
        assert not report.conformable
        assert report.uncovered_keys == ("x7285!",)
        assert report.mass_at_risk == Fraction(3895)

    def test_subset_is_conformable(self):
        crossmap = one_to_one_map("a", "b", "c")
        report = check_coverage(crossmap, MassArray({"a": 1}))
        assert report.conformable
        assert report.mass_at_risk == 0

    def test_empty_array_vacuously_conformable(self):
        report = check_coverage(one_to_one_map("a"), MassArray({}))
        assert report.conformable
        assert report.uncovered_keys == ()

    @given(st.integers(0, 5_000))
    def test_mass_at_risk_equals_naive_inner_join_loss(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng, max_sources=6, max_targets=6)
        keys = crossmap.sources + tuple(f"extra{i}" for i in range(rng.randint(0, 3)))
        array = random_mass_array(rng, keys, subset=True)

        # Deliberately naive reference: join rows that match, drop the rest.
        naive_output_total = sum(
            (
                array[k] * e.weight
                for k in array
                if k in set(crossmap.sources)
                for e in crossmap.outgoing[k]
            ),
            Fraction(0),
        )
        loss = array.total - naive_output_total
        assert check_coverage(crossmap, array).mass_at_risk == loss

    @given(st.integers(0, 5_000))
    def test_conformable_implies_transform_conserves_total(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng, max_sources=6, max_targets=6)
        array = random_mass_array(rng, crossmap.sources, subset=True)
        assert check_coverage(crossmap, array).conformable
        output, receipt = apply_transform(crossmap, array)
        assert output.total == array.total
        assert receipt.dropped_mass == 0


class TestCheckArray:
    def test_missing_value_flagged(self):
        (finding,) = check_array(MassArray({"x5555": None}))
        assert (finding.subject, finding.code) == ("x5555", "missing_value")
        assert "replace" in finding.message

    def test_zero_fine_under_allow_zero(self):
        assert check_array(MassArray({"a": 0})) == ()

    def test_negative_always_flagged(self):
        (finding,) = check_array(MassArray({"a": Fraction(-3)}))
        assert finding.code == "negative_value"
        assert finding.value == Fraction(-3)

    def test_negative_mass_too_long_to_print_is_still_flagged(self):
        value = -Fraction(10**5000, 7)
        (finding,) = check_array(MassArray({"a": value}))
        assert (finding.code, finding.value) == ("negative_value", value)
        assert finding.message == f"'a' has negative mass too long to render: a {(10**5000).bit_length()}-bit numerator over a 3-bit denominator"

    def test_clean_array_has_no_findings(self):
        assert check_array(MassArray({"a": 1, "b": Fraction(1, 3)})) == ()
