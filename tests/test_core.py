"""Core types: exact parsing, crossmap construction, validation findings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crossmaps import core
from crossmaps.core import (
    Crossmap,
    Edge,
    EdgeListDraft,
    InvalidCrossmapError,
    MassArray,
    ValidationReport,
    build_crossmap,
    clean_key,
    identity_crossmap,
    parse_rational,
    render_rational,
    validate_draft,
)
from crossmaps.transform import apply_transform

from helpers import random_crossmap

ONE = Fraction(1)
HALF = Fraction(1, 2)


def country_draft() -> EdgeListDraft:
    return EdgeListDraft(
        [
            Edge("BLX", "BEL", HALF),
            Edge("BLX", "LUX", HALF),
            Edge("E.GER", "DEU", ONE),
            Edge("W.GER", "DEU", ONE),
            Edge("AUS", "AUS", ONE),
        ]
    )


class TestParseRational:
    def test_plain_fraction(self):
        assert parse_rational("1/3") == Fraction(1, 3)

    def test_decimal_half(self):
        assert parse_rational("0.5") == Fraction(1, 2)

    def test_decimal_tenth_is_exact_base_ten(self):
        parsed = parse_rational("0.1")
        assert parsed == Fraction(1, 10)
        assert parsed != Fraction(0.1)  # not the binary double nearest 0.1

    def test_integer_and_signs(self):
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("+.25") == Fraction(1, 4)
        assert parse_rational("2.") == Fraction(2)

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1e5", "1_000", "1/ ", "1//2", "0x3", "nan"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(st.fractions())
    def test_render_then_parse_is_identity(self, value):
        assert parse_rational(render_rational(value)) == value


class TestKeys:
    def test_trimmed(self):
        assert clean_key("  BLX ") == "BLX"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clean_key("   ")

    def test_byte_exact_comparison(self):
        assert Edge("a", "b", ONE) != Edge("A", "b", ONE)


class TestEdge:
    def test_strips_keys(self):
        edge = Edge(" BLX", "BEL ", HALF)
        assert (edge.source, edge.target) == ("BLX", "BEL")

    def test_rejects_float_weight(self):
        for weight in (0.5, True):
            with pytest.raises(TypeError):
                Edge("a", "b", weight)

    def test_int_weight_coerced_exactly(self):
        assert Edge("a", "b", 1).weight == Fraction(1)


class TestBuildCrossmap:
    def test_country_table_is_valid(self):
        built = build_crossmap(country_draft())
        assert isinstance(built, Crossmap)
        assert built.sources == ("AUS", "BLX", "E.GER", "W.GER")
        assert built.targets == ("AUS", "BEL", "DEU", "LUX")
        assert len(built.edges) == 5

    def test_bad_sum_reported_with_exact_total(self):
        draft = EdgeListDraft(
            [Edge("BLX", "BEL", HALF), Edge("BLX", "LUX", Fraction(2, 5))]
        )
        report = build_crossmap(draft)
        assert isinstance(report, ValidationReport)
        (finding,) = report.errors
        assert finding.code == "weight_sum_not_one"
        assert finding.subject == "BLX"
        assert finding.value == Fraction(9, 10)

    def test_duplicate_edge_reported(self):
        report = build_crossmap(EdgeListDraft([Edge("A", "B", ONE), Edge("A", "B", ONE)]))
        assert isinstance(report, ValidationReport)
        assert any(f.code == "duplicate_edge" for f in report.findings)

    def test_out_of_range_weights_reported(self):
        draft = EdgeListDraft(
            [Edge("a", "b", Fraction(3, 2)), Edge("c", "d", Fraction(-1, 2)), Edge("c", "e", Fraction(3, 2))]
        )
        report = build_crossmap(draft)
        assert isinstance(report, ValidationReport)
        range_findings = [f for f in report.findings if f.code == "weight_out_of_range"]
        assert len(range_findings) == 3

    def test_empty_draft_rejected(self):
        report = build_crossmap(EdgeListDraft([]))
        assert isinstance(report, ValidationReport)
        assert report.findings[0].code == "no_edges"

    def test_all_problems_reported_in_one_pass(self):
        draft = EdgeListDraft(
            [
                Edge("a", "b", HALF),
                Edge("a", "b", HALF),
                Edge("x", "y", Fraction(2)),
            ]
        )
        report = build_crossmap(draft)
        assert isinstance(report, ValidationReport)
        codes = {f.code for f in report.findings}
        assert codes == {"duplicate_edge", "weight_out_of_range", "weight_sum_not_one"}

    @given(st.integers(0, 10_000), st.randoms(use_true_random=False))
    def test_order_insensitive(self, seed, shuffler):
        crossmap = random_crossmap(random.Random(seed), max_sources=6, max_targets=6)
        shuffled = list(crossmap.edges)
        shuffler.shuffle(shuffled)
        rebuilt = build_crossmap(EdgeListDraft(shuffled))
        assert rebuilt == crossmap

    @given(st.integers(0, 10_000))
    def test_every_source_sums_to_one_exactly(self, seed):
        crossmap = random_crossmap(random.Random(seed))
        for source in crossmap.sources:
            assert sum(e.weight for e in crossmap.outgoing[source]) == ONE

    def test_validate_draft_matches_build(self):
        good, bad = country_draft(), EdgeListDraft([Edge("a", "b", HALF)])
        assert validate_draft(good).ok
        assert isinstance(build_crossmap(good), Crossmap)
        assert not validate_draft(bad).ok
        assert isinstance(build_crossmap(bad), ValidationReport)

    def test_valid_build_runs_one_validation_pass(self, monkeypatch):
        calls = []
        validate = core._validate_edges
        monkeypatch.setattr(core, "_validate_edges", lambda edges: calls.append(edges) or validate(edges))
        assert isinstance(build_crossmap(country_draft()), Crossmap)
        assert len(calls) == 1

    def test_constructor_error_carries_the_build_report(self):
        draft = EdgeListDraft([Edge("BLX", "BEL", HALF)])
        with pytest.raises(InvalidCrossmapError, match="invalid crossmap") as excinfo:
            Crossmap(draft.edges)
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.report == build_crossmap(draft)


class TestIdentityCrossmap:
    def test_single_key(self):
        crossmap = identity_crossmap(["AUS"])
        assert crossmap.edges == (Edge("AUS", "AUS", ONE),)

    def test_two_keys(self):
        crossmap = identity_crossmap(["a", "b"])
        assert crossmap.edges == (Edge("a", "a", ONE), Edge("b", "b", ONE))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            identity_crossmap([])

    @given(st.integers(0, 10_000))
    def test_identity_law(self, seed):
        rng = random.Random(seed)
        keys = tuple(f"k{i}" for i in range(rng.randint(1, 8)))
        array = MassArray({k: Fraction(rng.randint(0, 50), rng.randint(1, 9)) for k in keys})
        out, _ = apply_transform(identity_crossmap(keys), array)
        assert out == array


class TestMassArray:
    def test_rejects_float(self):
        for value in (0.5, True):
            with pytest.raises(TypeError):
                MassArray({"a": value})

    def test_rejects_duplicate_keys_after_trimming(self):
        with pytest.raises(ValueError):
            MassArray([("a", 1), (" a", 2)])

    def test_total_ignores_missing(self):
        array = MassArray({"a": Fraction(3), "b": None, "c": Fraction(1, 2)})
        assert array.total == Fraction(7, 2)
        assert array.missing_keys() == ("b",)

    def test_equality_is_order_independent(self):
        assert MassArray([("b", 1), ("a", 2)]) == MassArray([("a", 2), ("b", 1)])

    def test_immutable(self):
        array = MassArray({"a": 1})
        with pytest.raises(TypeError):
            array["a"] = 2  # Mapping, not MutableMapping
