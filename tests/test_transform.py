"""The transform itself: exact redistribution, receipts, sequencing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crossmaps.algebra import compose, matvec_dense, to_matrix
from crossmaps.core import Crossmap, Edge, MassArray, identity_crossmap
from crossmaps.transform import (
    CoverageError,
    MissingValueError,
    NegativeMassError,
    TransformOptions,
    TransformReceipt,
    apply_sequence,
    apply_transform,
)

from helpers import country_crossmap, random_chain, random_crossmap, random_mass_array

ONE = Fraction(1)
HALF = Fraction(1, 2)


@pytest.fixture
def country_map() -> Crossmap:
    return country_crossmap()


class TestApplyTransform:
    def test_country_example(self, country_map):
        array = MassArray({"BLX": 10, "E.GER": 3, "W.GER": 4, "AUS": 140})
        output, receipt = apply_transform(country_map, array)
        assert dict(output.items()) == {
            "AUS": Fraction(140),
            "BEL": Fraction(5),
            "DEU": Fraction(7),
            "LUX": Fraction(5),
        }
        assert receipt.input_total == Fraction(157)
        assert receipt.output_total == Fraction(157)
        assert receipt.dropped_mass == 0
        assert receipt.split_mass == Fraction(10)  # only BLX splits

    def test_equal_three_way_split_is_exact(self):
        crossmap = Crossmap([Edge("s", f"t{i}", Fraction(1, 3)) for i in range(3)])
        output, receipt = apply_transform(crossmap, MassArray({"s": 1}))
        assert all(v == Fraction(1, 3) for v in output.values())
        assert output.total == ONE
        assert receipt.output_total == receipt.input_total

    def test_emit_zero_targets_default(self, country_map):
        output, _ = apply_transform(country_map, MassArray({"AUS": 1}))
        assert dict(output.items()) == {
            "AUS": Fraction(1),
            "BEL": Fraction(0),
            "DEU": Fraction(0),
            "LUX": Fraction(0),
        }

    def test_drop_zero_targets_flag(self, country_map):
        options = TransformOptions(emit_zero_targets=False)
        output, _ = apply_transform(country_map, MassArray({"AUS": 1}), options)
        assert dict(output.items()) == {"AUS": Fraction(1)}

    def test_uncovered_key_errors_by_default(self, country_map):
        array = MassArray({"AUS": 1, "x7285!": 3895})
        with pytest.raises(CoverageError) as excinfo:
            apply_transform(country_map, array)
        assert excinfo.value.uncovered_keys == ("x7285!",)
        assert excinfo.value.mass_at_risk == Fraction(3895)

    def test_drop_and_report_accounts_for_everything(self, country_map):
        array = MassArray({"AUS": 1, "x7285!": 3895})
        options = TransformOptions(on_uncovered="drop_and_report")
        output, receipt = apply_transform(country_map, array, options)
        assert receipt.dropped_mass == Fraction(3895)
        assert receipt.input_total == receipt.output_total + receipt.dropped_mass
        assert output.total == Fraction(1)

    def test_missing_values_refused(self, country_map):
        with pytest.raises(MissingValueError) as excinfo:
            apply_transform(country_map, MassArray({"AUS": None}))
        assert excinfo.value.keys == ("AUS",)

    def test_negative_masses_refused(self, country_map):
        with pytest.raises(NegativeMassError):
            apply_transform(country_map, MassArray({"AUS": Fraction(-1)}))

    @given(st.integers(0, 20_000))
    def test_matches_dense_matrix_oracle(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng)
        array = random_mass_array(rng, crossmap.sources, subset=True)
        output, _ = apply_transform(crossmap, array)

        matrix = to_matrix(crossmap)
        padded = tuple(array.get(k) or Fraction(0) for k in crossmap.sources)
        expected = matvec_dense(matrix, padded)
        assert tuple(output[t] for t in crossmap.targets) == expected

    @given(st.integers(0, 20_000))
    def test_mass_conserved_exactly(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng)
        array = random_mass_array(rng, crossmap.sources, subset=True)
        output, receipt = apply_transform(crossmap, array)
        assert output.total == array.total
        assert receipt.input_total == receipt.output_total

    @given(st.integers(0, 20_000))
    def test_pure_renaming_preserves_value_multiset(self, seed):
        rng = random.Random(seed)
        keys = tuple(f"k{i}" for i in range(rng.randint(1, 10)))
        renaming = Crossmap([Edge(k, f"R_{k}", ONE) for k in keys])
        array = random_mass_array(rng, keys)
        output, _ = apply_transform(renaming, array)
        assert sorted(output.values()) == sorted(array.values())

    def test_permutation_invariance(self, country_map):
        array_a = MassArray([("BLX", 10), ("AUS", 140), ("E.GER", 3), ("W.GER", 4)])
        array_b = MassArray([("W.GER", 4), ("E.GER", 3), ("AUS", 140), ("BLX", 10)])
        shuffled_map = Crossmap(reversed(country_map.edges))
        assert apply_transform(country_map, array_a) == apply_transform(shuffled_map, array_b)


class TestReceipt:
    def test_unbalanced_receipt_rejected(self):
        with pytest.raises(ValueError):
            TransformReceipt(
                input_total=Fraction(2),
                output_total=Fraction(1),
                dropped_mass=Fraction(0),
                split_mass=Fraction(0),
            )

    def test_json_uses_exact_text(self, country_map):
        _, receipt = apply_transform(country_map, MassArray({"BLX": 1}))
        d = receipt.to_json_dict()
        assert d == {
            "input_total": "1",
            "output_total": "1",
            "dropped_mass": "0",
            "split_mass": "1",
        }


class TestApplySequence:
    def test_identity_chain(self):
        array = MassArray({"a": 3, "b": 4})
        ident = identity_crossmap(["a", "b"])
        output, receipts = apply_sequence([ident, ident], array)
        assert output == array
        assert len(receipts) == 2
        assert all(r.input_total == r.output_total == Fraction(7) for r in receipts)

    @given(st.integers(0, 10_000))
    def test_equals_composed_single_step(self, seed):
        rng = random.Random(seed)
        first, second = random_chain(rng, length=2)
        array = random_mass_array(rng, first.sources, subset=True)
        chained, receipts = apply_sequence([first, second], array)
        collapsed, _ = apply_transform(compose(first, second), array)
        assert chained == collapsed
        assert all(r.input_total == r.output_total for r in receipts)

    def test_chain_failure_names_step(self):
        step0 = Crossmap([Edge("a", "m", ONE)])
        step1 = Crossmap([Edge("other", "z", ONE)])  # does not cover "m"
        with pytest.raises(CoverageError) as excinfo:
            apply_sequence([step0, step1], MassArray({"a": 5}))
        assert excinfo.value.step == 1
        assert excinfo.value.uncovered_keys == ("m",)
