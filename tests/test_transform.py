"""The transform itself: exact redistribution, receipts, sequencing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crossmaps.algebra import compose, matvec_dense, to_matrix
from crossmaps.core import Crossmap, Edge, MassArray, identity_crossmap
from crossmaps.graph import imputation_metrics
from crossmaps.transform import (
    CoverageError,
    MissingValueError,
    NegativeMassError,
    TransformOptions,
    TransformReceipt,
    apply_sequence,
    apply_transform,
)
from crossmaps.validation import check_array, check_coverage

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

    def test_uncovered_mass_too_long_to_render_is_still_a_coverage_error(self):
        mass = Fraction(10**5000, 7)
        with pytest.raises(CoverageError) as excinfo:
            apply_transform(Crossmap([Edge("a", "x", ONE)]), MassArray({"a": 1, "z": mass}))
        assert excinfo.value.uncovered_keys == ("z",)
        assert excinfo.value.mass_at_risk == mass
        # The message states the mass's size instead of its digits.
        assert str(excinfo.value) == (
            "uncovered keys: z (mass at risk too long to render: "
            f"a {(10**5000).bit_length()}-bit numerator over a 3-bit denominator)"
        )

    def test_drop_and_report_accounts_for_everything(self, country_map):
        array = MassArray({"AUS": 1, "x7285!": 3895})
        options = TransformOptions(on_uncovered="drop_and_report")
        output, receipt = apply_transform(country_map, array, options)
        assert receipt.dropped_mass == Fraction(3895)
        assert receipt.input_total == receipt.output_total + receipt.dropped_mass
        assert output.total == Fraction(1)

    def test_misspelled_on_uncovered_refused(self):
        # A typo must not take the drop branch, which loses the uncovered mass.
        with pytest.raises(ValueError, match="'error', 'drop_and_report'"):
            TransformOptions(on_uncovered="erorr")
        with pytest.raises(ValueError, match="'error', 'drop_and_report'"):
            TransformOptions(True, "drop")

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


UNCOVERED_KEYS = ("u0", "u1", "u2")


def random_mass(rng: random.Random, kinds: str) -> Fraction | None:
    """An NA (``n``), negative (``-``), zero (``0``) or positive (``+``) mass, of a kind drawn from ``kinds``."""
    kind = rng.choice(kinds)
    if kind == "n":
        return None
    if kind == "0":
        return Fraction(0)
    value = Fraction(rng.randint(1, 999), rng.randint(1, 99))
    return -value if kind == "-" else value


def mixed_array(rng: random.Random, crossmap: Crossmap, kinds: str, uncovered: bool) -> MassArray:
    keys = rng.sample(crossmap.sources, rng.randint(1, len(crossmap.sources)))
    if uncovered:
        keys += rng.sample(UNCOVERED_KEYS, rng.randint(1, len(UNCOVERED_KEYS)))
    return MassArray({k: random_mass(rng, kinds) for k in keys})


def implied_refusal(crossmap: Crossmap, array: MassArray) -> tuple[type, tuple[str, ...]] | None:
    """The error check_array and then check_coverage imply: missing, then negative, then coverage."""
    findings = check_array(array)
    for code, error in (("missing_value", MissingValueError), ("negative_value", NegativeMassError)):
        keys = tuple(f.subject for f in findings if f.code == code)
        if keys:
            return error, keys
    coverage = check_coverage(crossmap, array)
    return None if coverage.conformable else (CoverageError, coverage.uncovered_keys)


def refusal(call) -> tuple[type, tuple[str, ...]] | None:
    try:
        call()
    except CoverageError as exc:
        return CoverageError, exc.uncovered_keys
    except (MissingValueError, NegativeMassError) as exc:
        return type(exc), exc.keys
    return None


class TestRefusalParity:
    @given(st.integers(0, 20_000))
    def test_transform_and_metrics_refuse_alike(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng)
        kinds = rng.choice(["n-0+", "-0+", "0+", "n0+", "n-"])
        array = mixed_array(rng, crossmap, kinds, uncovered=rng.random() < 0.5)
        expected = implied_refusal(crossmap, array)
        assert refusal(lambda: apply_transform(crossmap, array)) == expected
        assert refusal(lambda: imputation_metrics(crossmap, array)) == expected
        # Plainly: NA keys first, then negative keys, then keys without a row.
        missing = tuple(k for k, v in array.items() if v is None)
        negative = tuple(k for k, v in array.items() if v is not None and v < 0)
        uncovered = tuple(k for k in array if k not in crossmap.sources)
        plain = [
            (error, keys)
            for error, keys in ((MissingValueError, missing), (NegativeMassError, negative), (CoverageError, uncovered))
            if keys
        ]
        assert expected == (plain[0] if plain else None)

    @pytest.mark.parametrize(
        "extra, expected",
        [
            ({"zz": 0}, (CoverageError, ("zz",))),
            ({"zz": None}, (MissingValueError, ("zz",))),
            ({"zz": None, "AUS": -1}, (MissingValueError, ("zz",))),
            ({"zz": 0, "AUS": -1}, (NegativeMassError, ("AUS",))),
            ({"AUS": None, "BLX": -1, "zz": 0, "yy": None}, (MissingValueError, ("AUS", "yy"))),
        ],
        ids=["uncovered_zero", "uncovered_na", "na_before_negative", "negative_before_coverage", "all_na_keys"],
    )
    def test_refusal_order(self, country_map, extra, expected):
        array = MassArray({"AUS": 1, "BLX": 2, **extra})
        assert implied_refusal(country_map, array) == expected
        assert refusal(lambda: apply_transform(country_map, array)) == expected
        assert refusal(lambda: imputation_metrics(country_map, array)) == expected


class TestReceiptsAgainstPlainFractions:
    @given(
        st.integers(0, 20_000),
        st.sampled_from(["error", "drop_and_report"]),
        st.booleans(),
    )
    def test_receipt_and_output(self, seed, on_uncovered, emit_zero_targets):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng)
        array = mixed_array(rng, crossmap, "00+", uncovered=on_uncovered == "drop_and_report")
        options = TransformOptions(emit_zero_targets=emit_zero_targets, on_uncovered=on_uncovered)
        output, receipt = apply_transform(crossmap, array, options)

        fan_out = {s: sum(1 for e in crossmap.edges if e.source == s) for s in crossmap.sources}
        zero = Fraction(0)
        assert receipt.input_total == sum((v for v in array.values() if v), zero)
        assert receipt.dropped_mass == sum((v for k, v in array.items() if k not in fan_out), zero)
        assert receipt.split_mass == sum((v for k, v in array.items() if fan_out.get(k, 0) > 1), zero)
        assert receipt.output_total == sum(output.values(), zero)

        padded = tuple(array.get(k) or zero for k in crossmap.sources)
        expected = dict(zip(crossmap.targets, matvec_dense(to_matrix(crossmap), padded)))
        if not emit_zero_targets:
            expected = {t: v for t, v in expected.items() if v}
        assert dict(output.items()) == expected
        assert all(type(v) is Fraction for v in output.values())


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

    def test_chain_failure_with_a_mass_too_long_to_render_names_step(self):
        ident = identity_crossmap(["a"])
        with pytest.raises(CoverageError) as excinfo:
            apply_sequence([ident, ident], MassArray({"a": 1, "z": Fraction(10**5000, 7)}))
        assert excinfo.value.step == 0
        assert excinfo.value.uncovered_keys == ("z",)
        assert "at step 0" in str(excinfo.value)
