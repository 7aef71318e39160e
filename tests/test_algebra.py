"""Matrix encoding, dense oracle, composition, reversal."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crossmaps.algebra import (
    CompositionError,
    compose,
    matvec_dense,
    reverse,
    to_matrix,
)
from crossmaps.core import (
    Crossmap,
    Edge,
    EdgeListDraft,
    MassArray,
    ValidationReport,
    identity_crossmap,
    validate_draft,
)
from crossmaps.transform import apply_transform

from helpers import random_chain, random_crossmap

ONE = Fraction(1)
HALF = Fraction(1, 2)


@pytest.fixture
def country_map() -> Crossmap:
    return Crossmap(
        [
            Edge("BLX", "BEL", HALF),
            Edge("BLX", "LUX", HALF),
            Edge("E.GER", "DEU", ONE),
            Edge("W.GER", "DEU", ONE),
            Edge("AUS", "AUS", ONE),
        ]
    )


class TestToMatrix:
    def test_country_grid(self, country_map):
        matrix = to_matrix(country_map)
        assert matrix.row_keys == ("AUS", "BLX", "E.GER", "W.GER")
        assert matrix.col_keys == ("AUS", "BEL", "DEU", "LUX")
        Z = Fraction(0)
        assert matrix.cells == (
            (ONE, Z, Z, Z),
            (Z, HALF, Z, HALF),
            (Z, Z, ONE, Z),
            (Z, Z, ONE, Z),
        )

    def test_row_sums_are_all_ones(self, country_map):
        assert to_matrix(country_map).row_sums() == (ONE, ONE, ONE, ONE)

    def test_identity_grid(self):
        matrix = to_matrix(identity_crossmap(["a", "b", "c"]))
        for j, row in enumerate(matrix.cells):
            assert all(cell == (ONE if k == j else 0) for k, cell in enumerate(row))

    @given(st.integers(0, 10_000))
    def test_row_sums_property(self, seed):
        crossmap = random_crossmap(random.Random(seed))
        assert all(s == ONE for s in to_matrix(crossmap).row_sums())

    @given(st.integers(0, 10_000))
    def test_nonzero_cells_are_exactly_the_edges(self, seed):
        crossmap = random_crossmap(random.Random(seed), max_sources=6, max_targets=6)
        matrix = to_matrix(crossmap)
        cells = {
            (matrix.row_keys[j], matrix.col_keys[k]): cell
            for j, row in enumerate(matrix.cells)
            for k, cell in enumerate(row)
            if cell != 0
        }
        assert cells == {(e.source, e.target): e.weight for e in crossmap.edges}

    def test_csv_export(self, country_map):
        text = to_matrix(country_map).to_csv()
        assert text.splitlines()[0] == ",AUS,BEL,DEU,LUX"
        assert text.splitlines()[2] == "BLX,0,1/2,0,1/2"


class TestMatvec:
    def test_country_vector(self, country_map):
        matrix = to_matrix(country_map)
        # x ordered by sorted sources (AUS, BLX, E.GER, W.GER)
        y = matvec_dense(matrix, (Fraction(140), Fraction(10), Fraction(3), Fraction(4)))
        # y ordered by sorted targets (AUS, BEL, DEU, LUX)
        assert y == (Fraction(140), Fraction(5), Fraction(7), Fraction(5))

    def test_identity_vector_probe_returns_column_of_weights(self, country_map):
        matrix = to_matrix(country_map)
        j = matrix.row_keys.index("BLX")
        basis = tuple(ONE if i == j else Fraction(0) for i in range(len(matrix.row_keys)))
        assert matvec_dense(matrix, basis) == (Fraction(0), HALF, Fraction(0), HALF)

    def test_zero_vector(self, country_map):
        matrix = to_matrix(country_map)
        zeros = (Fraction(0),) * 4
        assert matvec_dense(matrix, zeros) == zeros

    def test_dimension_mismatch(self, country_map):
        with pytest.raises(ValueError):
            matvec_dense(to_matrix(country_map), (ONE,))

    @given(st.integers(0, 10_000))
    def test_equals_transform_on_full_arrays(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng, max_sources=8, max_targets=8)
        values = {k: Fraction(rng.randint(0, 99), rng.randint(1, 9)) for k in crossmap.sources}
        output, _ = apply_transform(crossmap, MassArray(values))
        matrix = to_matrix(crossmap)
        y = matvec_dense(matrix, tuple(values[k] for k in matrix.row_keys))
        assert tuple(output[t] for t in matrix.col_keys) == y


class TestCompose:
    def test_right_identity(self, country_map):
        assert compose(country_map, identity_crossmap(country_map.targets)) == country_map

    def test_left_identity(self, country_map):
        assert compose(identity_crossmap(country_map.sources), country_map) == country_map

    def test_split_then_merge_collapses(self):
        split = Crossmap([Edge("a", "m", HALF), Edge("a", "n", HALF)])
        merge = Crossmap([Edge("m", "z", ONE), Edge("n", "z", ONE)])
        assert compose(split, merge) == Crossmap([Edge("a", "z", ONE)])

    def test_chain_coverage_failure_lists_keys(self):
        first = Crossmap([Edge("a", "m", HALF), Edge("a", "n", HALF)])
        second = Crossmap([Edge("m", "z", ONE)])
        with pytest.raises(CompositionError) as excinfo:
            compose(first, second)
        assert excinfo.value.unmatched == ("n",)

    @given(st.integers(0, 5_000))
    def test_associative(self, seed):
        a, b, c = random_chain(random.Random(seed), length=3, max_keys=6)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(st.integers(0, 5_000))
    def test_product_is_row_stochastic(self, seed):
        a, b = random_chain(random.Random(seed), length=2, max_keys=6)
        assert all(s == ONE for s in to_matrix(compose(a, b)).row_sums())


class TestReverse:
    def test_identity_reverses_to_itself(self):
        ident = identity_crossmap(["a", "b"])
        assert reverse(ident) == ident

    def test_aggregation_cannot_reverse(self):
        aggregation = Crossmap(
            [
                Edge("111311", "1111", ONE),
                Edge("111312", "1111", ONE),
                Edge("111399", "1111", ONE),
            ]
        )
        result = reverse(aggregation)
        assert isinstance(result, ValidationReport)
        (finding,) = result.errors
        assert finding.subject == "1111"
        assert finding.value == Fraction(3)
        assert finding.message == "outgoing weights of source '1111' sum to 3, expected exactly 1"

    def test_bijective_renaming(self):
        assert reverse(Crossmap([Edge("a", "b", ONE)])) == Crossmap([Edge("b", "a", ONE)])

    @given(st.integers(0, 10_000))
    def test_reverse_is_the_transpose_under_crossmap_validation(self, seed):
        crossmap = random_crossmap(random.Random(seed), max_sources=6, max_targets=6)
        transposed = [Edge(e.target, e.source, e.weight) for e in crossmap.edges]
        result = reverse(crossmap)
        if isinstance(result, ValidationReport):
            assert result == validate_draft(EdgeListDraft(transposed))
        else:
            assert result == Crossmap(transposed)

    @given(st.integers(0, 10_000))
    def test_double_reverse_is_identity_when_defined(self, seed):
        crossmap = random_crossmap(random.Random(seed), max_sources=6, max_targets=6)
        once = reverse(crossmap)
        if isinstance(once, Crossmap):
            assert reverse(once) == crossmap
