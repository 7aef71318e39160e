"""Matrix encoding, dense oracle, composition, reversal."""

from __future__ import annotations

import functools
import io
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crossmaps import algebra, core
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
    build_crossmap,
    identity_crossmap,
    validate_draft,
)
from crossmaps.datasets import occupation_recode
from crossmaps.extraction import InProcessTransform, probe_blackbox
from crossmaps.formats import export_dot, import_crosswalk, read_edge_list, write_edge_list
from crossmaps.graph import components, imputation_metrics, summarize
from crossmaps.transform import apply_transform

from helpers import all_paths_reference, country_crossmap, random_chain, random_crossmap

ONE = Fraction(1)
HALF = Fraction(1, 2)


@pytest.fixture
def country_map() -> Crossmap:
    return country_crossmap()


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
        assert tuple(sum(row) for row in to_matrix(country_map).cells) == (ONE, ONE, ONE, ONE)

    def test_identity_grid(self):
        matrix = to_matrix(identity_crossmap(["a", "b", "c"]))
        for j, row in enumerate(matrix.cells):
            assert all(cell == (ONE if k == j else 0) for k, cell in enumerate(row))

    @given(st.integers(0, 10_000))
    def test_row_sums_property(self, seed):
        crossmap = random_crossmap(random.Random(seed))
        assert all(sum(row) == ONE for row in to_matrix(crossmap).cells)

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


def layered_map(rng: random.Random, sources, targets: list[str], split_share: float) -> Crossmap:
    """Each source splits over 2-4 targets with probability ``split_share``, else has one edge."""
    edges = []
    for source in sources:
        split = len(targets) > 1 and rng.random() < split_share
        chosen = rng.sample(targets, rng.randint(2, min(4, len(targets))) if split else 1)
        numerators = [rng.randint(1, 9) for _ in chosen]
        edges.extend(Edge(source, t, Fraction(n, sum(numerators))) for t, n in zip(chosen, numerators))
    return Crossmap(edges)


def weights_of(crossmap: Crossmap) -> dict[tuple[str, str], Fraction]:
    return {(e.source, e.target): e.weight for e in crossmap.edges}


# The two parametrized tests of TestCompose run these module-level properties.
# pytest makes a new TestCompose instance for each case, and Hypothesis fails
# its differing_executors health check when one @given method is called from
# more than one instance; a module-level @given has no executor to differ.


@given(seed=st.integers(0, 10_000))
def check_matches_all_paths_reference(split_share: float, seed: int) -> None:
    rng = random.Random(seed)
    layers = [[f"k{depth}_{i}" for i in range(rng.randint(2, 8))] for depth in range(4)]
    a = layered_map(rng, layers[0], layers[1], split_share)
    b = layered_map(rng, a.targets, layers[2], split_share)
    c = layered_map(rng, b.targets, layers[3], split_share)
    ab = compose(a, b)
    assert weights_of(ab) == all_paths_reference(a, b)
    assert weights_of(compose(ab, c)) == all_paths_reference(ab, c)
    assert all(type(e.weight) is Fraction for e in ab.edges)


@given(seed=st.integers(0, 10_000))
def check_result_is_built_in_canonical_order(onto_occupation: bool, seed: int) -> None:
    rng = random.Random(seed)
    if onto_occupation:
        # Split rows onto occupation codes that share a target collapse.
        second = occupation_recode()
        first = layered_map(rng, [f"f{i}" for i in range(40)], list(second.sources), 0.5)
    else:
        layers = [[f"k{depth}_{i}" for i in range(rng.randint(2, 8))] for depth in range(3)]
        first = layered_map(rng, layers[0], layers[1], 0.5)
        second = layered_map(rng, first.targets, layers[2], 0.5)
    composed = compose(first, second)
    assert list(composed.edges) == sorted(composed.edges, key=lambda e: (e.source, e.target))
    assert composed == Crossmap(list(composed.edges))


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
        assert excinfo.value.unmatched_keys == ("n",)

    @given(st.integers(0, 5_000))
    def test_associative(self, seed):
        a, b, c = random_chain(random.Random(seed), length=3, max_keys=6)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @pytest.mark.parametrize("split_share", [0.0, 1.0, 0.5], ids=["unit_rows", "split_rows", "mixed"])
    def test_matches_all_paths_reference(self, split_share):
        check_matches_all_paths_reference(split_share)

    @given(st.integers(0, 10_000))
    def test_onto_occupation_matches_all_paths_reference(self, seed):
        rng = random.Random(seed)
        occupation = occupation_recode()
        first = layered_map(rng, [f"f{i}" for i in range(40)], list(occupation.sources), 0.3)
        assert weights_of(compose(first, occupation)) == all_paths_reference(first, occupation)

    def test_unit_rows_copy_the_next_row_without_arithmetic(self, monkeypatch):
        summed, reduced, built = [], [], []
        add_ratio, gcd = algebra._add_ratio, algebra.gcd

        def spy_sums(n, d, m, e):
            summed.append((n, d, m, e))
            return add_ratio(n, d, m, e)

        def spy_gcd(n, d):
            reduced.append((n, d))
            return gcd(n, d)

        def spy_fraction(*args):
            built.append(Fraction(*args))
            return built[-1]

        monkeypatch.setattr(algebra, "_add_ratio", spy_sums)
        monkeypatch.setattr(algebra, "gcd", spy_gcd)
        monkeypatch.setattr(algebra, "Fraction", spy_fraction)
        quarter = Fraction(1, 4)
        first = Crossmap(
            [
                Edge("u", "m", ONE),
                Edge("v", "m", ONE),
                Edge("s", "m", HALF),
                Edge("s", "n", quarter),
                Edge("s", "p", Fraction(1, 4)),
                Edge("c", "n", Fraction(1, 3)),
                Edge("c", "q", Fraction(2, 3)),
            ]
        )
        second = Crossmap(
            [
                Edge("m", "x", Fraction(1, 3)),
                Edge("m", "y", Fraction(2, 3)),
                Edge("n", "x", ONE),
                Edge("p", "z", ONE),
                Edge("q", "x", ONE),
            ]
        )
        composed = compose(first, second)
        # Unit left rows share the next row's own tuple of triples.
        for source in ("u", "v"):
            assert composed._rows[source] is second._rows["m"]
        # Only the two paths meeting at x, the product 1/6 through m and the
        # product 1/4 through the unit row n, are summed.
        ((n, d, m, e),) = summed
        assert sorted([Fraction(n, d), Fraction(m, e)]) == [Fraction(1, 6), quarter]
        # Only s's row is reduced, once per edge: the sum at x, the lone
        # unreduced product 2/6 at y, and the product 1/4 of s -> p -> z.
        assert reduced == [(5, 12), (2, 6), (1, 4)]
        assert composed._rows["s"] == (("x", 5, 12), ("y", 1, 3), ("z", 1, 4))
        # Both of c's paths end at x: the row collapses to one edge of weight
        # exactly 1, with no product, no sum and no reduction.
        assert composed._rows["c"] == (("x", 1, 1),)
        # compose builds no Fraction; the edges read below are the map's own.
        assert built == []
        (c_edge,) = composed.outgoing["c"]
        assert c_edge.weight is core.ONE
        assert weights_of(composed) == all_paths_reference(first, second)

    @pytest.mark.parametrize("onto_occupation", [False, True], ids=["layered", "onto_occupation"])
    def test_result_is_built_in_canonical_order(self, onto_occupation):
        check_result_is_built_in_canonical_order(onto_occupation)

    def test_validates_its_result_once(self, monkeypatch):
        first, second = random_chain(random.Random(4))
        calls = []
        validate = core._validate_rows
        monkeypatch.setattr(core, "_validate_rows", lambda rows: calls.append(rows) or validate(rows))
        composed = compose(first, second)
        assert len(calls) == 1 and calls[0] is composed._rows

    @given(st.integers(0, 5_000))
    def test_product_is_row_stochastic(self, seed):
        a, b = random_chain(random.Random(seed), length=2, max_keys=6)
        assert all(sum(row) == ONE for row in to_matrix(compose(a, b)).cells)


def composable_chain(rng: random.Random, onto_occupation: bool) -> list[Crossmap]:
    """A random chain of three maps, or a layered map and the occupation codes it maps onto."""
    if onto_occupation:
        occupation = occupation_recode()
        return [layered_map(rng, [f"f{i}" for i in range(12)], list(occupation.sources), 0.5), occupation]
    return random_chain(rng, length=3, max_keys=6)


def composed_map(rng: random.Random, onto_occupation: bool) -> Crossmap:
    """A map ``compose`` built, from rows only: the chain folded left to right."""
    return functools.reduce(compose, composable_chain(rng, onto_occupation))


class TestComposedRows:
    """A map ``compose`` builds from rows reads like one built from its edges."""

    @given(onto_occupation=st.booleans(), seed=st.integers(0, 10_000))
    def test_views_match_a_map_built_from_its_edges(self, onto_occupation, seed):
        composed = composed_map(random.Random(seed), onto_occupation)
        rebuilt = Crossmap(list(composed.edges))
        assert composed.edges == rebuilt.edges
        assert composed.outgoing == rebuilt.outgoing
        assert list(composed.outgoing) == list(rebuilt.outgoing)
        assert composed.sources == rebuilt.sources
        assert composed.targets == rebuilt.targets
        assert composed.incoming == rebuilt.incoming
        assert composed.split_sources == rebuilt.split_sources
        assert len(composed) == len(rebuilt) == len(composed.edges)
        assert composed == rebuilt and hash(composed) == hash(rebuilt)
        # Each row of outgoing holds the map's own edges, and a unit weight is ONE.
        assert [e for row in composed.outgoing.values() for e in row] == list(composed.edges)
        assert all(a is b for a, b in zip((e for row in composed.outgoing.values() for e in row), composed.edges))
        assert all(e.weight is core.ONE for e in composed.edges if e.weight == ONE)

    @given(st.integers(0, 10_000), st.integers(0, 10_000), st.booleans())
    def test_equal_exactly_when_the_edges_are(self, seed_a, seed_b, composed):
        # Maps of at most two keys a side and denominators up to 3 often coincide.
        def small(seed):
            rng = random.Random(seed)
            first = random_crossmap(rng, max_sources=2, max_targets=2, max_denominator=3)
            if not composed:
                return first
            return compose(first, Crossmap([Edge(t, "z" if rng.random() < 0.5 else t, ONE) for t in first.targets]))

        a, b = small(seed_a), small(seed_b)
        assert (a == b) == (a.edges == b.edges)
        if a == b:
            assert hash(a) == hash(b)

    @given(onto_occupation=st.booleans(), seed=st.integers(0, 10_000))
    def test_composed_map_survives_pickle(self, onto_occupation, seed):
        composed = composed_map(random.Random(seed), onto_occupation)
        clone = pickle.loads(pickle.dumps(composed))
        assert clone == composed and clone.edges == composed.edges and clone.outgoing == composed.outgoing

    @given(onto_occupation=st.booleans(), seed=st.integers(0, 10_000))
    def test_compose_and_write_build_no_edge_and_no_fraction(self, onto_occupation, seed):
        edges, fractions = [], []
        new_edge = Edge.__init__

        def spy_edge(self, *args):
            edges.append(args)
            new_edge(self, *args)

        def spy_fraction(*args):
            fractions.append(args)
            return Fraction(*args)

        chain = composable_chain(random.Random(seed), onto_occupation)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Edge, "__init__", spy_edge)
            with pytest.MonkeyPatch.context() as fraction_mp:
                fraction_mp.setattr(algebra, "Fraction", spy_fraction)
                composed = functools.reduce(compose, chain)
                text = write_edge_list(composed)
            assert fractions == []
            # Every other path that reads only the rows builds no Edge either.
            draft = read_edge_list(io.StringIO(text))
            assert validate_draft(draft).ok
            built = build_crossmap(draft)
            summarize(built)
            imputation_metrics(built, MassArray(dict.fromkeys(built.sources, 1)))
            reverse(built)
            to_matrix(built)
            crosswalk = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
            import_crosswalk(io.StringIO(crosswalk), "equal_split")
            probe_blackbox(InProcessTransform(lambda a: apply_transform(built, a)[0]), built.sources)
            export_dot(built)
            assert edges == []
            # components reads the Edge view, built once and cached.
            components(built)
            components(built)
        assert "edges" not in composed.__dict__
        assert len(edges) == len(set(edges)) == len(built)
        assert draft.edges == composed.edges


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
