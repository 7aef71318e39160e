"""The library's sums against plain-Fraction references written in the tests.

Each reference adds and multiplies ``Fraction`` objects one term at a time
and imports nothing of the library's arithmetic, so the integer
accumulation inside ``apply_transform``, ``compose``, the receipt totals
and validation must reproduce it bit for bit, including on denominators up
to 10**12 and on sums whose common denominator grows with every term.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crossmaps.algebra import compose
from crossmaps.core import Crossmap, Edge, EdgeListDraft, Finding, MassArray, validate_draft
from crossmaps.transform import TransformOptions, apply_transform

from helpers import _positive_partition, all_paths_reference, random_chain, random_crossmap, random_mass_array, reference_report

ZERO = Fraction(0)
ONE = Fraction(1)
BIG = 10**12


def reference_apply(crossmap: Crossmap, array: MassArray, options: TransformOptions):
    fan_out: dict[str, list[Edge]] = {}
    for edge in crossmap.edges:
        fan_out.setdefault(edge.source, []).append(edge)
    sums: dict[str, Fraction] = {}
    input_total = dropped = split = ZERO
    for key, mass in array.items():
        input_total += mass
        if key not in fan_out:
            dropped += mass
            continue
        if len(fan_out[key]) > 1:
            split += mass
        for edge in fan_out[key]:
            sums[edge.target] = sums.get(edge.target, ZERO) + mass * edge.weight
    if options.emit_zero_targets:
        output = {t: sums.get(t, ZERO) for t in crossmap.targets}
    else:
        output = {t: v for t, v in sums.items() if v != ZERO}
    output_total = ZERO
    for value in output.values():
        output_total += value
    return dict(sorted(output.items())), (input_total, output_total, dropped, split)


def big_mass_array(rng: random.Random, keys) -> MassArray:
    return MassArray({k: Fraction(rng.randint(0, BIG), rng.randint(1, BIG)) for k in keys})


def map_over(rng: random.Random, sources, prefix: str, max_denominator: int) -> Crossmap:
    """A crossmap from exactly ``sources`` onto fresh targets, weights k/den with den <= bound."""
    pool = [f"{prefix}{i}" for i in range(rng.randint(1, 8))]
    edges = []
    for source in sources:
        targets = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        den = rng.randint(len(targets), max_denominator)
        parts = _positive_partition(rng, den, len(targets))
        edges.extend(Edge(source, t, Fraction(p, den)) for t, p in zip(targets, parts))
    return Crossmap(edges)


def coprime_denominators(count: int) -> list[int]:
    """The largest power of each of the first ``count`` primes that stays <= 10**12."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    dens = []
    for p in primes:
        power = p
        while power * p <= BIG:
            power *= p
        dens.append(power)
    return dens


def assert_apply_matches(crossmap: Crossmap, array: MassArray, options: TransformOptions):
    output, receipt = apply_transform(crossmap, array, options)
    expected_output, expected_totals = reference_apply(crossmap, array, options)
    assert dict(output.items()) == expected_output
    assert all(type(v) is Fraction for v in output.values())
    totals = (receipt.input_total, receipt.output_total, receipt.dropped_mass, receipt.split_mass)
    assert totals == expected_totals


class TestApplyTransformMatchesReference:
    @given(st.integers(0, 10_000), st.booleans(), st.booleans(), st.booleans())
    def test_random_maps(self, seed, big, emit_zero_targets, drop):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng, max_denominator=BIG if big else None)
        keys = list(crossmap.sources)
        if drop:
            keys += [f"x{i}" for i in range(rng.randint(1, 3))]
        array = big_mass_array(rng, keys) if big else random_mass_array(rng, tuple(keys), subset=True)
        options = TransformOptions(
            emit_zero_targets=emit_zero_targets,
            on_uncovered="drop_and_report" if drop else "error",
        )
        assert_apply_matches(crossmap, array, options)

    def test_many_to_one_with_coprime_denominators(self):
        rng = random.Random(300)
        sources = [f"s{i:03d}" for i in range(300)]
        crossmap = Crossmap(Edge(s, "t", ONE) for s in sources)
        array = MassArray(
            {s: Fraction(rng.randint(1, BIG), den) for s, den in zip(sources, coprime_denominators(300))}
        )
        assert_apply_matches(crossmap, array, TransformOptions())
        assert_apply_matches(crossmap, array, TransformOptions(emit_zero_targets=False))

    def test_many_to_one_with_coprime_split_weights(self):
        # Every source also splits over a second target with a weight whose
        # denominator is coprime to all the others.
        sources = [f"s{i:03d}" for i in range(300)]
        dens = coprime_denominators(300)
        edges = []
        for s, den in zip(sources, dens):
            edges += [Edge(s, "t", Fraction(1, den)), Edge(s, "u", 1 - Fraction(1, den))]
        array = MassArray({s: Fraction(i + 1, dens[-1 - i]) for i, s in enumerate(sources)})
        assert_apply_matches(Crossmap(edges), array, TransformOptions())


class TestComposeMatchesReference:
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_random_chains(self, seed, length):
        chain = random_chain(random.Random(seed), length=length)
        composed = chain[0]
        for step in chain[1:]:
            expected = all_paths_reference(composed, step)
            composed = compose(composed, step)
            assert {(e.source, e.target): e.weight for e in composed.edges} == expected

    @given(st.integers(0, 10_000))
    def test_large_denominators(self, seed):
        rng = random.Random(seed)
        first = random_crossmap(rng, max_denominator=BIG)
        second = map_over(rng, first.targets, "u", BIG)
        composed = compose(first, second)
        assert {(e.source, e.target): e.weight for e in composed.edges} == all_paths_reference(first, second)


class TestValidationMatchesReference:
    @given(st.integers(0, 10_000), st.booleans())
    def test_random_drafts(self, seed, big):
        rng = random.Random(seed)
        bound = BIG if big else 12
        sources = [f"s{i}" for i in range(rng.randint(0, 6))]
        targets = [f"t{i}" for i in range(rng.randint(1, 4))]
        edges = [
            Edge(rng.choice(sources), rng.choice(targets), Fraction(rng.randint(-2, bound), rng.randint(1, bound)))
            for _ in range(rng.randint(0, 12) if sources else 0)
        ]
        if edges and rng.random() < 0.5:
            edges.append(rng.choice(edges))
        findings = validate_draft(EdgeListDraft(edges)).findings
        assert [(f.code, f.subject, f.value) for f in findings] == [
            (f.code, f.subject, f.value) for f in reference_report(edges).findings
        ]
        assert all(f.severity == "error" for f in findings)

    @given(st.integers(0, 10_000))
    def test_valid_maps_with_large_denominators(self, seed):
        crossmap = random_crossmap(random.Random(seed), max_denominator=BIG)
        assert validate_draft(EdgeListDraft(crossmap.edges)).findings == ()
        assert [(f.code, f.subject, f.value) for f in reference_report(list(crossmap.edges)).findings] == []


    @pytest.mark.parametrize(
        "weights",
        [
            (Fraction(1, 3), Fraction(1, 3)),
            (ONE, ONE),
            (Fraction(1, 6), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(2, 3)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, BIG), Fraction(1, BIG - 1)),
        ],
    )
    def test_weight_sum_findings(self, weights):
        # Sums whose unreduced common denominator differs from the reduced one.
        edges = [Edge("s", f"t{i}", w) for i, w in enumerate(weights)]
        total = sum(weights, ZERO)
        expected = [] if total == ONE else [
            Finding(
                severity="error",
                code="weight_sum_not_one",
                subject="s",
                message=f"outgoing weights of source 's' sum to {total}, expected exactly 1",
                value=total,
            )
        ]
        findings = validate_draft(EdgeListDraft(edges)).findings
        assert list(findings) == expected
        assert all(type(f.value) is Fraction for f in findings)


class TestExactSums:
    # The accumulation primitive itself, on its boundary cases.
    def sums(self, terms):
        from crossmaps.core import _exact_pairs

        # One row of the terms, unscaled, each sum reduced once.
        return {key: Fraction(n, d) for key, (n, d) in _exact_pairs([(terms, 1, 1)]).items()}

    def test_empty(self):
        assert self.sums([]) == {}

    def test_single_term_is_reduced(self):
        result = self.sums([("k", 6, 8)])
        assert result == {"k": Fraction(3, 4)}
        assert (result["k"].numerator, result["k"].denominator) == (3, 4)

    def test_equal_denominators(self):
        assert self.sums([("k", 1, 6), ("k", 2, 6), ("k", 3, 6)]) == {"k": ONE}

    def test_coprime_denominators(self):
        result = self.sums([("k", 1, 2), ("k", 1, 3), ("k", 1, 5), ("k", -1, 7)])
        assert result == {"k": Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5) - Fraction(1, 7)}
        assert result["k"].denominator == 210

    def test_pairs_stay_unreduced(self):
        from crossmaps.core import _exact_pairs

        assert _exact_pairs([([("k", 1, 4), ("k", 1, 4), ("k", 1, 2), ("j", 2, 6)], 1, 1)]) == {"k": [4, 4], "j": [2, 6]}

    def test_each_row_is_scaled_by_its_ratio(self):
        from crossmaps.core import _exact_pairs

        rows = [([("k", 1, 2), ("j", 1, 3)], 2, 3), ([("k", 1, 4)], 1, 1), ((), 5, 7)]
        # k: 2/6 + 1/4 over lcm(6, 4) = 12; j: 2/9 alone, unreduced.
        assert _exact_pairs(rows) == {"k": [7, 12], "j": [2, 9]}

    def test_keys_keep_first_seen_order(self):
        result = self.sums([("b", 1, 4), ("a", 1, 6), ("b", 1, 6), ("a", 1, 4)])
        assert list(result) == ["b", "a"]
        assert result == {"b": Fraction(5, 12), "a": Fraction(5, 12)}
