"""A stateful oracle for the whole algebra: chained operations checked against the plain model.

The machine keeps a pool of maps and arrays, each beside its model (see
``tests/helpers.py``), and every rule checks the library's result against
the model with ``==``.  Keys are drawn from one small pool per run, holding
CSV-special and multi-line text, so maps share keys, chain, and carry
identity edges.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from crossmaps.algebra import CompositionError, compose, reverse
from crossmaps.core import Crossmap, Edge, EdgeListDraft, InvalidCrossmapError, MassArray, ValidationReport, validate_draft
from crossmaps.formats import import_crosswalk, read_array, read_edge_list, write_array, write_edge_list
from crossmaps.graph import components, imputation_metrics
from crossmaps.transform import CoverageError, MissingValueError, NegativeMassError, TransformOptions, apply_transform

from helpers import (
    edge_triples,
    model_apply,
    model_components,
    model_compose,
    model_equal_split,
    model_findings,
    model_refusal,
    random_chain,
    random_mass_array,
)
from test_formats import MULTILINE_KEYS

KEY_POOLS = st.lists(
    st.one_of(st.sampled_from(["a", "b", "c", "x", "é", "k,1", 'q"r']), MULTILINE_KEYS),
    min_size=2,
    max_size=8,
    unique=True,
)
# How a drawn row is spoiled, if at all: the model decides what the library must find.
SPOILERS = st.sampled_from(["none", "none", "none", "duplicate", "scale", "zero", "negate"])
MAX_POOL = 8


def as_edges(triples) -> list[Edge]:
    return [Edge(s, t, w) for s, t, w in triples]


def finding_tuples(report: ValidationReport) -> list[tuple]:
    return [(f.severity, f.code, f.subject, f.message, f.value) for f in report.findings]


class AlgebraMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.maps: list[tuple[Crossmap, list]] = []
        self.arrays: list[tuple[MassArray, dict]] = []

    @initialize(keys=KEY_POOLS)
    def start(self, keys):
        self.keys = keys

    def draw_rows(self, data, sources, spoil=True) -> list[tuple[str, str, Fraction]]:
        """Rows that sum to 1 for each source, then maybe spoiled."""
        triples = []
        for source in sources:
            targets = data.draw(st.lists(st.sampled_from(self.keys), min_size=1, max_size=3, unique=True))
            parts = data.draw(st.lists(st.integers(1, 6), min_size=len(targets), max_size=len(targets)))
            triples += [(source, t, Fraction(p, sum(parts))) for t, p in zip(targets, parts)]
        spoiler = data.draw(SPOILERS) if spoil and triples else "none"
        if spoiler != "none":
            index = data.draw(st.integers(0, len(triples) - 1))
            source, target, weight = triples[index]
            if spoiler == "duplicate":
                triples.append((source, target, weight))
            else:
                factor = {"scale": Fraction(3, 2), "zero": 0, "negate": -1}[spoiler]
                triples[index] = (source, target, weight * factor)
        return data.draw(st.permutations(triples))

    def keep(self, crossmap: Crossmap, triples) -> None:
        if len(self.maps) < MAX_POOL:
            self.maps.append((crossmap, triples))

    @rule(data=st.data())
    def build(self, data):
        sources = data.draw(st.lists(st.sampled_from(self.keys), max_size=4, unique=True))
        triples = self.draw_rows(data, sources)
        expected = [("error", *finding) for finding in model_findings(triples)]
        report = validate_draft(EdgeListDraft(as_edges(triples)))
        assert finding_tuples(report) == expected
        if expected:
            with pytest.raises(InvalidCrossmapError) as excinfo:
                Crossmap(as_edges(triples))
            assert excinfo.value.report == report
        else:
            self.keep(Crossmap(as_edges(triples)), sorted(triples))

    @precondition(lambda self: self.maps)
    @rule(data=st.data())
    def chain(self, data):
        # A map whose sources are exactly an earlier map's targets, so the pair composes.
        first, _ = data.draw(st.sampled_from(self.maps))
        triples = self.draw_rows(data, first.targets, spoil=False)
        self.keep(Crossmap(as_edges(triples)), sorted(triples))

    @precondition(lambda self: self.maps)
    @rule(data=st.data())
    def compose_pair(self, data):
        (first, left), (second, right) = data.draw(st.sampled_from(self.maps)), data.draw(st.sampled_from(self.maps))
        unmatched = tuple(sorted({t for _, t, _ in left} - {s for s, _, _ in right}))
        if unmatched:
            with pytest.raises(CompositionError) as excinfo:
                compose(first, second)
            assert excinfo.value.unmatched_keys == unmatched
            return
        composed = compose(first, second)
        expected = model_compose(left, right)
        assert {(s, t): w for s, t, w in edge_triples(composed)} == expected
        # apply(compose(a, b), x) == apply(b, apply(a, x)), on the nonzero targets.
        options = TransformOptions(emit_zero_targets=False, on_uncovered="drop_and_report")
        for array, _ in self.arrays:
            middle = apply_transform(first, array, options)[0]
            assert apply_transform(composed, array, options)[0] == apply_transform(second, middle, options)[0]
        self.keep(composed, sorted((s, t, w) for (s, t), w in expected.items()))

    def chains(self) -> list[tuple[int, int, int]]:
        """Indices of pooled maps (a, b, c) where each map's targets are sources of the next."""
        follows = [
            [j for j, (second, _) in enumerate(self.maps) if set(first.targets) <= second._rows.keys()]
            for first, _ in self.maps
        ]
        return [(i, j, k) for i, nexts in enumerate(follows) for j in nexts for k in follows[j]]

    @precondition(lambda self: self.chains())
    @rule(data=st.data())
    def compose_three(self, data):
        # compose is associative over three chained maps, and both sides match the model.
        (a, left), (b, middle), (c, right) = (self.maps[i] for i in data.draw(st.sampled_from(self.chains())))
        composed = compose(compose(a, b), c)
        assert composed == compose(a, compose(b, c))
        inner = [(s, t, w) for (s, t), w in model_compose(middle, right).items()]
        assert {(s, t): w for s, t, w in edge_triples(composed)} == model_compose(left, inner)

    @precondition(lambda self: self.maps)
    @rule(data=st.data())
    def reverse_map(self, data):
        crossmap, triples = data.draw(st.sampled_from(self.maps))
        transposed = [(t, s, w) for s, t, w in triples]
        expected = model_findings(transposed)
        result = reverse(crossmap)
        if expected:
            assert isinstance(result, ValidationReport)
            assert finding_tuples(result) == [("error", *f) for f in expected]
        else:
            assert result == Crossmap(as_edges(transposed))
            self.keep(result, sorted(transposed))

    @rule(data=st.data())
    def array(self, data):
        keys = data.draw(st.lists(st.sampled_from(self.keys), max_size=5, unique=True))
        masses = data.draw(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=7), min_size=len(keys), max_size=len(keys)))
        entries = dict(zip(keys, masses))
        if len(self.arrays) < MAX_POOL:
            self.arrays.append((MassArray(entries), entries))

    @precondition(lambda self: self.maps and self.arrays)
    @rule(data=st.data(), drop=st.booleans(), zeros=st.booleans())
    def apply(self, data, drop, zeros):
        crossmap, triples = data.draw(st.sampled_from(self.maps))
        array, entries = data.draw(st.sampled_from(self.arrays))
        options = TransformOptions(emit_zero_targets=zeros, on_uncovered="drop_and_report" if drop else "error")
        output, dropped, split = model_apply(triples, entries)
        uncovered = tuple(sorted(set(entries) - {s for s, _, _ in triples}))
        if uncovered and not drop:
            with pytest.raises(CoverageError) as excinfo:
                apply_transform(crossmap, array, options)
            assert (excinfo.value.uncovered_keys, excinfo.value.mass_at_risk) == (uncovered, dropped)
            return
        result, receipt = apply_transform(crossmap, array, options)
        assert dict(result) == (output if zeros else {t: v for t, v in output.items() if v})
        total = sum(entries.values(), Fraction(0))
        assert (receipt.input_total, receipt.output_total) == (total, sum(output.values(), Fraction(0)))
        assert (receipt.dropped_mass, receipt.split_mass) == (dropped, split)
        assert receipt.input_total == receipt.output_total + receipt.dropped_mass

    @precondition(lambda self: self.maps)
    @rule(data=st.data(), drop=st.booleans())
    def refuse_flawed_array(self, data, drop):
        crossmap, _ = data.draw(st.sampled_from(self.maps))
        keys = data.draw(st.lists(st.sampled_from(self.keys), min_size=1, max_size=5, unique=True))
        masses = st.none() | st.fractions(min_value=-5, max_value=5, max_denominator=7)
        entries = dict(zip(keys, data.draw(st.lists(masses, min_size=len(keys), max_size=len(keys)))))
        if all(mass is not None and mass >= 0 for mass in entries.values()):
            flaw = st.none() | st.fractions(max_value=-1, max_denominator=7)
            entries[data.draw(st.sampled_from(keys))] = data.draw(flaw)
        reason, flawed = model_refusal(entries)
        error = {"missing": MissingValueError, "negative": NegativeMassError}[reason]
        array = MassArray(entries)
        options = TransformOptions(on_uncovered="drop_and_report" if drop else "error")
        for refuse in (lambda: apply_transform(crossmap, array, options), lambda: imputation_metrics(crossmap, array)):
            with pytest.raises(error) as excinfo:
                refuse()
            assert type(excinfo.value) is error and excinfo.value.keys == flawed

    @precondition(lambda self: self.maps)
    @rule(data=st.data())
    def round_trip_map(self, data):
        crossmap, triples = data.draw(st.sampled_from(self.maps))
        text = write_edge_list(crossmap)
        draft = read_edge_list(io.StringIO(text))
        assert draft == EdgeListDraft(as_edges(triples))
        assert Crossmap(draft.edges) == crossmap
        assert write_edge_list(Crossmap(draft.edges)) == text

    @precondition(lambda self: self.arrays)
    @rule(data=st.data())
    def round_trip_array(self, data):
        array, entries = data.draw(st.sampled_from(self.arrays))
        text = write_array(array)
        assert read_array(io.StringIO(text)) == array == MassArray(entries)
        assert write_array(read_array(io.StringIO(text))) == text

    @rule(data=st.data())
    def import_equal_split(self, data):
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(self.keys), st.sampled_from(self.keys)), min_size=1, max_size=6, unique=True))
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([("from", "to"), *pairs])
        crossmap, report = import_crosswalk(io.StringIO(buffer.getvalue()), "equal_split")
        triples = model_equal_split(pairs)
        assert crossmap == Crossmap(as_edges(triples))
        assert [f.subject for f in report.warnings] == sorted({s for s, _, w in triples if w != 1})
        self.keep(crossmap, sorted(triples))

    @invariant()
    def every_map_keeps_the_row_sum_rule_and_its_model_partition(self):
        for crossmap, triples in self.maps:
            assert model_findings(edge_triples(crossmap)) == []
            assert sorted(edge_triples(crossmap)) == triples
            found = components(crossmap)
            assert [(c.sources, c.targets, c.relation_type) for c in found] == model_components(triples)
            for component in found:
                assert [(e.source, e.target, e.weight) for e in component.edges] == [
                    e for e in triples if e[0] in component.sources
                ]


AlgebraMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestAlgebraMachine = AlgebraMachine.TestCase


@pytest.mark.parametrize("seed", range(20))
def test_wide_chains_match_the_model(seed):
    # Maps of up to 200 keys a side, wider than the machine's pool ever draws.
    rng = random.Random(seed)
    a, b, c = random_chain(rng, length=3, max_keys=200)
    left, middle, right = (edge_triples(crossmap) for crossmap in (a, b, c))
    first = compose(a, b)
    assert {(s, t): w for s, t, w in edge_triples(first)} == model_compose(left, middle)
    composed = compose(first, c)
    assert composed == compose(a, compose(b, c))
    inner = [(s, t, w) for (s, t), w in model_compose(middle, right).items()]
    assert {(s, t): w for s, t, w in edge_triples(composed)} == model_compose(left, inner)
    array = random_mass_array(rng, a.sources)
    assert apply_transform(first, array)[0] == apply_transform(b, apply_transform(a, array)[0])[0]
    assert read_array(io.StringIO(write_array(array))) == array
    for crossmap in (a, b, c, first, composed):
        triples = edge_triples(crossmap)
        assert [(x.sources, x.targets, x.relation_type) for x in components(crossmap)] == model_components(triples)
        text = write_edge_list(crossmap)
        assert Crossmap(read_edge_list(io.StringIO(text)).edges) == crossmap
        output = apply_transform(crossmap, random_mass_array(rng, crossmap.sources))[0]
        assert read_array(io.StringIO(write_array(output))) == output
