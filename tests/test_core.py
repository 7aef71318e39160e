"""Core types: exact parsing, crossmap construction, validation findings."""

from __future__ import annotations

import copy
import io
import math
import pickle
import random
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, strategies as st

from crossmaps import core, formats
from crossmaps.algebra import compose, reverse
from crossmaps.core import (
    Crossmap,
    Edge,
    EdgeListDraft,
    Finding,
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
from crossmaps.extraction import InProcessTransform, probe_blackbox
from crossmaps.formats import import_crosswalk, read_array, read_edge_list, write_array
from crossmaps.transform import TransformOptions, apply_transform
from crossmaps.validation import check_array, check_coverage

from helpers import prime_edge_list, random_chain, random_crossmap, random_mass_array, reference_report

ONE = Fraction(1)
HALF = Fraction(1, 2)


# The regex parser that parse_rational replaced, kept verbatim as the
# oracle for the equivalence property below.
_RATIONAL_TOKEN = re.compile(
    r"""\A
        (?P<sign>[-+]?)
        (?:
            (?P<num>\d+)\s*/\s*(?P<den>\d+)     # p/q
          | (?P<int>\d+)(?:\.(?P<frac>\d*))?    # 123 or 123.45 or 123.
          | \.(?P<onlyfrac>\d+)                 # .5
        )
    \Z""",
    re.VERBOSE,
)


def regex_parse_rational(text: str) -> Fraction:
    token = text.strip()
    m = _RATIONAL_TOKEN.match(token)
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("den") is not None:
        den = int(m.group("den"))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(sign * int(m.group("num")), den)
    if m.group("onlyfrac") is not None:
        digits = m.group("onlyfrac")
        return Fraction(sign * int(digits), 10 ** len(digits))
    whole = int(m.group("int"))
    frac = m.group("frac") or ""
    value = Fraction(whole * 10 ** len(frac) + (int(frac) if frac else 0), 10 ** len(frac))
    return sign * value


def outcome(parse, text: str) -> tuple[str, object]:
    try:
        return "value", parse(text)
    except ValueError as exc:
        return "error", str(exc)


# Characters where the two parsers could part: ASCII and non-ASCII decimal
# digits (Arabic-Indic one), a digit that is not decimal (superscript two),
# exponent and underscore (accepted by Fraction and int), and whitespace
# including the file separator \x1c and the ideographic space.
TOKEN_PIECES = st.one_of(
    st.text(alphabet="0123456789\u0661\u00b2+-./e_ \t\x1c\u3000", max_size=8),
    st.integers(sys.get_int_max_str_digits() - 2, sys.get_int_max_str_digits() + 3).map(lambda n: "7" * n),
)


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

    @given(st.lists(TOKEN_PIECES, max_size=4).map("".join))
    @example("\u0661/\u0663")
    @example("\u00b2")
    @example("\x1c-1 \u3000/\t2\x1c")
    @example("-7." + "7" * sys.get_int_max_str_digits())
    @example("7" * (sys.get_int_max_str_digits() + 1) + "/0")
    # The bare "digits/digits" path and each token just off it.
    @example("0/7")
    @example("6/4")
    @example("5/0")
    @example("1/2 ")
    @example(" 1/2")
    @example("+1/2")
    @example("7" * (sys.get_int_max_str_digits() + 1) + "/1")
    @example("1/" + "7" * (sys.get_int_max_str_digits() + 1))
    def test_matches_the_regex_parser(self, text):
        new, old = outcome(parse_rational, text), outcome(regex_parse_rational, text)
        assert new == old
        if new[0] == "value":
            assert type(new[1]) is Fraction

    @given(st.fractions())
    def test_render_then_parse_is_identity(self, value):
        assert parse_rational(render_rational(value)) == value


class TestKeys:
    def test_trimmed(self):
        assert clean_key("  BLX ") == "BLX"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clean_key("   ")

    @pytest.mark.parametrize("key", ["a\rb", "a\x00b"], ids=["carriage_return", "nul"])
    def test_characters_no_csv_file_carries_back_rejected(self, key):
        with pytest.raises(ValueError, match="contains"):
            clean_key(key)

    def test_byte_exact_comparison(self):
        assert Edge("a", "b", ONE) != Edge("A", "b", ONE)

    @pytest.mark.parametrize("key", [1, None, b"a"], ids=["int", "none", "bytes"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda key: MassArray({key: 1}),
            lambda key: Edge(key, "b", 1),
            lambda key: Edge("a", key, 1),
            lambda key: identity_crossmap([key]),
            lambda key: probe_blackbox(InProcessTransform(lambda array: array), [key]),
        ],
        ids=["mass_array", "edge_source", "edge_target", "identity_crossmap", "probe_blackbox"],
    )
    def test_non_str_key_is_a_type_error(self, build, key):
        with pytest.raises(TypeError, match=f"^keys must be str, not {type(key).__name__}$"):
            build(key)


class TestEdge:
    def test_strips_keys(self):
        edge = Edge(" BLX", "BEL ", HALF)
        assert (edge.source, edge.target) == ("BLX", "BEL")

    def test_rejects_float_weight(self):
        for weight in (0.5, True, "1/2", Decimal(1)):
            with pytest.raises(TypeError):
                Edge("a", "b", weight)

    def test_int_weight_coerced_exactly(self):
        assert Edge("a", "b", 1).weight == Fraction(1)

    def test_fraction_subclass_weight_kept_as_is(self):
        class Tagged(Fraction):
            pass

        weight = Tagged(1, 2)
        assert Edge("a", "b", weight).weight is weight

    @pytest.mark.parametrize("blank", ["", " ", "\t\n"])
    def test_rejects_blank_keys(self, blank):
        with pytest.raises(ValueError):
            Edge(blank, "b", ONE)
        with pytest.raises(ValueError):
            Edge("a", blank, ONE)

    def test_trusted_edge_is_frozen_and_slotted(self):
        # An edge of a map's view, built from the map's rows.
        edge = Crossmap._from_rows({"a": (("b", 1, 2), ("c", 1, 2))}).edges[0]
        for field in ("source", "target", "weight"):
            value = getattr(edge, field)
            with pytest.raises(AttributeError):
                setattr(edge, field, "c")
            with pytest.raises(AttributeError):
                delattr(edge, field)
            assert getattr(edge, field) is value
        assert not hasattr(edge, "__dict__")
        assert (edge.source, edge.target, edge.weight) == ("a", "b", HALF)
        assert edge == Edge("a", "b", HALF)
        assert hash(edge) == hash(Edge("a", "b", HALF))


def rows_of(edges) -> dict[str, tuple[tuple[str, int, int], ...]]:
    """The edges as a crossmap's rows, restated plainly: sorted, grouped by source, weights as integer pairs."""
    ordered = sorted(edges, key=lambda e: (e.source, e.target))
    return {
        s: tuple((e.target, *e.weight.as_integer_ratio()) for e in es)
        for s, es in groupby(ordered, key=lambda e: e.source)
    }


def assert_rows_are_the_crossmaps_own(crossmap: Crossmap) -> None:
    """``outgoing`` equals a groupby over the edges, order included, and holds the crossmap's own edges."""
    expected = {s: tuple(es) for s, es in groupby(crossmap.edges, key=lambda e: e.source)}
    assert list(crossmap.outgoing.items()) == list(expected.items())
    assert all(a is b for s, row in expected.items() for a, b in zip(crossmap.outgoing[s], row))


DRAFT_WEIGHTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 3), HALF, Fraction(2, 3), ONE]),
    st.fractions(min_value=-1, max_value=2, max_denominator=6),
)
DRAFT_EDGES = st.lists(
    st.builds(Edge, st.sampled_from("abc"), st.sampled_from("xyz"), DRAFT_WEIGHTS),
    max_size=8,
)


def shuffle_keeping_repeats(edges: list, shuffler: random.Random) -> list:
    """The edges shuffled, but each pair's repeats kept in their relative order."""
    order = list(edges)
    shuffler.shuffle(order)
    repeats: dict[tuple[str, str], list] = {}
    for e in edges:
        repeats.setdefault((e.source, e.target), []).append(e)
    return [repeats[e.source, e.target].pop(0) for e in order]


def edge_list_text(edges) -> str:
    return "from,to,weight\n" + "".join(f"{e.source},{e.target},{e.weight}\n" for e in edges)


class TestBuildCrossmap:
    def test_country_table_is_valid(self):
        built = build_crossmap(country_draft())
        assert isinstance(built, Crossmap)
        assert built.sources == ("AUS", "BLX", "E.GER", "W.GER")
        assert built.targets == ("AUS", "BEL", "DEU", "LUX")
        assert len(built.edges) == len(built) == 5

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

    def test_each_repeat_of_a_pair_is_one_duplicate_finding(self):
        # Three copies of a->b with different weights; the stable sort keeps
        # them in draft order, so findings follow it edge by edge.
        draft = EdgeListDraft(
            [
                Edge("a", "b", HALF),
                Edge("a", "c", Fraction(1, 4)),
                Edge("a", "b", Fraction(3, 2)),
                Edge("a", "b", Fraction(1, 4)),
            ]
        )
        duplicate = Finding("error", "duplicate_edge", "a->b", "duplicate edge (a, b)")
        assert validate_draft(draft).findings == (
            duplicate,
            Finding("error", "weight_out_of_range", "a->b", "weight 3/2 outside (0, 1]", Fraction(3, 2)),
            duplicate,
            Finding(
                "error",
                "weight_sum_not_one",
                "a",
                "outgoing weights of source 'a' sum to 5/2, expected exactly 1",
                Fraction(5, 2),
            ),
        )

    def test_sum_too_long_to_print_keeps_its_finding(self):
        draft = read_edge_list(io.StringIO(prime_edge_list()))
        primes = [e.weight.denominator for e in draft.edges]
        product = math.prod(primes)
        report = validate_draft(draft)
        (finding,) = report.findings
        assert (finding.code, finding.subject) == ("weight_sum_not_one", "a")
        assert finding.value == Fraction(sum(product // p for p in primes), product)
        assert finding.message.startswith("outgoing weights of source 'a' sum to too long to render: a ")
        assert finding.message.endswith(f"-bit numerator over a {product.bit_length()}-bit denominator, expected exactly 1")
        assert build_crossmap(draft) == report
        with pytest.raises(InvalidCrossmapError) as excinfo:
            Crossmap(draft.edges)
        assert excinfo.value.report == report

    @given(
        kind=st.sampled_from(["below_one", "negative", "above_one"]),
        extra_digits=st.integers(7, 40),
        offset=st.integers(1, 10**6),
        numerator=st.integers(1, 10**6),
    )
    def test_value_too_long_to_print_keeps_its_finding(self, kind, extra_digits, offset, numerator):
        # The numerator shares at most 10**6 with the denominator, so the
        # reduced denominator still has more digits than str may print.
        denominator = 10 ** (sys.get_int_max_str_digits() + extra_digits) + offset
        small = Fraction(numerator, denominator)
        weight = {"below_one": small, "negative": -small, "above_one": 1 + small}[kind]
        assert weight.denominator > 10 ** sys.get_int_max_str_digits()

        def size(value: Fraction) -> str:
            bits = abs(value.numerator).bit_length(), value.denominator.bit_length()
            return "too long to render: a {}-bit numerator over a {}-bit denominator".format(*bits)

        expected = []
        if kind != "below_one":
            expected.append(Finding("error", "weight_out_of_range", "a->x", f"weight {size(weight)} outside (0, 1]", weight))
        message = f"outgoing weights of source 'a' sum to {size(weight)}, expected exactly 1"
        expected.append(Finding("error", "weight_sum_not_one", "a", message, weight))
        edges = [Edge("a", "x", weight)]
        report = validate_draft(EdgeListDraft(edges))
        assert report.findings == tuple(expected)
        assert build_crossmap(EdgeListDraft(edges)) == report
        with pytest.raises(InvalidCrossmapError) as excinfo:
            Crossmap(edges)
        assert excinfo.value.report == report
        negative = -abs(weight)
        assert check_array(MassArray({"a": negative})) == (
            Finding("error", "negative_value", "a", f"'a' has negative mass {size(negative)}", negative),
        )

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

    @given(DRAFT_EDGES)
    @example([])
    @example([Edge("a", "x", HALF), Edge("a", "x", Fraction(3, 2)), Edge("a", "x", Fraction(-1))])
    def test_validate_draft_matches_a_plain_reference(self, edges):
        report = validate_draft(EdgeListDraft(edges))
        assert report == reference_report(edges)
        if report.ok:
            assert_rows_are_the_crossmaps_own(Crossmap(edges))

    @given(
        st.integers(0, 10_000),
        st.lists(st.tuples(st.integers(0, 100), DRAFT_WEIGHTS), max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_a_draft_is_its_rows_in_any_line_order(self, seed, repeats, shuffler):
        crossmap = random_crossmap(random.Random(seed), max_sources=6, max_targets=6)
        edges = list(crossmap.edges)
        # Repeats of drawn pairs, with weights in and out of (0, 1].
        edges += [Edge(edges[i % len(edges)].source, edges[i % len(edges)].target, w) for i, w in repeats]
        draft = EdgeListDraft(edges)
        readable = [e for e in edges if 0 < e.weight <= 1]
        assert read_edge_list(io.StringIO(edge_list_text(readable))) == EdgeListDraft(readable)
        shuffled = shuffle_keeping_repeats(edges, shuffler)
        assert EdgeListDraft(shuffled) == draft
        assert validate_draft(EdgeListDraft(shuffled)).findings == validate_draft(draft).findings
        lines = read_edge_list(io.StringIO(edge_list_text([e for e in shuffled if 0 < e.weight <= 1])))
        assert lines == EdgeListDraft(readable)
        assert validate_draft(lines).findings == validate_draft(EdgeListDraft(readable)).findings
        assert validate_draft(crossmap).findings == ()

    @given(st.integers(0, 10_000), st.randoms(use_true_random=False))
    def test_outgoing_rows_are_the_crossmaps_own_edges(self, seed, shuffler):
        edges = list(random_crossmap(random.Random(seed), max_sources=6, max_targets=6).edges)
        shuffler.shuffle(edges)
        assert_rows_are_the_crossmaps_own(Crossmap(edges))

    @given(st.integers(0, 10_000), st.randoms(use_true_random=False))
    def test_constructor_keeps_only_the_rows(self, seed, shuffler):
        shuffled = list(random_crossmap(random.Random(seed), max_sources=6, max_targets=6).edges)
        shuffler.shuffle(shuffled)
        crossmap = Crossmap(shuffled)
        assert crossmap.__dict__ == {}  # no copy of the edges beside the rows
        assert crossmap.edges == tuple(sorted(shuffled, key=lambda e: (e.source, e.target)))
        assert_rows_are_the_crossmaps_own(crossmap)

    def test_incoming_groups_sources_by_target(self):
        built = build_crossmap(country_draft())
        assert built.incoming == {
            "AUS": ("AUS",),
            "BEL": ("BLX",),
            "DEU": ("E.GER", "W.GER"),
            "LUX": ("BLX",),
        }
        assert tuple(built.incoming) == built.targets

    def test_validate_draft_matches_build(self):
        good, bad = country_draft(), EdgeListDraft([Edge("a", "b", HALF)])
        assert validate_draft(good).ok
        assert isinstance(build_crossmap(good), Crossmap)
        assert not validate_draft(bad).ok
        assert isinstance(build_crossmap(bad), ValidationReport)

    def test_valid_build_runs_one_validation_pass(self, monkeypatch):
        calls = []
        validate = core._validate_rows
        monkeypatch.setattr(core, "_validate_rows", lambda rows: calls.append(rows) or validate(rows))
        assert isinstance(build_crossmap(country_draft()), Crossmap)
        assert len(calls) == 1

    def test_constructor_error_carries_the_build_report(self):
        draft = EdgeListDraft([Edge("BLX", "BEL", HALF)])
        with pytest.raises(InvalidCrossmapError, match="invalid crossmap") as excinfo:
            Crossmap(draft.edges)
        assert isinstance(excinfo.value, ValueError)
        assert excinfo.value.report == build_crossmap(draft)

    @pytest.mark.parametrize(
        "edges",
        [
            [Edge("BLX", "BEL", HALF), Edge("BLX", "LUX", Fraction(2, 5))],
            [Edge("a", "b", HALF), Edge("a", "b", HALF)],
            [Edge("a", "b", Fraction(3, 2)), Edge("c", "d", ONE)],
            [],
        ],
        ids=["unbalanced_row", "duplicate_pair", "out_of_range_weight", "empty"],
    )
    def test_from_sorted_validates_like_the_constructor(self, edges):
        # Crossmap._from_rows, given the rows of the edges in sorted order.
        with pytest.raises(InvalidCrossmapError) as excinfo:
            Crossmap._from_rows(rows_of(edges))
        assert excinfo.value.report == validate_draft(EdgeListDraft(edges))

    def test_from_sorted_keeps_sorted_edges_and_validates_once(self, monkeypatch):
        # Crossmap._from_rows keeps the rows it is given, validates them once,
        # and builds the same edges and rows as the constructor does.
        expected = build_crossmap(country_draft())
        rows = rows_of(expected.edges)
        calls = []
        validate = core._validate_rows
        monkeypatch.setattr(core, "_validate_rows", lambda rows: calls.append(rows) or validate(rows))
        built = Crossmap._from_rows(rows)
        assert built == expected
        assert len(calls) == 1 and calls[0] is rows is built._rows
        assert built.edges == expected.edges
        assert_rows_are_the_crossmaps_own(built)


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
        for value in (0.5, True, Decimal(1)):
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

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            MassArray({" \t": 1})

    def test_fraction_subclass_value_comes_back_as_an_equal_fraction(self):
        # The array keeps integer pairs, not the caller's objects.
        class Tagged(Fraction):
            pass

        weight = Tagged(1, 2)
        value = MassArray({"a": weight})["a"]
        assert value == weight and type(value) is Fraction


@pytest.fixture
def entry_checks(monkeypatch) -> Counter:
    """Counts calls of the per-entry checks the public MassArray and Edge constructors run."""
    calls: Counter = Counter()
    for name in ("clean_key", "_check_weight_type"):
        def spy(value, _name=name, _check=getattr(core, name)):
            calls[_name] += 1
            return _check(value)

        monkeypatch.setattr(core, name, spy)
    return calls


def assert_canonical(array: MassArray) -> None:
    """Iteration is in sorted key order, and the canonical CSV is what the sorting constructor gives."""
    assert list(array) == sorted(array)
    rebuilt = MassArray(dict(array.items()))
    assert array == rebuilt
    assert write_array(array) == write_array(rebuilt)


class TestLibraryBuiltArrays:
    """Arrays the library builds from checked entries skip the per-entry checks."""

    def test_read_array(self, entry_checks):
        text = "key,value\n b ,1/3\na,NA\nc,-2.5\n"
        array = read_array(io.StringIO(text))
        assert not entry_checks
        assert dict(array.items()) == {"a": None, "b": Fraction(1, 3), "c": Fraction(-5, 2)}
        assert_canonical(array)

    @pytest.mark.parametrize("emit_zero_targets", [True, False])
    def test_apply_transform(self, emit_zero_targets, entry_checks):
        rng = random.Random(7)
        crossmap = random_crossmap(rng, max_sources=10, max_targets=10)
        array = random_mass_array(rng, crossmap.sources)
        entry_checks.clear()
        out, _ = apply_transform(crossmap, array, TransformOptions(emit_zero_targets=emit_zero_targets))
        assert not entry_checks
        assert_canonical(out)

    def test_probe_session(self, entry_checks):
        crossmap = random_crossmap(random.Random(11), max_sources=8, max_targets=8)
        probes: list[MassArray] = []

        def fn(array: MassArray) -> MassArray:
            probes.append(array)
            return apply_transform(crossmap, array)[0]

        entry_checks.clear()
        result = probe_blackbox(InProcessTransform(fn), reversed(crossmap.sources))
        assert result.crossmap == crossmap
        # The recovered edges reuse the probed keys and exact weights unchecked.
        assert not entry_checks
        assert len(probes) == len(crossmap.sources) + 1
        for array in probes + list(result.raw_weights.values()):
            assert_canonical(array)


class TestSortedEntriesContract:
    """Every MassArray the library builds hands MassArray._from_pairs pairs already in key order."""

    @given(st.integers(0, 10_000))
    def test_read_array_of_shuffled_rows(self, seed):
        rng = random.Random(seed)
        keys = [f"k{rng.randint(0, 999)}" for _ in range(rng.randint(1, 20))]
        values = {k: rng.choice(["NA", "0", "-3/4", f"{rng.randint(1, 99)}/{rng.randint(1, 9)}"]) for k in keys}
        rows = [f"{k},{v}\n" for k, v in values.items()]
        rng.shuffle(rows)
        array = read_array(io.StringIO("key,value\n" + "".join(rows)))
        assert_canonical(array)
        assert write_array(array) == write_array(read_array(io.StringIO("key,value\n" + "".join(sorted(rows)))))

    @given(st.integers(0, 10_000), st.booleans())
    def test_apply_transform(self, seed, emit_zero_targets):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng)
        array = random_mass_array(rng, crossmap.sources, subset=True)
        out, _ = apply_transform(crossmap, array, TransformOptions(emit_zero_targets=emit_zero_targets))
        assert_canonical(out)

    @given(st.integers(0, 10_000))
    def test_probe_arrays_and_raw_weights(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng)
        probes: list[MassArray] = []

        def fn(array: MassArray) -> MassArray:
            probes.append(array)
            return apply_transform(crossmap, array)[0]

        keys = list(crossmap.sources)
        rng.shuffle(keys)
        result = probe_blackbox(InProcessTransform(fn), keys)
        assert result.crossmap == crossmap
        # Probes follow the caller's key order; each probe array is sorted.
        assert [next(k for k, v in p.items() if v) for p in probes] == [keys[0], *keys]
        assert list(result.raw_weights) == keys
        for array in probes + list(result.raw_weights.values()):
            assert_canonical(array)



def array_text(rows: list[tuple[str, str]]) -> str:
    return "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)


def split_map_and_arrays(size: int) -> tuple[Crossmap, str, str]:
    """A map whose sources s<i> alternate between a unit edge and a 1/3 + 2/3 split, and two arrays on it.

    The first array covers every source; the second adds the uncovered key u.
    Every size has the same shape, so only the number of keys grows.
    """
    sources = [f"s{i:04d}" for i in range(size)]
    rows = {
        s: ((f"t{i:04d}", 1, 1),) if i % 2 else ((f"t{i:04d}", 1, 3), (f"t{i + 1:04d}", 2, 3))
        for i, s in enumerate(sources)
    }
    values = [(s, f"{i % 7}/{i % 5 + 1}") for i, s in enumerate(sources)]
    return Crossmap._from_rows(rows), array_text(values), array_text([*values, ("u", "5/2")])


class TestArrayPathBuildsNoFractionPerKey:
    """The array layers work on integer pairs: a Fraction is built only for a total."""

    @staticmethod
    def count_fractions(size: int) -> int:
        crossmap, covered_text, uncovered_text = split_map_and_arrays(size)
        sources = crossmap.sources
        # The probe target returns the map's own outputs, computed before counting,
        # in the order a serial session probes: the first key twice, then every key.
        outputs = {
            hot: apply_transform(crossmap, MassArray({k: int(k == hot) for k in sources}))[0] for hot in sources
        }
        order = iter([sources[0], *sources])
        built = []
        new = Fraction.__new__

        def spy(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Fraction, "__new__", spy)
            for text, on_uncovered in ((covered_text, "error"), (uncovered_text, "drop_and_report")):
                array = read_array(io.StringIO(text))
                coverage = check_coverage(crossmap, array)
                out, receipt = apply_transform(crossmap, array, TransformOptions(on_uncovered=on_uncovered))
                write_array(out)
            result = probe_blackbox(InProcessTransform(lambda array: outputs[next(order)]), sources)
        assert coverage.mass_at_risk == Fraction(5, 2)
        assert receipt.dropped_mass == Fraction(5, 2)
        assert result.crossmap == crossmap
        return len(built)

    def test_count_does_not_grow_with_the_keys(self):
        small, large = self.count_fractions(8), self.count_fractions(400)
        # Only the receipts' and the coverage report's totals.
        assert small == large <= 16


sign = st.sampled_from(["", "+", "-"])
digits = st.integers(0, 10**12).map(str)
spaces = st.sampled_from(["", " ", "  "])
value_token = st.one_of(
    st.builds(lambda s, p, a, b, q: f"{s}{p}{a}/{b}{q}", sign, digits, spaces, spaces, st.integers(1, 10**6).map(str)),
    st.builds(lambda s, w, f: f"{s}{w}.{f}", sign, digits, digits),
    st.builds(lambda s, w: f"{s}{w}", sign, digits),
    st.sampled_from([".5", "123.", "-0", "0/9", "+3/6", " 2 / 4 ", "NA"]),
)
array_rows = st.dictionaries(st.text("abcdefgh", min_size=1, max_size=3), value_token, max_size=8)


def observe(array: MassArray) -> tuple:
    """Everything a caller can read of an array, besides equality, pickling and hashing."""
    return (
        write_array(array),
        array.total,
        array.missing_keys(),
        check_array(array),
        repr(array),
        list(array),
        list(array.items()),
        list(array.values()),
        len(array),
    )


class TestArrayContract:
    """Arrays read, transformed or built by the public constructor keep one contract."""

    @given(array_rows)
    @example({"a": "0.10", "b": "-0", "c": "+3/6", "d": " 2 / 4 ", "e": "7", "f": ".5", "g": "0/9", "h": "NA"})
    def test_read_array_is_the_constructor_of_parsed_values(self, rows):
        array = read_array(io.StringIO(array_text(list(rows.items()))))
        expected = MassArray({k: None if v == "NA" else parse_rational(v) for k, v in rows.items()})
        assert array == expected and observe(array) == observe(expected)
        self.assert_contract(array)

    @given(array_rows, st.booleans(), st.booleans())
    def test_transformed_arrays(self, rows, emit_zero_targets, drop_one):
        # A clean array on the drawn keys, through a map splitting every other key.
        masses = {k: 0 if v == "NA" else abs(parse_rational(v)) for k, v in rows.items()}
        keys = sorted(masses)
        edges = [
            edge
            for i, k in enumerate(keys[drop_one:])
            for edge in ((Edge(k, f"x{k}", ONE),) if i % 2 else (Edge(k, "y", Fraction(1, 3)), Edge(k, "z", Fraction(2, 3))))
        ]
        if not edges:
            return
        options = TransformOptions(emit_zero_targets=emit_zero_targets, on_uncovered="drop_and_report")
        out, receipt = apply_transform(Crossmap(edges), MassArray(masses), options)
        assert out.total == receipt.output_total
        self.assert_contract(out)

    @given(
        st.dictionaries(
            st.text("abcdefgh", min_size=1, max_size=3),
            st.none() | st.integers(-3, 3) | st.fractions(min_value=-5, max_value=5, max_denominator=9),
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    @example({"a": 0, "b": Fraction(0), "c": None, "d": Fraction(-1, 2)}, random.Random(0))
    def test_constructor_keeps_only_the_pairs(self, entries, shuffler):
        given_order = sorted(entries.items())
        shuffler.shuffle(given_order)
        for items in (sorted(entries.items()), given_order):
            array = MassArray(items)
            assert vars(array) == {}
            assert array._pairs == {k: None if v is None else v.as_integer_ratio() for k, v in sorted(entries.items())}
            assert list(array._pairs) == sorted(entries)
            if entries:
                array[min(entries)]
                assert list(vars(array)) == ["_view"] and array._view == entries
                assert all(v is core.ZERO for v in array._view.values() if v == 0)
            self.assert_contract(array)

    @given(array_rows, st.randoms(use_true_random=False))
    @example({"b": "1/2", "a": "NA", "c": "3"}, random.Random(0))
    def test_read_array_sorts_only_keys_out_of_order(self, rows, shuffler):
        given_order = sorted(rows.items())
        shuffler.shuffle(given_order)
        for items in (sorted(rows.items()), given_order):
            calls = []

            def spy(pairs):
                calls.append((list(pairs), pairs, core._in_key_order(pairs)))
                return calls[-1][2]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(formats, "_in_key_order", spy)
                array = read_array(io.StringIO(array_text(items)))
            ((parsed_order, parsed, kept),) = calls
            assert parsed_order == [k for k, _ in items]
            assert array._pairs is kept and list(kept) == sorted(rows)
            # A file in key order keeps the dict it was parsed into; any other is rebuilt.
            assert (kept is parsed) == (parsed_order == sorted(rows))
            self.assert_contract(array)

    def assert_contract(self, array: MassArray) -> None:
        plain = dict(array.items())
        assert observe(array) == observe(MassArray(plain)) == observe(read_array(io.StringIO(write_array(array))))
        assert array == plain and plain == array
        assert not (array != plain or plain != array)
        probes = (*plain, "#")
        assert [k in array for k in probes] == [k in plain for k in probes]
        assert [array.get(k, "-") for k in probes] == [plain.get(k, "-") for k in probes]
        assert array.total == sum((v for v in plain.values() if v is not None), Fraction(0))
        assert array.missing_keys() == tuple(k for k, v in plain.items() if v is None)
        assert repr(array) == "MassArray({" + ", ".join(f"{k!r}: {v}" for k, v in plain.items()) + "})"
        assert write_array(array) == array_text(
            [(k, "NA" if v is None else render_rational(v)) for k, v in plain.items()]
        )
        for clone in (pickle.loads(pickle.dumps(array)), copy.deepcopy(array)):
            assert type(clone) is MassArray and clone == array and observe(clone) == observe(array)
        with pytest.raises(TypeError):
            hash(array)


def assert_as_if_checked(edges) -> None:
    """Each edge is exactly what the public, checking constructor makes of it."""
    for edge in edges:
        assert type(edge.weight) is Fraction
        assert edge == Edge(edge.source, edge.target, edge.weight)


def padded(rng: random.Random, key: str) -> str:
    return rng.choice(["", " ", "\t"]) + key + rng.choice(["", " "])


def one_to_one(rng: random.Random) -> Crossmap:
    n = rng.randint(1, 8)
    return Crossmap(Edge(f"s{i}", f"t{j}", ONE) for i, j in enumerate(rng.sample(range(n), n)))


class TestLibraryBuiltEdges:
    """Edges the library builds from stripped keys and exact weights skip Edge's checks."""

    def test_read_edge_list(self, entry_checks):
        draft = read_edge_list(io.StringIO("from,to,weight\n a ,\tx,1/2\na, y ,0.5\n"))
        assert not entry_checks
        assert draft.edges == (Edge("a", "x", HALF), Edge("a", "y", HALF))
        assert_as_if_checked(draft.edges)

    def test_compose(self, entry_checks):
        first, second = random_chain(random.Random(3))
        entry_checks.clear()
        composed = compose(first, second)
        assert not entry_checks
        assert_as_if_checked(composed.edges)

    def test_reverse(self, entry_checks):
        crossmap = one_to_one(random.Random(5))
        entry_checks.clear()
        reversed_map = reverse(crossmap)
        assert not entry_checks
        assert isinstance(reversed_map, Crossmap)
        assert_as_if_checked(reversed_map.edges)

    def test_import_crosswalk(self, entry_checks):
        crossmap, _ = import_crosswalk(io.StringIO("from,to\n a ,x\nb,x\nb, y\n"), "equal_split")
        assert not entry_checks
        assert crossmap.edges == (Edge("a", "x", ONE), Edge("b", "x", HALF), Edge("b", "y", HALF))
        assert_as_if_checked(crossmap.edges)

    def test_identity_crossmap(self, entry_checks):
        crossmap = identity_crossmap([" b", "a", "b"])
        # Each input key is cleaned once, where it comes in; its edge is not checked again.
        assert entry_checks == Counter(clean_key=3)
        assert crossmap.edges == (Edge("a", "a", ONE), Edge("b", "b", ONE))

    @given(st.integers(0, 10_000))
    def test_every_built_edge_equals_a_checked_edge(self, seed):
        rng = random.Random(seed)
        crossmap = random_crossmap(rng, max_sources=6, max_targets=6)
        rows = "".join(f"{padded(rng, e.source)},{padded(rng, e.target)},{e.weight}\n" for e in crossmap.edges)
        pairs = "".join(f"{padded(rng, e.source)},{padded(rng, e.target)}\n" for e in crossmap.edges)
        imported, _ = import_crosswalk(io.StringIO("from,to\n" + pairs), "equal_split")
        probed = probe_blackbox(InProcessTransform(lambda a: apply_transform(crossmap, a)[0]), crossmap.sources)
        built = {
            "read_edge_list": read_edge_list(io.StringIO("from,to,weight\n" + rows)).edges,
            "compose": compose(*random_chain(rng)).edges,
            "reverse": reverse(one_to_one(rng)).edges,
            "import_crosswalk": imported.edges,
            "probe_blackbox": probed.crossmap.edges,
        }
        for edges in built.values():
            assert edges
            assert_as_if_checked(edges)
