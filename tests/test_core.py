"""Core types: exact parsing, crossmap construction, validation findings."""

from __future__ import annotations

import io
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from crossmaps import core
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
from crossmaps.formats import import_crosswalk, read_array, read_edge_list
from crossmaps.transform import TransformOptions, apply_transform, drop_keys

from helpers import random_chain, random_crossmap, random_mass_array

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

    @pytest.mark.parametrize("blank", ["", " ", "\t\n"])
    def test_rejects_blank_keys(self, blank):
        with pytest.raises(ValueError):
            Edge(blank, "b", ONE)
        with pytest.raises(ValueError):
            Edge("a", blank, ONE)

    def test_trusted_edge_is_frozen_and_slotted(self):
        edge = Edge._from_clean("a", "b", HALF)
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

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            MassArray({" \t": 1})


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
    assert list(array) == sorted(array)
    assert array == MassArray(dict(array.items()))


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

    def test_drop_keys(self, entry_checks):
        array = MassArray({"c": 3, "a": 1, "b": None})
        entry_checks.clear()
        kept, dropped = drop_keys(array, {"a"})
        assert not entry_checks
        assert (dict(kept.items()), dropped) == ({"b": None, "c": Fraction(3)}, ONE)
        assert_canonical(kept)

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
