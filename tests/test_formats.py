"""File formats: strict parsing, canonical bytes, round trips, DOT export."""

from __future__ import annotations

import csv
import io
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from crossmaps import formats
from crossmaps.core import (
    Crossmap,
    Edge,
    EdgeListDraft,
    MassArray,
    ValueTooLongError,
    build_crossmap,
    clean_key,
    identity_crossmap,
    render_rational,
)
from crossmaps.formats import (
    ParseError,
    export_dot,
    import_crosswalk,
    read_array,
    read_crosswalk,
    read_edge_list,
    to_json,
    write_array,
    write_crosswalk,
    write_edge_list,
)
from crossmaps.graph import summarize

from helpers import random_crossmap, random_mass_array

ONE = Fraction(1)
HALF = Fraction(1, 2)
# One digit more than str() may print.
TOO_LONG = 10 ** sys.get_int_max_str_digits()

COUNTRY_CSV = (
    "from,to,weight\n"
    "AUS,AUS,1\n"
    "BLX,BEL,1/2\n"
    "BLX,LUX,1/2\n"
    "E.GER,DEU,1\n"
    "W.GER,DEU,1\n"
)


def country_map() -> Crossmap:
    built = build_crossmap(read_edge_list(io.StringIO(COUNTRY_CSV)))
    assert isinstance(built, Crossmap)
    return built


WEIGHT_TOKENS = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-4, 12), st.integers(1, 9)),
    st.builds(
        lambda sign, whole, frac: f"{sign}{whole}.{frac}",
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 2),
        st.text("0123456789", min_size=1, max_size=5),
    ),
)


class TestEdgeListFiles:
    def test_read_country_table(self):
        draft = read_edge_list(io.StringIO(COUNTRY_CSV))
        assert len(draft.edges) == 5
        assert draft.edges[1] == Edge("BLX", "BEL", HALF)

    def test_decimal_weights_parse_exactly(self):
        draft = read_edge_list(io.StringIO("from,to,weight\nBLX,BEL,0.5\n"))
        assert draft.edges[0].weight == HALF

    def test_zero_weight_rejected_with_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            read_edge_list(io.StringIO("from,to,weight\na,b,0\n"))
        assert excinfo.value.problems == ((2, "weight must be in (0, 1], got 0"),)

    @given(WEIGHT_TOKENS)
    @example("0")
    @example("-0")
    @example("-1/2")
    @example("2/2")
    @example("3/2")
    @example("1.0")
    @example("1.0001")
    def test_accepts_exactly_the_weights_in_zero_to_one(self, token):
        weight = Fraction(token)
        text = f"from,to,weight\na,b,{token}\n"
        if 0 < weight <= 1:
            assert read_edge_list(io.StringIO(text)).edges == (Edge("a", "b", weight),)
        else:
            with pytest.raises(ParseError) as excinfo:
                read_edge_list(io.StringIO(text))
            assert excinfo.value.problems == ((2, f"weight must be in (0, 1], got {weight}"),)

    def test_each_distinct_weight_token_is_parsed_once(self, monkeypatch):
        tokens = []
        parse = formats._parse_ratio
        monkeypatch.setattr(formats, "_parse_ratio", lambda text: tokens.append(text) or parse(text))
        text = "from,to,weight\na,x,1/2\na,y,1/2\nb,x,0.5\nb,y,0.5\nc,x,1\nd,x,1/2\nd,y,1/2\n"
        edges = read_edge_list(io.StringIO(text)).edges
        assert sorted(tokens) == ["0.5", "1", "1/2"]
        assert [e.weight for e in edges] == [HALF, HALF, HALF, HALF, ONE, HALF, HALF]
        # Lines with one token share one Fraction.
        assert all(edges[i].weight is edges[0].weight for i in (1, 5, 6))
        assert edges[3].weight is edges[2].weight

    @pytest.mark.parametrize(
        ("token", "message"),
        [("oops", "malformed rational 'oops'"), ("3/2", "weight must be in (0, 1], got 3/2")],
        ids=["malformed", "out_of_range"],
    )
    def test_repeated_bad_token_is_reported_on_every_line(self, token, message):
        text = f"from,to,weight\na,x,{token}\nb,x,1\nc,x,{token}\nd,x,{token}\n"
        with pytest.raises(ParseError) as excinfo:
            read_edge_list(io.StringIO(text))
        assert excinfo.value.problems == ((2, message), (4, message), (5, message))

    def test_all_bad_rows_reported(self):
        text = "from,to,weight\na,b,2\n,b,1\na,c,oops\na,d,1\n"
        with pytest.raises(ParseError) as excinfo:
            read_edge_list(io.StringIO(text))
        assert [line for line, _ in excinfo.value.problems] == [2, 3, 4]

    def test_header_must_match_exactly(self):
        with pytest.raises(ParseError):
            read_edge_list(io.StringIO("source,target,w\na,b,1\n"))

    def test_write_identity_golden_bytes(self):
        assert write_edge_list(identity_crossmap(["a"])) == "from,to,weight\na,a,1\n"

    def test_canonical_round_trip_bytes(self):
        text = write_edge_list(country_map())
        reread = build_crossmap(read_edge_list(io.StringIO(text)))
        assert write_edge_list(reread) == text

    def test_duplicate_rows_left_for_validation(self):
        draft = read_edge_list(io.StringIO("from,to,weight\na,b,1\na,b,1\n"))
        report = build_crossmap(draft)
        assert not isinstance(report, Crossmap)
        assert any(f.code == "duplicate_edge" for f in report.findings)

    @given(st.integers(0, 10_000))
    def test_crossmap_round_trips_through_csv(self, seed):
        crossmap = random_crossmap(random.Random(seed), max_sources=6, max_targets=6)
        text = write_edge_list(crossmap)
        rebuilt = build_crossmap(read_edge_list(io.StringIO(text)))
        assert rebuilt == crossmap
        assert write_edge_list(rebuilt) == text


class TestArrayFiles:
    def test_basic_entry(self):
        array = read_array(io.StringIO("key,value\nAUS,140\n"))
        assert dict(array.items()) == {"AUS": Fraction(140)}

    def test_na_is_explicit_missing_marker(self):
        array = read_array(io.StringIO("key,value\nx5555,NA\n"))
        assert array.missing_keys() == ("x5555",)

    def test_lowercase_na_is_not_a_marker(self):
        with pytest.raises(ParseError):
            read_array(io.StringIO("key,value\na,na\n"))

    def test_empty_value_cell_is_error(self):
        with pytest.raises(ParseError):
            read_array(io.StringIO("key,value\na,\n"))

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(ParseError) as excinfo:
            read_array(io.StringIO("key,value\na,1\na,2\n"))
        assert excinfo.value.problems[0][0] == 3

    def test_write_sorted_and_round_trip(self):
        array = MassArray({"b": Fraction(1, 3), "a": None, "c": 2})
        text = write_array(array)
        assert text == "key,value\na,NA\nb,1/3\nc,2\n"
        assert read_array(io.StringIO(text)) == array

    @given(st.integers(0, 10_000))
    def test_array_round_trips(self, seed):
        rng = random.Random(seed)
        keys = tuple(f"k{i}" for i in range(rng.randint(1, 9)))
        array = random_mass_array(rng, keys)
        text = write_array(array)
        assert read_array(io.StringIO(text)) == array
        assert write_array(read_array(io.StringIO(text))) == text


KEY_ALPHABET = st.characters(min_codepoint=33, max_codepoint=126)
AWKWARD_KEYS = st.text(KEY_ALPHABET, min_size=1, max_size=12)
# Characters special to CSV quoting or to some notion of a line end.
LINE_BREAKING_KEYS = st.text(
    st.sampled_from(["a", "b", " ", "\r", "\n", "\t", "\x00", "\x1c", "\x85", "\u2028", ",", '"']), min_size=1, max_size=6
)
# Input text mixing every line end, in and out of quoted fields, with the
# characters str.splitlines breaks at and csv does not.
SOURCE_TEXT = st.lists(
    st.sampled_from(
        ["a", "b", "x", "1", "1/2", "NA", ",", '"', '"a\r\nb"', '"c\rd"', "\n", "\r\n", "\r", "\x1c", "\x85", "\u2028", " ", "é", "\x00"]
    ),
    max_size=16,
).map("".join)
# Keys a writer quotes over several lines.
MULTILINE_KEYS = st.lists(AWKWARD_KEYS, min_size=1, max_size=3).map("\n".join)
# Each reader with its header, the fields after the key in a good row, and the
# problem a blank last field gives.
EVERY_READER = pytest.mark.parametrize(
    ("reader", "header", "good", "blank_last"),
    [
        (read_edge_list, formats.EDGE_HEADER, ["x", "1"], "malformed rational ' '"),
        (read_array, formats.ARRAY_HEADER, ["1"], "malformed rational ' '"),
        (read_crosswalk, formats.CROSSWALK_HEADER, ["x"], "blank key"),
    ],
    ids=["edge_list", "array", "crosswalk"],
)


class TestQuoting:
    @given(st.sets(AWKWARD_KEYS, min_size=1, max_size=6))
    def test_keys_with_commas_and_quotes_survive(self, keys):
        crossmap = identity_crossmap(sorted(keys))
        text = write_edge_list(crossmap)
        rebuilt = build_crossmap(read_edge_list(io.StringIO(text)))
        assert rebuilt == crossmap

    @given(st.lists(LINE_BREAKING_KEYS, min_size=1, max_size=6))
    @example(["a\rb", "c"])
    @example(["a\x00b"])
    def test_every_accepted_key_round_trips(self, texts):
        edges, entries = {}, {}
        for i, text in enumerate(texts):
            try:
                edge = Edge(text, text, ONE)
                array = MassArray({text: Fraction(i, 7)})
            except ValueError:
                continue
            edges[edge.source] = edge
            entries.update(array.items())
        assume(edges)
        crossmap, array = Crossmap(edges.values()), MassArray(entries)
        assert build_crossmap(read_edge_list(io.StringIO(write_edge_list(crossmap)))) == crossmap
        assert read_array(io.StringIO(write_array(array))) == array

    def test_comma_key_quoted_rfc_style(self):
        text = write_edge_list(identity_crossmap(['a,b']))
        assert '"a,b"' in text


    @pytest.mark.parametrize(
        ("reader", "header"),
        [(read_edge_list, "from,to,weight"), (read_array, "key,value"), (read_crosswalk, "from,to")],
        ids=["edge_list", "array", "crosswalk"],
    )
    def test_field_over_csv_limit_is_parse_error(self, reader, header):
        big = "k" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError) as excinfo:
            reader(io.StringIO(f"{header}\n{big},1\n"))
        ((line, message),) = excinfo.value.problems
        assert line == 2
        assert "field larger than field limit" in message

    @pytest.mark.parametrize(
        ("reader", "header"),
        [(read_edge_list, "from,to,weight"), (read_array, "key,value"), (read_crosswalk, "from,to")],
        ids=["edge_list", "array", "crosswalk"],
    )
    def test_nul_is_parse_error_on_every_version(self, reader, header):
        # csv.reader refuses NUL before Python 3.11 and reads it as key text after.
        with pytest.raises(ParseError) as excinfo:
            reader(io.StringIO(f"{header}\nA,B,1\n\"b\nc\x00\",x,1\n"))
        assert excinfo.value.problems == ((4, "line contains NUL"),)

    @pytest.mark.parametrize(
        ("reader", "header", "blank_second_field"),
        [(read_array, "key,value", "malformed rational ' '"), (read_crosswalk, "from,to", "blank key")],
        ids=["array", "crosswalk"],
    )
    def test_wrong_field_count_and_blank_key_reported_by_line(self, reader, header, blank_second_field):
        with pytest.raises(ParseError) as excinfo:
            reader(io.StringIO(f"{header}\na\nb,1,2\n ,1\nc,1\nd, \n"))
        assert excinfo.value.problems == (
            (2, "expected 2 fields, got 1"),
            (3, "expected 2 fields, got 3"),
            (4, "blank key"),
            (6, blank_second_field),
        )

    def test_crlf_inside_a_quoted_field_reads_as_one_newline(self):
        # The universal-newline reading a file opened in text mode gets, for a
        # stream too: the key carries "\n", never the "\r" clean_key refuses.
        draft = read_edge_list(io.StringIO('from,to,weight\r\n"a\r\nb",x,1\r\n'))
        assert [(e.source, e.target, e.weight) for e in draft.edges] == [("a\nb", "x", ONE)]

    @EVERY_READER
    def test_problems_are_reported_at_the_line_the_row_starts_on(self, reader, header, good, blank_last):
        rest = ",".join(good)
        text = f'{",".join(header)}\n"a\n\nb",{rest}\n ,{rest}\n"c\nd",{rest},extra\n'
        with pytest.raises(ParseError) as excinfo:
            reader(io.StringIO(text))
        width = len(header)
        assert excinfo.value.problems == ((5, "blank key"), (6, f"expected {width} fields, got {width + 1}"))

    @EVERY_READER
    def test_problems_before_a_csv_error_are_kept(self, reader, header, good, blank_last):
        rest = ",".join(good)
        big = "k" * (csv.field_size_limit() + 1)
        text = f'{",".join(header)}\n ,{rest}\n"a\nb",{rest},extra\n{big},{rest}\n'
        with pytest.raises(ParseError) as excinfo:
            reader(io.StringIO(text))
        blank, count, (line, message) = excinfo.value.problems
        assert blank == (2, "blank key")
        assert count == (3, f"expected {len(header)} fields, got {len(header) + 1}")
        assert line == 5
        assert "field larger than field limit" in message

    @EVERY_READER
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["good", "count", "blank", "blank_last"]), MULTILINE_KEYS, st.integers(0, 4)),
            max_size=10,
        )
    )
    def test_problem_lines_count_lines_inside_quoted_fields(self, reader, header, good, blank_last, rows):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        width, expected = len(header), []
        for i, (kind, key, count) in enumerate(rows):
            # The line this row starts on, counted independently of csv.reader.
            line = buffer.getvalue().count("\n") + 1
            # The index keeps every key distinct after stripping, so no row is a duplicate.
            key = f"{i}:{key}"
            if kind == "good":
                writer.writerow([key, *good])
            elif kind == "count":
                count = count if count != width else width + 1
                writer.writerow([key] * count)
                expected.append((line, f"expected {width} fields, got {count}"))
            elif kind == "blank":
                writer.writerow([" \n ", *good])
                expected.append((line, "blank key"))
            else:
                writer.writerow([key, *good[:-1], " "])
                expected.append((line, blank_last))
        if not expected:
            reader(io.StringIO(buffer.getvalue()))
            return
        with pytest.raises(ParseError) as excinfo:
            reader(io.StringIO(buffer.getvalue()))
        assert excinfo.value.problems == tuple(expected)

    @EVERY_READER
    @given(end=st.sampled_from(["\n", "\r\n", "\r"]), body=SOURCE_TEXT)
    @example(end="\r", body='"a\r\nb",x,1\r\x1c,1,1\r\n\u2028,1,1\r')
    def test_a_path_and_both_kinds_of_stream_read_alike(self, reader, header, good, blank_last, end, body):
        text = ",".join(header) + end + body
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(text.encode())
            binary, stream = io.BytesIO(text.encode()), io.StringIO(text)
            binary.name = stream.name = str(path)
            outcomes = [read_outcome(reader, source) for source in (path, binary, stream)]
        assert outcomes[1:] == outcomes[:1] * 2


def read_outcome(reader, source):
    """What ``reader`` makes of ``source``: its result, or its parse error's document."""
    try:
        return reader(source)
    except ParseError as exc:
        return exc.to_json_dict()


def per_row_reference(header: list[str], rows) -> str:
    """The writers' bytes, written one ``writerow`` call at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def accepted_key(text: str) -> bool:
    try:
        clean_key(text)
    except ValueError:
        return False
    return True


# Every kind of key a writer can be given, as clean_key leaves it.  Edge and
# MassArray run clean_key on every key, and the readers strip each key,
# refuse NUL and turn \r into \n, so no key that reaches a writer is empty or
# untrimmed or holds \r or NUL: the keys on which csv.writer's bytes differ
# between Python versions never arrive.
WRITER_KEYS = st.one_of(AWKWARD_KEYS, MULTILINE_KEYS, LINE_BREAKING_KEYS.filter(accepted_key).map(clean_key))
# Keys as a caller may hand them to write_crosswalk, which cleans or refuses each.
CROSSWALK_KEYS = st.one_of(AWKWARD_KEYS, MULTILINE_KEYS, LINE_BREAKING_KEYS)


class TestWriters:
    @given(st.integers(0, 10_000), st.lists(WRITER_KEYS, min_size=24, max_size=24, unique=True))
    def test_edge_list_matches_a_per_row_reference(self, seed, keys):
        base = random_crossmap(random.Random(seed), max_sources=12, max_targets=12)
        name = dict(zip([*base.sources, *base.targets], keys))
        crossmap = Crossmap(Edge(name[e.source], name[e.target], e.weight) for e in base.edges)
        rows = [[e.source, e.target, render_rational(e.weight)] for e in crossmap.edges]
        assert write_edge_list(crossmap) == per_row_reference(["from", "to", "weight"], rows)

    @given(st.integers(0, 10_000), st.lists(WRITER_KEYS, min_size=1, max_size=12, unique=True))
    @example(0, ["a\nb", "c d", "e\tf", "g\x1ch", "i\x85j", "k\u2028l", 'm,"n'])
    def test_array_matches_a_per_row_reference(self, seed, keys):
        rng = random.Random(seed)
        array = MassArray(
            {k: rng.choice([None, Fraction(rng.randint(-99, 999), rng.randint(1, 99))]) for k in keys}
        )
        rows = [[k, "NA" if v is None else render_rational(v)] for k, v in array.items()]
        assert write_array(array) == per_row_reference(["key", "value"], rows)

    @pytest.mark.parametrize("value", [TOO_LONG, -TOO_LONG, Fraction(1, TOO_LONG)], ids=["integer", "negative", "denominator"])
    def test_array_value_too_long_to_render(self, value):
        with pytest.raises(ValueTooLongError):
            write_array(MassArray({"a": 1, "b": value}))

    @pytest.mark.parametrize("digits", [0, 1], ids=["denominator", "numerator_and_denominator"])
    def test_edge_list_weight_too_long_to_render(self, digits):
        weight = Fraction(1 + digits * (TOO_LONG - 2), TOO_LONG)
        crossmap = Crossmap([Edge("a", "x", ONE), Edge("b", "x", weight), Edge("b", "y", 1 - weight)])
        with pytest.raises(ValueTooLongError):
            write_edge_list(crossmap)


class TestCrosswalkFiles:
    def test_read_pairs(self):
        pairs = read_crosswalk(io.StringIO("from,to\nAF,AFG\nAL,ALB\n"))
        assert pairs == (("AF", "AFG"), ("AL", "ALB"))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ParseError):
            read_crosswalk(io.StringIO("from,to\nAF,AFG\nAF,AFG\n"))

    def test_round_trip_bytes(self):
        text = "from,to\nAF,AFG\nAL,ALB\nDZ,DZA\n"
        assert write_crosswalk(read_crosswalk(io.StringIO(text))) == text

    # One example per way the writer once gave text its reader refuses or reads as other pairs.
    @given(st.lists(st.tuples(CROSSWALK_KEYS, CROSSWALK_KEYS), max_size=6))
    @example([(" a", "b")])
    @example([("a", 1)])
    @example([("a\rb", "c")])
    @example([("", "c")])
    @example([("a\x00", "b")])
    @example([("a", "b"), ("a", "b")])
    def test_written_pairs_read_back_cleaned(self, pairs):
        try:
            cleaned = [(clean_key(s), clean_key(t)) for s, t in pairs]
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                write_crosswalk(pairs)
            return
        if len(set(cleaned)) < len(cleaned):
            with pytest.raises(ValueError, match="duplicate pair"):
                write_crosswalk(pairs)
            return
        text = write_crosswalk(pairs)
        assert read_crosswalk(io.StringIO(text)) == tuple(sorted(cleaned))
        assert write_crosswalk(read_crosswalk(io.StringIO(text))) == text

    @pytest.mark.parametrize(
        ("pairs", "error"),
        [
            ([("a", 1)], TypeError),
            ([("a\rb", "c")], ValueError),
            ([("", "c")], ValueError),
            ([("a\x00", "b")], ValueError),
            ([("a", "b"), (" a", "b")], ValueError),
        ],
        ids=["non_str", "carriage_return", "blank", "nul", "repeated_after_trimming"],
    )
    def test_refusal_names_the_pair(self, pairs, error):
        with pytest.raises(error) as excinfo:
            write_crosswalk(pairs)
        assert repr(pairs[-1]) in str(excinfo.value)


class TestImportCrosswalk:
    def test_one_to_one_rows_become_unit_crossmap(self):
        crossmap, report = import_crosswalk(io.StringIO("from,to\nAF,AFG\nAL,ALB\nDZ,DZA\n"))
        assert report.ok and not report.findings
        assert crossmap == Crossmap(
            [Edge("AF", "AFG", ONE), Edge("AL", "ALB", ONE), Edge("DZ", "DZA", ONE)]
        )

    def test_many_to_one_is_fine_under_reject_splits(self):
        crossmap, report = import_crosswalk(io.StringIO("from,to\nE.GER,DEU\nW.GER,DEU\n"))
        assert report.ok
        assert crossmap is not None and len(crossmap.edges) == 2

    def test_split_source_rejected_by_default(self):
        crossmap, report = import_crosswalk(io.StringIO("from,to\nBLX,BEL\nBLX,LUX\n"))
        assert crossmap is None
        (finding,) = report.errors
        assert finding.code == "split_source"
        assert finding.subject == "BLX"

    def test_equal_split_imputes_weights_with_warning(self):
        crossmap, report = import_crosswalk(
            io.StringIO("from,to\nBLX,BEL\nBLX,LUX\n"), split_policy="equal_split"
        )
        assert crossmap == Crossmap([Edge("BLX", "BEL", HALF), Edge("BLX", "LUX", HALF)])
        (warning,) = report.warnings
        assert warning.code == "equal_split_imputed"
        assert "review" in warning.message

    def test_misspelled_split_policy_refused_before_reading(self):
        # A typo must not take the equal_split branch, which imputes weights.
        source = io.StringIO("from,to\nBLX,BEL\nBLX,LUX\n")
        with pytest.raises(ValueError, match="'reject_splits', 'equal_split'"):
            import_crosswalk(source, split_policy="reject")
        assert source.tell() == 0


class TestExportDot:
    def test_country_layout(self):
        dot = export_dot(country_map())
        assert dot.count("subgraph cluster_") == 3
        assert '"src:BLX" -> "tgt:BEL" [style=dashed, label="1/2"];' in dot
        assert '"src:BLX" -> "tgt:LUX" [style=dashed, label="1/2"];' in dot
        assert '"src:E.GER" -> "tgt:DEU";' in dot  # merge edges stay solid

    def test_identity_all_solid_unlabeled(self):
        dot = export_dot(identity_crossmap(["a", "b"]))
        assert "dashed" not in dot
        assert "label=" not in dot.replace('[label="a"]', "").replace('[label="b"]', "")

    def test_byte_deterministic(self):
        assert export_dot(country_map()) == export_dot(country_map())

    def test_pure_function_of_canonical_form(self):
        shuffled = Crossmap(reversed(country_map().edges))
        assert export_dot(shuffled) == export_dot(country_map())

    @given(st.integers(0, 10_000))
    def test_dashed_edges_are_the_fractional_ones(self, seed):
        crossmap = random_crossmap(random.Random(seed), max_sources=6, max_targets=6)
        dot = export_dot(crossmap)
        dashed = {line.strip() for line in dot.splitlines() if "style=dashed" in line}
        assert dashed == {
            f'"src:{e.source}" -> "tgt:{e.target}" [style=dashed, label="{e.weight}"];'
            for e in crossmap.edges
            if e.weight != 1
        }

    def test_quotes_escaped(self):
        crossmap = Crossmap([Edge('he"llo', "a\\b", ONE)])
        dot = export_dot(crossmap)
        assert '\\"' in dot and "\\\\" in dot


class TestJson:
    def test_rationals_rendered_as_exact_text(self):
        draft = EdgeListDraft([Edge("BLX", "BEL", HALF), Edge("BLX", "LUX", Fraction(2, 5))])
        text = to_json(build_crossmap(draft))
        assert '"value": "9/10"' in text

    def test_deterministic(self):
        crossmap = country_map()
        assert to_json(summarize(crossmap)) == to_json(summarize(crossmap))
