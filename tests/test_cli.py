"""Command-line behaviour: exit codes, stderr JSON, determinism, provenance."""

from __future__ import annotations

import copy
import csv
import errno
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import crossmaps
from crossmaps import algebra, cli, extraction, transform
from crossmaps.algebra import CompositionError
from crossmaps.cli import MAX_JOBS, main
from crossmaps.core import (
    Crossmap,
    CrossmapError,
    Edge,
    EdgeListDraft,
    InvalidCrossmapError,
    ValueTooLongError,
    build_crossmap,
    identity_crossmap,
    validate_draft,
)
from crossmaps.extraction import ProbeError
from crossmaps.formats import ParseError, read_edge_list, to_json, write_edge_list
from crossmaps.graph import components
from crossmaps.transform import CoverageError, MissingValueError, NegativeMassError, apply_transform

from helpers import prime_edge_list

HARNESS = Path(__file__).parent / "trunc_harness.py"

COUNTRY_CSV = (
    "from,to,weight\n"
    "AUS,AUS,1\n"
    "BLX,BEL,1/2\n"
    "BLX,LUX,1/2\n"
    "E.GER,DEU,1\n"
    "W.GER,DEU,1\n"
)
OBS_CSV = "key,value\nAUS,140\nBLX,10\nE.GER,3\nW.GER,4\n"

# Valid inputs whose exact results have more digits than str() may print:
# the sum 18 * LONG / 77 on target t, and a composed weight over LONG * (LONG - 1).
LONG = 10 ** sys.get_int_max_str_digits() - 1
TOO_LONG_APPLY = {
    "m.csv": b"from,to,weight\ns1,t,1\ns2,t,1\n",
    "d.csv": f"key,value\ns1,{LONG}/7\ns2,{LONG}/11\n".encode(),
}
# Two uncovered keys whose masses sum to 1/a + 1/b, over a denominator a * b
# of 4401 digits: the coverage error is raised, and its document is too long.
_A, _B = 10**2200 + 1, 10**2200 + 3
TOO_LONG_UNCOVERED = {
    "m.csv": b"from,to,weight\ns1,t,1\ns2,t,1\n",
    "d.csv": f"key,value\ns1,1\ny,1/{_A}\nz,1/{_B}\n".encode(),
}
TOO_LONG_COMPOSE = {
    "m.csv": f"from,to,weight\na,m,1/{LONG}\na,n,{LONG - 1}/{LONG}\n".encode(),
    "n.csv": f"from,to,weight\nm,y,{LONG - 2}/{LONG - 1}\nm,z,1/{LONG - 1}\nn,z,1\n".encode(),
}


@pytest.fixture
def country_file(tmp_path) -> str:
    path = tmp_path / "country.csv"
    path.write_text(COUNTRY_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def obs_file(tmp_path) -> str:
    path = tmp_path / "obs.csv"
    path.write_text(OBS_CSV, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid_file_exits_zero(self, country_file, capsys):
        assert main(["validate", country_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_sum_exits_one_with_json_findings(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("from,to,weight\nBLX,BEL,1/2\nBLX,LUX,2/5\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        (finding,) = err["findings"]
        assert finding["subject"] == "BLX"
        assert finding["value"] == "9/10"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_sum_too_long_to_print(self, json_flag, tmp_path, capsys):
        # The text report lists the finding with the sum's size; the JSON
        # documents, which carry the exact value, are the one too_long document.
        path = tmp_path / "primes.csv"
        path.write_text(prime_edge_list(), encoding="utf-8")
        assert main(["validate", str(path), *json_flag]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "too_long"
        if json_flag:
            assert captured.out == ""
        else:
            line, verdict = captured.out.splitlines()
            assert line.startswith("error weight_sum_not_one a: outgoing weights of source 'a' sum to too long to render: a ")
            assert verdict == "invalid: 1 error(s)"

    def test_zero_weight_row_exits_one(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("from,to,weight\na,b,0\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["problems"][0]["line"] == 2

    def test_field_over_csv_limit_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(f"from,to,weight\n{'k' * (csv.field_size_limit() + 1)},b,1\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "parse"
        assert [p["line"] for p in err["problems"]] == [2]

    def test_json_report_on_stdout(self, country_file, capsys):
        assert main(["validate", country_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(COUNTRY_CSV.encode()), encoding="utf-8"))
        assert main(["validate", "-"]) == 0


class TestApply:
    def test_country_output_and_receipt(self, country_file, obs_file, capsys):
        assert main(["apply", "--map", country_file, "--data", obs_file]) == 0
        captured = capsys.readouterr()
        assert captured.out == "key,value\nAUS,140\nBEL,5\nDEU,7\nLUX,5\n"
        assert "input_total   157" in captured.err
        assert "output_total  157" in captured.err

    def test_json_receipt(self, country_file, obs_file, capsys):
        assert main(["apply", "--map", country_file, "--data", obs_file, "--json"]) == 0
        receipt = json.loads(capsys.readouterr().err)
        assert receipt["input_total"] == receipt["output_total"] == "157"

    def test_uncovered_key_named_with_mass(self, country_file, tmp_path, capsys):
        data = tmp_path / "leaky.csv"
        data.write_text("key,value\nAUS,1\nx7285!,3895\n", encoding="utf-8")
        assert main(["apply", "--map", country_file, "--data", str(data)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["uncovered_keys"] == ["x7285!"]
        assert err["mass_at_risk"] == "3895"

    def test_drop_uncovered_reports_dropped_mass(self, country_file, tmp_path, capsys):
        data = tmp_path / "leaky.csv"
        data.write_text("key,value\nAUS,1\nx7285!,3895\n", encoding="utf-8")
        code = main(
            ["apply", "--map", country_file, "--data", str(data), "--drop-uncovered", "--json"]
        )
        assert code == 0
        receipt = json.loads(capsys.readouterr().err)
        assert receipt["dropped_mass"] == "3895"
        assert Fraction(receipt["input_total"]) == Fraction(receipt["output_total"]) + 3895

    def test_missing_value_refused(self, country_file, tmp_path, capsys):
        data = tmp_path / "na.csv"
        data.write_text("key,value\nAUS,NA\n", encoding="utf-8")
        assert main(["apply", "--map", country_file, "--data", str(data)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "missing_values"

    def test_drop_zeros_flag(self, country_file, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("key,value\nAUS,5\n", encoding="utf-8")
        assert main(["apply", "--map", country_file, "--data", str(data), "--drop-zeros"]) == 0
        assert capsys.readouterr().out == "key,value\nAUS,5\n"

    def test_out_file_and_determinism(self, country_file, obs_file, tmp_path, capsys):
        out = tmp_path / "result.csv"
        assert main(["apply", "--map", country_file, "--data", obs_file, "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["apply", "--map", country_file, "--data", obs_file, "--out", str(out)]) == 0
        assert out.read_bytes() == first
        capsys.readouterr()

    def test_provenance_footer_appends_records(self, country_file, obs_file, tmp_path, capsys):
        ledger = tmp_path / "prov.jsonl"
        for _ in range(2):
            main(
                [
                    "apply", "--map", country_file, "--data", obs_file,
                    "--out", str(tmp_path / "o.csv"), "--provenance", str(ledger),
                ]
            )
        records = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert len(records) == 2
        assert records[0]["command"] == "apply"
        assert set(records[0]["inputs"]) == {country_file, obs_file}
        assert all(digest.startswith("sha256:") for digest in records[0]["inputs"].values())
        assert records[0]["receipt"]["output_total"] == "157"
        capsys.readouterr()


class TestComposeReverse:
    def test_compose_two_steps(self, tmp_path, capsys):
        first = tmp_path / "ab.csv"
        second = tmp_path / "bc.csv"
        out = tmp_path / "ac.csv"
        first.write_text("from,to,weight\na,m,1/2\na,n,1/2\n", encoding="utf-8")
        second.write_text("from,to,weight\nm,z,1\nn,z,1\n", encoding="utf-8")
        assert main(["compose", str(first), str(second), "--out", str(out)]) == 0
        assert out.read_text() == "from,to,weight\na,z,1\n"

    def test_compose_chain_failure(self, tmp_path, capsys):
        first = tmp_path / "ab.csv"
        second = tmp_path / "bc.csv"
        first.write_text("from,to,weight\na,m,1\n", encoding="utf-8")
        second.write_text("from,to,weight\nq,z,1\n", encoding="utf-8")
        assert main(["compose", str(first), str(second), "--out", str(tmp_path / "x.csv")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["unmatched_keys"] == ["m"]

    def test_reverse_bijection(self, tmp_path, capsys):
        edges = tmp_path / "ab.csv"
        out = tmp_path / "ba.csv"
        edges.write_text("from,to,weight\na,b,1\n", encoding="utf-8")
        assert main(["reverse", str(edges), "--out", str(out)]) == 0
        assert out.read_text() == "from,to,weight\nb,a,1\n"

    def test_reverse_aggregation_fails_with_report(self, tmp_path, capsys):
        edges = tmp_path / "agg.csv"
        edges.write_text("from,to,weight\ns1,t,1\ns2,t,1\n", encoding="utf-8")
        assert main(["reverse", str(edges), "--out", str(tmp_path / "x.csv")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["findings"][0]["subject"] == "t"


class TestClassifySummarize:
    def test_classify_text(self, country_file, capsys):
        assert main(["classify", country_file]) == 0
        out = capsys.readouterr().out
        assert out.count("component ") == 3
        assert "one_to_many" in out and "many_to_one" in out and "one_to_one" in out

    def test_classify_text_and_json_agree(self, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        path.write_text(COUNTRY_CSV + "m1,n1,1/2\nm1,n2,1/2\nm2,n1,1\n", encoding="utf-8")
        assert main(["classify", str(path)]) == 0
        text = capsys.readouterr().out
        assert main(["classify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reported = re.findall(r"^component (\d+) \[(\w+)\]", text, re.MULTILINE)
        assert reported == [(str(i), c["relation_type"]) for i, c in enumerate(payload)]
        assert len({c["relation_type"] for c in payload}) == 4

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_classify_builds_no_edge(self, flags, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        path.write_text(COUNTRY_CSV + 'm1,n1,1/2\nm1,n2,1/2\nm2,n1,1\n"k,1","q""r\ns",1\n', encoding="utf-8")
        built, new_edge = [], Edge.__init__

        def spy_edge(self, *args):
            built.append(args)
            new_edge(self, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Edge, "__init__", spy_edge)
            assert main(["classify", str(path), *flags]) == 0
        assert built == []
        # The same bytes as rendered from the public components.
        found = components(build_crossmap(read_edge_list(str(path))))
        if flags:
            expected = to_json([c.to_json_dict() for c in found])
        else:
            expected = "".join(
                f"component {i} [{c.relation_type}] sources: {', '.join(c.sources)} -> targets: {', '.join(c.targets)}\n"
                for i, c in enumerate(found)
            )
        assert capsys.readouterr().out == expected

    def test_classify_json(self, country_file, capsys):
        assert main(["classify", country_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["relation_type"] for c in payload] == ["one_to_one", "one_to_many", "many_to_one"]

    def test_summarize_table(self, country_file, capsys):
        assert main(["summarize", country_file]) == 0
        out = capsys.readouterr().out
        assert "DEU" in out and "edges: 5" in out
        assert "potential split share 1/4" in out

    def test_summarize_table_elides_keys_past_the_display_limit(self, tmp_path, capsys):
        sources = [f"s{i:02d}" for i in range(cli.SUMMARY_KEY_DISPLAY_LIMIT + 1)]
        path = tmp_path / "many.csv"
        edges = "".join(f"{s},t,1\n{s}x,u,1\n" for s in sources[:-1]) + f"{sources[-1]},t,1\n"
        path.write_text("from,to,weight\n" + edges, encoding="utf-8")
        assert main(["summarize", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "t             11  " + ",".join(sources[:-1]) + ",..."
        assert rows[2] == "u             10  " + ",".join(f"{s}x" for s in sources[:-1])

    def test_summarize_with_data_adds_realized_share(self, country_file, obs_file, capsys):
        assert main(["summarize", country_file, "--data", obs_file]) == 0
        assert "realized split mass share: 10/157" in capsys.readouterr().out

    def test_summarize_json(self, country_file, obs_file, capsys):
        assert main(["summarize", country_file, "--data", obs_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["totals"]["edges"] == 5
        assert payload["imputation"]["realized_split_mass_share"] == "10/157"

    def test_summarize_negative_mass_exits_one(self, country_file, tmp_path, capsys):
        data = tmp_path / "neg.csv"
        data.write_text("key,value\nBLX,-3\n", encoding="utf-8")
        assert main(["summarize", country_file, "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "negative_masses", "keys": ["BLX"]}


class TestExtract:
    def test_round_trip_through_external_harness(self, tmp_path, capsys):
        crossmap = Crossmap(
            [
                Edge("a", "x", Fraction(1, 4)),
                Edge("a", "y", Fraction(3, 4)),
                Edge("b", "y", Fraction(1)),
            ]
        )
        edges = tmp_path / "edges.csv"
        edges.write_text(write_edge_list(crossmap), encoding="utf-8")
        keys = tmp_path / "keys.txt"
        keys.write_text("a\nb\n", encoding="utf-8")
        out = tmp_path / "extracted.csv"
        code = main(
            [
                "extract",
                "--cmd", f"{sys.executable} {HARNESS} {edges}",
                "--keys", str(keys),
                "--rationalize-max-den", "100",
                "--jobs", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        extracted = build_crossmap(read_edge_list(str(out)))
        assert extracted == crossmap
        capsys.readouterr()

    def test_nonconforming_probe_exits_one(self, tmp_path, capsys):
        thirds = Crossmap([Edge("s", f"t{i}", Fraction(1, 3)) for i in range(3)])
        edges = tmp_path / "edges.csv"
        edges.write_text(write_edge_list(thirds), encoding="utf-8")
        keys = tmp_path / "keys.txt"
        keys.write_text("s\n", encoding="utf-8")
        code = main(
            [
                "extract",
                "--cmd", f"{sys.executable} {HARNESS} {edges}",
                "--keys", str(keys),
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "nonconforming_probe_totals"
        assert err["nonconforming_sources"][0]["source"] == "s"

    # 1e-99999 is a valid Fraction whose exact text is too long to print.
    @pytest.mark.parametrize("tolerance", ["abc", "-1/2", "1e-99999"])
    def test_bad_tolerance_is_usage_error(self, tolerance, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        code = main(
            [
                "extract",
                "--cmd", f"{sys.executable} -c 'import sys; sys.exit(4)'",
                "--keys", str(keys),
                f"--tolerance={tolerance}",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"
        assert not (tmp_path / "x.csv").exists()

    def test_zero_denominator_tolerance_is_usage_error(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        assert main(["extract", "--cmd", "cat", "--keys", str(keys), "--tolerance", "1/0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "usage",
            "message": "--tolerance must be a non-negative number, got '1/0'",
        }

    def test_nonconforming_total_too_long_to_print_is_one_document(self, tmp_path, capsys):
        # The probed key a gets 1/p on t<p> for the first 2,000 primes.
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        probe = (
            "import sys; sys.stdin.read(); "
            "p = [n for n in range(2, 17390) if all(n % q for q in range(2, int(n ** .5) + 1))]; "
            'sys.stdout.write("key,value\\n" + "".join(f"t{q},1/{q}\\n" for q in p))'
        )
        out = tmp_path / "o.csv"
        code = main(["extract", "--cmd", f"{sys.executable} -c '{probe}'", "--keys", str(keys), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        document = json.loads(captured.err)
        # The message names the source and gives the total's size in bits.
        message = "probe total of source 'a' is too long to render: a 24857-bit numerator over a 24856-bit denominator"
        assert document == {"error": "too_long", "message": message}
        assert captured.err == to_json(document)
        assert _leftovers(tmp_path) == []

    def test_non_utf8_probe_output_exits_three(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        probe = "import sys; sys.stdout.buffer.write(bytes([255, 254]))"
        code = main(
            [
                "extract",
                "--cmd", f"{sys.executable} -c '{probe}'",
                "--keys", str(keys),
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "probe"
        assert not (tmp_path / "x.csv").exists()

    def test_probe_field_over_csv_limit_exits_three(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        probe = f"print(\"key,value\"); print(\"k\" * {csv.field_size_limit() + 1} + \",1\")"
        code = main(
            [
                "extract",
                "--cmd", f"{sys.executable} -c '{probe}'",
                "--keys", str(keys),
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "probe"
        assert not (tmp_path / "x.csv").exists()

    def test_empty_keys_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        keys = tmp_path / "keys.txt"
        keys.write_text("\n  \n", encoding="utf-8")
        monkeypatch.setattr(extraction, "probe_blackbox", lambda *a, **k: pytest.fail("probed with no keys"))
        code = main(["extract", "--cmd", "true", "--keys", str(keys), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "usage"
        assert not (tmp_path / "x.csv").exists()

    def test_keys_from_standard_input(self, tmp_path):
        out, record = tmp_path / "x.csv", tmp_path / "provenance.jsonl"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [
                sys.executable, "-m", "crossmaps.cli", "extract",
                "--cmd", "cat",
                "--keys", "-",
                "--out", str(out),
                "--provenance", str(record),
            ],
            input=b"b\n a \n\n",
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert out.read_text(encoding="utf-8") == "from,to,weight\na,a,1\nb,b,1\n"
        assert json.loads(record.read_text(encoding="utf-8"))["inputs"] == {}

    def test_keys_file_splits_only_at_line_ends(self, tmp_path, capsys):
        # str.splitlines() would also break at each of these; the CSV readers keep them inside a key.
        keys = [f"a{ch}b" for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]
        path = tmp_path / "keys.txt"
        path.write_bytes("".join(k + "\n" for k in keys).encode("utf-8"))
        out = tmp_path / "x.csv"
        assert main(["extract", "--cmd", "cat", "--keys", str(path), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == write_edge_list(identity_crossmap(keys))
        assert capsys.readouterr().err == ""

    def test_exponent_tolerance_under_unlimited_digits(self, tmp_path, capsys):
        # A digit limit of 0 means no limit: the default 1e-9 is then no longer refused.
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code = main(["extract", "--cmd", "cat", "--keys", str(keys), "--tolerance", "1e-9"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert capsys.readouterr().out == "from,to,weight\na,a,1\n"

    def test_nul_in_keys_file_is_parse_error(self, tmp_path, capsys, monkeypatch):
        keys = tmp_path / "keys.txt"
        keys.write_bytes(b"a\nb\x00c\n")
        monkeypatch.setattr(extraction, "probe_blackbox", lambda *a, **k: pytest.fail("probed"))
        assert main(["extract", "--cmd", "cat", "--keys", str(keys), "--out", str(tmp_path / "x.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["problems"] == [{"line": 2, "message": "line contains NUL"}]
        assert not (tmp_path / "x.csv").exists()

    def test_probe_failure_exits_three(self, tmp_path, capsys):
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        code = main(
            [
                "extract",
                "--cmd", f"{sys.executable} -c 'import sys; sys.exit(4)'",
                "--keys", str(keys),
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "probe"


class TestImportExport:
    def test_import_crosswalk_rejects_split(self, tmp_path, capsys):
        xwalk = tmp_path / "xwalk.csv"
        xwalk.write_text("from,to\nBLX,BEL\nBLX,LUX\n", encoding="utf-8")
        assert main(["import-crosswalk", str(xwalk), "--out", str(tmp_path / "o.csv")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["findings"][0]["code"] == "split_source"

    def test_import_crosswalk_equal_split_warns(self, tmp_path, capsys):
        xwalk = tmp_path / "xwalk.csv"
        out = tmp_path / "o.csv"
        xwalk.write_text("from,to\nBLX,BEL\nBLX,LUX\nAF,AFG\n", encoding="utf-8")
        assert main(["import-crosswalk", str(xwalk), "--equal-split", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "equal_split_imputed" in captured.err
        assert out.read_text() == "from,to,weight\nAF,AFG,1\nBLX,BEL,1/2\nBLX,LUX,1/2\n"

    def test_export_dot_deterministic(self, country_file, tmp_path, capsys):
        out = tmp_path / "g.dot"
        assert main(["export-dot", country_file, "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["export-dot", country_file, "--out", str(out)]) == 0
        assert out.read_bytes() == first
        assert b"digraph crossmap" in first


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, country_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", country_file, "--bogus"])
        assert excinfo.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_missing_file_is_io_error(self, capsys):
        assert main(["validate", "/no/such/file.csv"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_non_utf8_input_is_usage_error(self, country_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xff\xfe")
        assert main(["apply", "--map", country_file, "--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "encoding"

    @pytest.mark.parametrize("argv", [["validate", "-"], ["extract", "--cmd", "cat", "--keys", "-"]], ids=["validate", "extract"])
    def test_closed_stdin_is_io_error(self, argv, capsys, monkeypatch):
        # The interpreter's sys.stdin when it starts with fd 0 closed (`<&-`).
        monkeypatch.setattr("sys.stdin", None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "io", "message": f"[Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '-'"}

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "--map", "m.csv"],
            ["extract", "--cmd", "true", "--keys", "k.txt", "--out", "o.csv", "--jobs", "two"],
            ["no-such-command"],
        ],
        ids=["missing_required", "non_integer_jobs", "unknown_subcommand"],
    )
    def test_argument_errors_write_one_json_document(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        document = json.loads(captured.err)
        assert document["error"] == "usage"
        assert document["message"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rationalize-max-den", "0"),
            ("--jobs", "0"),
            ("--jobs", "-3"),
            ("--jobs", str(MAX_JOBS + 1)),
        ],
    )
    def test_out_of_range_integer_is_rejected_before_probing(self, flag, value, tmp_path, capsys, monkeypatch):
        def must_not_probe(*args, **kwargs):
            raise AssertionError("probe_blackbox was called")

        monkeypatch.setattr(extraction, "probe_blackbox", must_not_probe)
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        argv = [
            "extract",
            "--cmd", f"{sys.executable} -c 'import sys; sys.exit(4)'",
            "--keys", str(keys),
            "--out", str(tmp_path / "x.csv"),
            flag, value,
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        document = json.loads(capsys.readouterr().err)
        assert document["error"] == "usage"
        assert flag in document["message"]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["", "   ", "'abc"], ids=["empty", "blank", "open_quote"])
    def test_unsplittable_command_is_usage_error(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(extraction, "probe_blackbox", lambda *a, **k: pytest.fail("probed without a command"))
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["extract", "--cmd", command, "--keys", str(keys), "--out", str(out)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        document = json.loads(captured.err)
        assert document["error"] == "usage"
        assert "--cmd" in document["message"]
        assert not out.exists()

    def test_failed_provenance_write_leaves_no_out_file(self, country_file, obs_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(
            [
                "apply", "--map", country_file, "--data", obs_file, "--out", str(out),
                "--provenance", str(tmp_path / "missing" / "p.jsonl"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "io"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["country.csv", "obs.csv"]


class TestOneReaderOneWriter:
    def test_failed_provenance_write_leaves_stdout_empty(self, country_file, obs_file, tmp_path, capsys):
        ledger = tmp_path / "missing" / "p.jsonl"
        assert main(["apply", "--map", country_file, "--data", obs_file, "--provenance", str(ledger)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "io"

    def test_digest_is_of_the_bytes_parsed(self, country_file, obs_file, tmp_path, capsys, monkeypatch):
        parsed = Path(country_file).read_bytes()

        def rewrite_then_apply(*args):
            Path(country_file).write_text(COUNTRY_CSV.replace("AUS,AUS", "AUS,AUT"), encoding="utf-8")
            return apply_transform(*args)

        monkeypatch.setattr(transform, "apply_transform", rewrite_then_apply)
        ledger = tmp_path / "p.jsonl"
        assert main(["apply", "--map", country_file, "--data", obs_file, "--provenance", str(ledger)]) == 0
        assert capsys.readouterr().out.startswith("key,value\nAUS,140\n")
        digest = json.loads(ledger.read_text(encoding="utf-8"))["inputs"][country_file]
        assert digest == "sha256:" + hashlib.sha256(parsed).hexdigest()

    @pytest.mark.parametrize(
        ("argv", "inputs"),
        [
            (["apply", "--map", "{m}", "--data", "{d}"], {"m": COUNTRY_CSV, "d": OBS_CSV}),
            (["compose", "{m}", "{n}"], {"m": COUNTRY_CSV, "n": "from,to,weight\nAUS,A,1\nBEL,B,1\nLUX,B,1\nDEU,D,1\n"}),
            (["reverse", "{m}"], {"m": "from,to,weight\na,x,1\nb,y,1\n"}),
            (["extract", "--cmd", "cat", "--keys", "{k}"], {"k": "a\nb\n"}),
            (["import-crosswalk", "{m}", "--equal-split"], {"m": "from,to\na,x\na,y\n"}),
            (["export-dot", "{m}"], {"m": COUNTRY_CSV}),
        ],
        ids=["apply", "compose", "reverse", "extract", "import_crosswalk", "export_dot"],
    )
    def test_each_input_is_read_once(self, argv, inputs, tmp_path, capsys, monkeypatch):
        names = {k: str(tmp_path / f"{k}.csv") for k in inputs}
        for key, text in inputs.items():
            Path(names[key]).write_text(text, encoding="utf-8")
        reads: list[str] = []
        real_bytes, real_text = Path.read_bytes, Path.read_text

        def read_bytes(self):
            reads.append(str(self))
            return real_bytes(self)

        def read_text(self, *args, **kwargs):
            reads.append(str(self))
            return real_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        monkeypatch.setattr(Path, "read_text", read_text)
        ledger = tmp_path / "p.jsonl"
        assert main([a.format(**names) for a in argv] + ["--provenance", str(ledger)]) == 0
        monkeypatch.undo()
        assert sorted(reads) == sorted(names.values())
        record = json.loads(ledger.read_text(encoding="utf-8"))
        assert record["inputs"] == {
            name: "sha256:" + hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in names.values()
        }
        assert capsys.readouterr().out  # no --out: the result goes to stdout

    def test_missing_out_directory_names_the_out_path(self, country_file, tmp_path, capsys):
        out = tmp_path / "sub" / "o.csv"
        assert main(["export-dot", country_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        missing = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))
        assert json.loads(captured.err) == {"error": "io", "message": str(missing)}
        assert not out.parent.exists()

    @pytest.mark.parametrize("out", ["", "."], ids=["empty", "dot"])
    def test_out_without_a_file_name_is_one_io_document(self, out, country_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["export-dot", country_file, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        document = json.loads(captured.err)
        assert document["error"] == "io"
        assert document["message"].endswith(repr(out))
        assert sorted(tmp_path.iterdir()) == before


def _write_inputs(root: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        (root / name).write_bytes(data)


def _leftovers(root: Path) -> list[str]:
    """Output files under ``root``: the ``--out`` target and any partial ``.tmp``."""
    return sorted(p.name for p in root.rglob("*") if p.name == "o.csv" or p.name.endswith(".tmp"))


def _error_samples() -> dict[type, CrossmapError]:
    """One instance of every exported error class."""
    report = validate_draft(EdgeListDraft([Edge("a", "b", Fraction(1, 2))]))
    return {
        CompositionError: CompositionError(("m",)),
        CoverageError: CoverageError(("k",), Fraction(3), step=1),
        InvalidCrossmapError: InvalidCrossmapError(report, subject="m.csv"),
        MissingValueError: MissingValueError(("k",)),
        NegativeMassError: NegativeMassError(("k",)),
        ParseError: ParseError("m.csv", [(2, "blank key")]),
        ProbeError: ProbeError("'cat' failed: exit status 4"),
        ValueTooLongError: ValueTooLongError("exact value too long"),
    }


def _round_trip_samples() -> dict[str, CrossmapError]:
    """Every exported error class, a CoverageError without a step, and the CLI's own refusal."""
    samples = {cls.__name__: exc for cls, exc in _error_samples().items()}
    samples["CoverageError_without_step"] = CoverageError(("k",), Fraction(3, 7))
    samples["_Refusal"] = cli._Refusal({"error": "usage", "message": "no keys"}, 2)
    return samples


_VALIDATION_REPORT = {
    "ok": False,
    "findings": [
        {
            "severity": "error",
            "code": "weight_sum_not_one",
            "subject": "a",
            "message": "outgoing weights of source 'a' sum to 1/2, expected exactly 1",
            "value": "1/2",
        }
    ],
}

# Each error and its whole document, key order included.
PINNED_DOCUMENTS = {
    "composition": (
        lambda: CompositionError(("m", "n")),
        {"error": "composition", "unmatched_keys": ["m", "n"]},
    ),
    "coverage_with_step": (
        lambda: CoverageError(("k",), Fraction(3), step=1),
        {"error": "coverage", "uncovered_keys": ["k"], "mass_at_risk": "3", "step": 1},
    ),
    "coverage_without_step": (
        lambda: CoverageError(("k", "l"), Fraction(3, 7)),
        {"error": "coverage", "uncovered_keys": ["k", "l"], "mass_at_risk": "3/7"},
    ),
    "coverage_caller_int": (
        lambda: CoverageError(("k",), 3),
        {"error": "coverage", "uncovered_keys": ["k"], "mass_at_risk": "3"},
    ),
    "validation_with_subject": (
        lambda: InvalidCrossmapError(validate_draft(EdgeListDraft([Edge("a", "b", Fraction(1, 2))])), subject="m.csv"),
        {"error": "validation", **_VALIDATION_REPORT, "subject": "m.csv"},
    ),
    "validation_without_subject": (
        lambda: InvalidCrossmapError(validate_draft(EdgeListDraft([Edge("a", "b", Fraction(1, 2))]))),
        {"error": "validation", **_VALIDATION_REPORT},
    ),
    "missing_values": (lambda: MissingValueError(("k", "l")), {"error": "missing_values", "keys": ["k", "l"]}),
    "negative_masses": (lambda: NegativeMassError(("k",)), {"error": "negative_masses", "keys": ["k"]}),
    "parse": (
        lambda: ParseError("m.csv", [(2, "blank key"), (3, "bad weight")]),
        {
            "error": "parse",
            "file": "m.csv",
            "problems": [{"line": 2, "message": "blank key"}, {"line": 3, "message": "bad weight"}],
        },
    ),
    "probe": (
        lambda: ProbeError("'cat' failed: exit status 4"),
        {"error": "probe", "message": "'cat' failed: exit status 4"},
    ),
    "too_long": (
        lambda: ValueTooLongError("exact value too long"),
        {"error": "too_long", "message": "exact value too long"},
    ),
}


class TestFailureDocuments:
    def test_every_exported_error_renders_a_document(self):
        samples = _error_samples()
        exported = {
            obj
            for obj in (getattr(crossmaps, name) for name in crossmaps.__all__)
            if isinstance(obj, type) and issubclass(obj, CrossmapError) and obj is not CrossmapError
        }
        assert exported == set(samples)
        for exc in samples.values():
            document = json.loads(json.dumps(exc.to_json_dict()))
            assert isinstance(document["error"], str) and document["error"]

    @pytest.mark.parametrize("case", sorted(PINNED_DOCUMENTS))
    def test_error_document_is_pinned(self, case):
        make, expected = PINNED_DOCUMENTS[case]
        assert json.dumps(make().to_json_dict()) == json.dumps(expected)

    def test_pinned_documents_cover_every_exported_error(self):
        assert {type(make()) for make, _ in PINNED_DOCUMENTS.values()} == set(_error_samples())

    @pytest.mark.parametrize("name", sorted(_round_trip_samples()))
    def test_error_survives_pickle_and_copy(self, name):
        exc = _round_trip_samples()[name]
        for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
            assert type(clone) is type(exc)
            assert str(clone) == str(exc)
            assert json.dumps(clone.to_json_dict()) == json.dumps(exc.to_json_dict())
            assert clone.exit_code == exc.exit_code

    def test_invalid_crossmap_from_a_library_call_exits_one(self, country_file, tmp_path, capsys, monkeypatch):
        report = validate_draft(EdgeListDraft([Edge("a", "b", Fraction(1, 2))]))

        def refuse(first, second):
            raise InvalidCrossmapError(report)

        monkeypatch.setattr(algebra, "compose", refuse)
        out = tmp_path / "x.csv"
        assert main(["compose", country_file, country_file, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == json.dumps({"error": "validation", **report.to_json_dict()}, indent=2) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("error", list(_error_samples()), ids=lambda cls: cls.__name__)
    def test_every_exported_error_exits_with_its_code(self, error, country_file, tmp_path, capsys, monkeypatch):
        exc = _error_samples()[error]

        def refuse(first, second):
            raise exc

        monkeypatch.setattr(algebra, "compose", refuse)
        out = tmp_path / "x.csv"
        assert main(["compose", country_file, country_file, "--out", str(out)]) == (3 if error is ProbeError else 1)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == to_json(exc)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (["validate", "{m}"], {"m.csv": b"from,to,weight\na,b,1/2\n"}),
            (["classify", "{m}"], {"m.csv": b"from,to,weight\na,b,1/2\n"}),
            (["reverse", "{m}", "--out", "{o}"], {"m.csv": b"from,to,weight\ns1,t,1\ns2,t,1\n"}),
            (["import-crosswalk", "{m}", "--out", "{o}"], {"m.csv": b"from,to\nBLX,BEL\nBLX,LUX\n"}),
        ],
        ids=["validate", "invalid_map", "reverse", "import_crosswalk"],
    )
    def test_report_documents_name_their_error_first(self, argv, inputs, tmp_path, capsys):
        _write_inputs(tmp_path, inputs)
        assert main([a.format(m=tmp_path / "m.csv", o=tmp_path / "o.csv") for a in argv]) == 1
        document = json.loads(capsys.readouterr().err)
        assert list(document)[:3] == ["error", "ok", "findings"]
        assert document["error"] == "validation" and document["ok"] is False
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (["apply", "--map", "{m}", "--data", "{d}", "--out", "{o}"], TOO_LONG_APPLY),
            (["compose", "{m}", "{n}", "--out", "{o}"], TOO_LONG_COMPOSE),
            (["apply", "--map", "{m}", "--data", "{d}", "--out", "{o}"], TOO_LONG_UNCOVERED),
        ],
        ids=["apply", "compose", "uncovered_mass"],
    )
    def test_result_too_long_to_print_is_one_document(self, argv, inputs, tmp_path, capsys):
        _write_inputs(tmp_path, inputs)
        names = {k: tmp_path / f"{k}.csv" for k in "mndo"}
        assert main([a.format(**names) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        document = json.loads(captured.err)
        assert document["error"] == "too_long"
        assert str(sys.get_int_max_str_digits()) in document["message"]
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize(
        "tolerance", ["1e-999999999", "0e5000", "1E+" + "9" * 5000], ids=["huge_exponent", "zero", "exponent_too_long"]
    )
    def test_huge_tolerance_exponent_is_refused_unbuilt(self, tolerance, tmp_path, capsys, monkeypatch):
        def spy(*args):
            if tolerance in args:
                pytest.fail(f"built Fraction({tolerance[:20]!r}...)")
            return Fraction(*args)

        monkeypatch.setattr(extraction, "Fraction", spy)
        monkeypatch.setattr(extraction, "probe_blackbox", lambda *a, **k: pytest.fail("probed"))
        keys = tmp_path / "keys.txt"
        keys.write_text("a\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        code = main(["extract", "--cmd", "cat", "--keys", str(keys), f"--tolerance={tolerance}", "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"
        assert not out.exists()


# Generated CLI runs: argv drawn per subcommand over a few fixed file names,
# file and stdin bytes from CSV-like cells or raw bytes (non-UTF-8 included).
# extract only ever runs the fixed `cat` with --jobs 1 or 2, on at most four keys.
INPUT_NAMES = ("m.csv", "n.csv", "d.csv", "k.txt")
PATH_TOKENS = frozenset(INPUT_NAMES) | {"missing.csv", "o.csv", "p.jsonl", "sub/o.csv", "sub/p.jsonl"}
CELL = st.sampled_from(
    ["a", "b", " a ", "t", "", '"a,b"', '"', "1", "1/2", "1/3", "2/3", "0", "-1", "+1", "NA", "1.5", ".5", "1/0", "x", "é"]
)
HEADER = st.sampled_from(["from,to,weight", "key,value", "from,to", "key", ""])


def _csv(header: str):
    # Rows mostly as wide as the header, so some files parse and reach later checks.
    width = header.count(",") + 1
    row = st.one_of(st.lists(CELL, min_size=width, max_size=width), st.lists(CELL, max_size=4)).map(",".join)
    return st.lists(row, max_size=3).map(lambda rows: "\n".join([header, *rows]).encode() + b"\n")


CSV_BYTES = HEADER.flatmap(_csv)
RAW_BYTES = (
    st.lists(st.sampled_from([b"a", b"1", b",", b"/", b"-", b" ", b'"', b"NA", b"\n", b"\r", b"\xff", b"\xe9"]), max_size=10)
    .map(b"".join)
    .filter(lambda b: len(b.splitlines()) <= 4)
)
FILE_BYTES = st.one_of(CSV_BYTES, RAW_BYTES)
INPUT = st.sampled_from(["m.csv", "n.csv", "d.csv", "missing.csv", "-"])
OUT = st.sampled_from([[], ["--out", "-"], ["--out", "o.csv"], ["--out", "sub/o.csv"], ["--out", "."]])
PROVENANCE = st.sampled_from([[], ["--provenance", "p.jsonl"], ["--provenance", "sub/p.jsonl"]])
JUNK = st.sampled_from([[], ["--bogus"], ["extra"]])


def _flag(*words: str):
    return st.sampled_from([[], list(words)])


def _argv(*parts):
    """Concatenate the token lists drawn from ``parts`` (fixed lists or strategies)."""
    drawn = [p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts]
    return st.tuples(*drawn).map(lambda lists: [t for tokens in lists for t in tokens])


def _one(strategy):
    return strategy.map(lambda token: [token])


ARGV = st.one_of(
    _argv(["validate"], _one(INPUT), _flag("--json"), JUNK),
    _argv(
        ["apply", "--map"], _one(INPUT), ["--data"], _one(INPUT), _flag("--drop-uncovered"), _flag("--drop-zeros"),
        _flag("--json"), OUT, PROVENANCE,
    ),
    _argv(["compose"], st.lists(INPUT, max_size=3), OUT, PROVENANCE, JUNK),
    _argv(["reverse"], _one(INPUT), OUT, PROVENANCE),
    _argv(["classify"], _one(INPUT), _flag("--json")),
    _argv(["summarize"], _one(INPUT), st.one_of(st.just([]), _one(INPUT).map(lambda t: ["--data", *t])), _flag("--json")),
    _argv(
        ["extract", "--cmd", "cat", "--keys"], _one(st.sampled_from(["k.txt", "-", "missing.csv"])),
        st.sampled_from([[]] + [["--tolerance", t] for t in ("0", "1/2", "1e-9", "abc", "-1", "1e-99999", "0e5000")]),
        st.sampled_from([[]] + [["--rationalize-max-den", n] for n in ("0", "1", "100", "x")]),
        st.sampled_from([[], ["--jobs", "1"], ["--jobs", "2"]]), OUT, PROVENANCE,
    ),
    _argv(["import-crosswalk"], _one(INPUT), _flag("--equal-split"), OUT, PROVENANCE),
    _argv(["export-dot"], _one(INPUT), OUT, PROVENANCE),
    st.lists(st.sampled_from(["validate", "apply", "--map", "m.csv", "--out", "-", "--json", "--jobs", "x"]), max_size=4),
)


class TestContractProperty:
    @settings(max_examples=150, deadline=None)
    @given(argv=ARGV, files=st.fixed_dictionaries({name: FILE_BYTES for name in INPUT_NAMES}), stdin=FILE_BYTES)
    @example(argv=["apply", "--map", "m.csv", "--data", "d.csv", "--out", "o.csv"], files=TOO_LONG_APPLY, stdin=b"")
    @example(argv=["compose", "m.csv", "n.csv", "--out", "o.csv"], files=TOO_LONG_COMPOSE, stdin=b"")
    @example(
        argv=["import-crosswalk", "m.csv", "--equal-split", "--out", "o.csv", "--provenance", "sub/p.jsonl"],
        files={"m.csv": b"from,to\na,a\na,b\n"},
        stdin=b"",
    )
    @example(
        argv=["apply", "--map", "m.csv", "--data", "d.csv", "--provenance", "sub/p.jsonl"],
        files={"m.csv": COUNTRY_CSV.encode(), "d.csv": OBS_CSV.encode()},
        stdin=b"",
    )
    def test_exit_code_and_one_error_document(self, argv, files, stdin):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_inputs(root, files)
            out, err = io.StringIO(), io.StringIO()
            fake_stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
            with redirect_stdout(out), redirect_stderr(err), mock.patch("sys.stdin", fake_stdin):
                try:
                    code = main([str(root / a) if a in PATH_TOKENS else a for a in argv])
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2, 3)
            if code:
                text = err.getvalue()
                assert "Traceback" not in text
                assert "error" in json.loads(text)
                assert _leftovers(root) == []
                if argv[:1] != ["validate"]:  # validate's report is its output
                    assert out.getvalue() == ""


# Each command reading one input, given as "{}": the map, when there is one, is
# fixed (an edge list file over the keys FILE_BYTES can hold).
ONE_INPUT_COMMANDS = [
    ["validate", "{}"],
    ["apply", "--map", "m.csv", "--data", "{}"],
    ["extract", "--cmd", "cat", "--keys", "{}"],
]


class TestStdinReadsLikeAFile:
    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(ONE_INPUT_COMMANDS), data=FILE_BYTES)
    @example(command=ONE_INPUT_COMMANDS[0], data=b"from,to,weight\n\xe9,x,1\n")
    @example(command=ONE_INPUT_COMMANDS[0], data=b'from,to,weight\r\n"a\r\nb",x,1\ra,y,1\r')
    def test_dash_and_a_file_give_the_same_run(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_inputs(root, {"m.csv": b"from,to,weight\na,x,1\nb,x,1/2\nb,y,1/2\n", "in.csv": data})
            path, runs = str(root / "in.csv"), []
            for word, name in ((path, path), ("-", "<stdin>")):
                # Standard input as the interpreter opens it under the POSIX locale.
                buffer = io.BytesIO(data)
                buffer.name = "<stdin>"
                stdin = io.TextIOWrapper(buffer, encoding="utf-8", errors="surrogateescape")
                out, err = io.StringIO(), io.StringIO()
                argv = [str(root / a) if a == "m.csv" else a.format(word) for a in command]
                with redirect_stdout(out), redirect_stderr(err), mock.patch("sys.stdin", stdin):
                    code = main(argv)
                # Each run's name for its input, the file's path or "<stdin>", read as "-".
                runs.append((code, out.getvalue().replace(name, "-"), err.getvalue().replace(name, "-")))
        assert runs[1] == runs[0]
