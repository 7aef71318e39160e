"""Command-line behaviour: exit codes, stderr JSON, determinism, provenance."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from crossmaps import cli
from crossmaps.cli import MAX_JOBS, main
from crossmaps.core import Crossmap, Edge, build_crossmap
from crossmaps.formats import read_edge_list, write_edge_list

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
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO(COUNTRY_CSV))
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

    def test_classify_json(self, country_file, capsys):
        assert main(["classify", country_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["relation_type"] for c in payload] == ["one_to_one", "one_to_many", "many_to_one"]

    def test_summarize_table(self, country_file, capsys):
        assert main(["summarize", country_file]) == 0
        out = capsys.readouterr().out
        assert "DEU" in out and "edges: 5" in out
        assert "potential split share 1/4" in out

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
        monkeypatch.setattr(cli, "probe_blackbox", lambda *a, **k: pytest.fail("probed with no keys"))
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

        monkeypatch.setattr(cli, "probe_blackbox", must_not_probe)
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
        monkeypatch.setattr(cli, "probe_blackbox", lambda *a, **k: pytest.fail("probed without a command"))
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
