"""Acceptance suite: one test per acceptance criterion, zero tolerance throughout.

Every equality here is exact rational equality; there are no numeric
tolerances anywhere.  Each criterion prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output).
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from crossmaps.algebra import compose, matvec_dense, to_matrix
from crossmaps.cli import main
from crossmaps.core import (
    Crossmap,
    Edge,
    MassArray,
    build_crossmap,
    identity_crossmap,
)
from crossmaps.datasets import occupation_recode
from crossmaps.extraction import (
    ExternalCommandTransform,
    InProcessTransform,
    probe_blackbox,
)
from crossmaps.formats import (
    export_dot,
    read_array,
    read_crosswalk,
    read_edge_list,
    write_array,
    write_crosswalk,
    write_edge_list,
)
from crossmaps.graph import components, summarize
from crossmaps.transform import apply_transform

from helpers import country_crossmap, random_chain, random_crossmap, random_mass_array
from occupation_fixture import EXPECTED_INCOMING_COUNTS, occupation_crossmap_from_rules

ONE = Fraction(1)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
HARNESS = Path(__file__).parent / "trunc_harness.py"


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def test_criterion_1_country_fixture():
    with criterion(1, "country fixture reproduces exactly, totals 157 == 157, < 1 s"):
        started = time.perf_counter()
        crossmap = country_crossmap()
        array = MassArray({"BLX": 10, "E.GER": 3, "W.GER": 4, "AUS": 140})
        output, receipt = apply_transform(crossmap, array)
        assert dict(output.items()) == {
            "BEL": Fraction(5),
            "LUX": Fraction(5),
            "DEU": Fraction(7),
            "AUS": Fraction(140),
        }
        assert array.total == Fraction(157)
        assert output.total == Fraction(157)
        assert receipt.input_total == receipt.output_total == Fraction(157)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_row_sum_validation(tmp_path, capsys):
    with criterion(2, "perturbed BLX weight makes validate exit 1 naming BLX with sum 9/10"):
        perturbed = tmp_path / "perturbed.csv"
        perturbed.write_text(
            "from,to,weight\n"
            "AUS,AUS,1\n"
            "BLX,BEL,1/2\n"
            "BLX,LUX,2/5\n"
            "E.GER,DEU,1\n"
            "W.GER,DEU,1\n",
            encoding="utf-8",
        )
        assert main(["validate", str(perturbed)]) == 1
        err = json.loads(capsys.readouterr().err)
        (finding,) = [f for f in err["findings"] if f["severity"] == "error"]
        assert finding["subject"] == "BLX"
        assert finding["value"] == "9/10"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "500 random crossmaps: edge-list apply == dense matvec exactly, < 30 s"):
        started = time.perf_counter()
        rng = random.Random(20260809)
        for _ in range(500):
            crossmap = random_crossmap(rng, max_sources=12, max_targets=12)
            array = random_mass_array(rng, crossmap.sources, subset=True)
            output, _ = apply_transform(crossmap, array)
            matrix = to_matrix(crossmap)
            padded = tuple(array.get(k) or Fraction(0) for k in matrix.row_keys)
            assert tuple(output[t] for t in matrix.col_keys) == matvec_dense(matrix, padded)
        assert time.perf_counter() - started < 30.0


def test_criterion_4_composition_law():
    with criterion(4, "200 chains: apply(compose(A,B), x) == apply(B, apply(A, x)); associativity exact"):
        rng = random.Random(20260810)
        for _ in range(200):
            first, second = random_chain(rng, length=2, max_keys=8)
            array = random_mass_array(rng, first.sources, subset=True)
            collapsed, _ = apply_transform(compose(first, second), array)
            intermediate, _ = apply_transform(first, array)
            stepped, _ = apply_transform(second, intermediate)
            assert collapsed == stepped
        for _ in range(60):
            a, b, c = random_chain(rng, length=3, max_keys=6)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_criterion_5_component_fixture():
    with criterion(5, "split fixture: 3 components {many_to_one, one_to_one, many_to_many}"):
        crossmap = Crossmap(
            [
                Edge("111311", "1111", ONE),
                Edge("111312", "1111", ONE),
                Edge("111399", "1111", ONE),
                Edge("111212", "0110", ONE),
                Edge("111111", "1112", THIRD),
                Edge("111111", "1114", THIRD),
                Edge("111111", "1120", THIRD),
                Edge("111211", "1114", HALF),
                Edge("111211", "1120", HALF),
            ]
        )
        found = components(crossmap)
        assert len(found) == 3
        assert sorted(c.relation_type for c in found) == [
            "many_to_many",
            "many_to_one",
            "one_to_one",
        ]
        (aggregation,) = [c for c in found if c.relation_type == "many_to_one"]
        assert aggregation.sources == ("111311", "111312", "111399")
        assert aggregation.targets == ("1111",)
        for component in found:
            if component.relation_type in ("one_to_one", "many_to_one"):
                assert all(e.weight == ONE for e in component.edges)


def test_criterion_6_occupation_summary_fixture():
    with criterion(6, "bundled occupation crossmap: 12 incoming counts, 329 edges, 12 plain components"):
        bundled = occupation_recode()
        assert bundled == occupation_crossmap_from_rules()
        summary = summarize(bundled)
        counts = {row.target: row.incoming_count for row in summary.target_rows}
        assert counts == EXPECTED_INCOMING_COUNTS
        assert summary.edge_count == 329 == sum(counts.values())
        assert all(e.weight == ONE for e in bundled.edges)
        type_counts = summary.component_type_counts
        assert type_counts["many_to_one"] + type_counts["one_to_one"] == 12
        assert sum(type_counts.values()) == 12


def test_criterion_7_coverage_guard(tmp_path, capsys):
    with criterion(7, "uncovered key fails apply naming mass 3895; drop reports it exactly"):
        edges = tmp_path / "map.csv"
        edges.write_text("from,to,weight\nD1,E1,1\nD2,E2,1\n", encoding="utf-8")
        data = tmp_path / "obs.csv"
        data.write_text("key,value\nD1,7\nD2,11\nx7285!,3895\n", encoding="utf-8")

        assert main(["apply", "--map", str(edges), "--data", str(data)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["uncovered_keys"] == ["x7285!"]
        assert err["mass_at_risk"] == "3895"

        code = main(
            ["apply", "--map", str(edges), "--data", str(data), "--drop-uncovered", "--json"]
        )
        assert code == 0
        receipt = json.loads(capsys.readouterr().err)
        assert receipt["dropped_mass"] == "3895"
        assert Fraction(receipt["input_total"]) == Fraction(receipt["output_total"]) + 3895


def test_criterion_8_extraction_round_trip(tmp_path):
    with criterion(8, "100 in-process probes exact; 9-decimal external + max-den-100 snap exact, < 60 s"):
        started = time.perf_counter()
        rng = random.Random(20260811)
        for _ in range(100):
            crossmap = random_crossmap(rng, max_sources=8, max_targets=8)
            target = InProcessTransform(lambda a, cm=crossmap: apply_transform(cm, a)[0])
            result = probe_blackbox(target, crossmap.sources)
            assert result.crossmap == crossmap

        for index in range(8):
            crossmap = random_crossmap(rng, max_sources=6, max_targets=6, max_denominator=100)
            edges_file = tmp_path / f"edges{index}.csv"
            edges_file.write_text(write_edge_list(crossmap), encoding="utf-8")
            command = ExternalCommandTransform(
                [sys.executable, str(HARNESS), str(edges_file), "9"]
            )
            result = probe_blackbox(command, crossmap.sources, rationalize_max_denominator=100)
            assert result.crossmap == crossmap
        assert time.perf_counter() - started < 60.0


def test_criterion_9_floating_point_immunity():
    with criterion(9, "three-way equal split of mass 1 yields exactly 1/3 each, total exactly 1"):
        crossmap = Crossmap([Edge("s", f"t{i}", THIRD) for i in range(3)])
        output, receipt = apply_transform(crossmap, MassArray({"s": 1}))
        assert tuple(output.values()) == (THIRD, THIRD, THIRD)
        assert output.total == ONE
        assert receipt.output_total == receipt.input_total == ONE


def test_criterion_10_format_round_trips(tmp_path):
    with criterion(10, "edge-list, array, crosswalk read/write byte-identical; DOT deterministic"):
        crossmap = country_crossmap()
        edge_text = write_edge_list(crossmap)
        edges_file = tmp_path / "edges.csv"
        edges_file.write_text(edge_text, encoding="utf-8")
        assert write_edge_list(build_crossmap(read_edge_list(edges_file))) == edge_text

        array = MassArray({"AUS": Fraction(140), "BLX": Fraction(1, 3), "x": None})
        array_text = write_array(array)
        array_file = tmp_path / "array.csv"
        array_file.write_text(array_text, encoding="utf-8")
        assert write_array(read_array(array_file)) == array_text

        pairs = (("AF", "AFG"), ("AL", "ALB"), ("DZ", "DZA"))
        walk_text = write_crosswalk(pairs)
        walk_file = tmp_path / "xwalk.csv"
        walk_file.write_text(walk_text, encoding="utf-8")
        assert write_crosswalk(read_crosswalk(walk_file)) == walk_text

        assert export_dot(crossmap) == export_dot(country_crossmap())
        assert export_dot(Crossmap(reversed(crossmap.edges))) == export_dot(crossmap)

        ident = identity_crossmap(["a", "b"])
        assert export_dot(ident) == export_dot(identity_crossmap(["b", "a"]))
