"""Self-tests of the benchmark: smoke runs, the exact-equality gate, and the
refusal to run without library sources.

    python3 -m pytest bench -q

Inputs are shrunk with ``--scale`` so every test finishes in seconds.  The
gate tests corrupt the benchmark's stored references, never program code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "3", "--seconds", "0.2", "--scale", "0.02"]


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _units(group: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, group):
    proc = _run_cli(ROOT, "--workload", workload, "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(group)
    table = proc.stdout
    for name, unit in _units(group).items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in table.splitlines())


def _nudge(text: str) -> str:
    """Change the number ending the first data row by 1e-9, exactly."""
    lines = text.split("\n")
    head, value = lines[1].rsplit(",", 1)
    lines[1] = f"{head},{Fraction(value) + Fraction(1, 10**9)}"
    return "\n".join(lines)


def _corrupt_recode_panel(spec):
    spec["expected"][3]["text"] = _nudge(spec["expected"][3]["text"])


def _corrupt_chain_build(spec):
    spec["expected"][1]["text"] = _nudge(spec["expected"][1]["text"])


def _corrupt_extract_inproc(spec):
    spec["expected"]["hidden_sorted"] = _nudge(spec["expected"]["hidden_sorted"])


def _corrupt_cli_mix(spec):
    spec["expected"]["compose"]["out"] = _nudge(spec["expected"]["compose"]["out"])


@pytest.mark.parametrize(
    "workload,corrupt",
    [
        ("recode_panel", _corrupt_recode_panel),
        ("chain_build", _corrupt_chain_build),
        ("extract_inproc", _corrupt_extract_inproc),
        ("cli_mix", _corrupt_cli_mix),
    ],
)
def test_gate_fires_on_a_corrupted_reference(workload, corrupt, monkeypatch, capsys):
    prepare = run.PREPARE[workload]

    def corrupted(seed, scale):
        spec = prepare(seed, scale)
        corrupt(spec)
        return spec

    monkeypatch.setitem(run.PREPARE, workload, corrupted)
    code = run.main(["--workload", workload, "--trace", "0", *TINY])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "recode_panel", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
