"""Run one benchmark workload against the crossmaps library and CLI.

    python3 bench/run.py --workload recode_panel --seed 1 --seconds 25 --trace 0

Run from the repository root (any checkout holding ``src/crossmaps``).  The
inputs are generated from ``--seed``; the library code only ever sees the
generated texts and files.  Every op's output is compared with an
independent reference outside its timed interval, and any difference makes
the run fail with exit status 1.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``.  The lines before it record the seed, the input sizes
and properties, the host, and a human-readable metric table.  See
``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import gen
import reference
from worker import calib_ms

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OCCUPATION_CSV = SRC / "crossmaps" / "data" / "occupation_recode.csv"
WORK = ROOT / ".bench_work"

WORKLOADS = ("recode_panel", "chain_build", "cli_mix", "extract_inproc")
# Each run sets up this many times in fresh interpreters, plus once in the
# measuring worker, and reports the median.
SETUP_REPEATS = 4
# Timed end-to-end metrics are rescaled to a host on which worker.calib_ms
# reads this many ms (about what the 2-vCPU x86_64 machine used to size the
# benchmark reads when it is not contended).  See README.md for why.
NOMINAL_CALIB_MS = 2.5
WORKER_TIMEOUT_S = 150

CLI_LABELS = (
    "validate",
    "validate_bad",
    "apply",
    "apply_uncovered",
    "compose",
    "classify",
    "summarize",
    "export_dot",
    "extract",
)

LAYER_SPANS = (
    "transform.apply_transform",
    "core.build_crossmap",
    "algebra.compose",
    "formats.read_edge_list",
    "formats.read_array",
    "formats.write_edge_list",
    "formats.write_array",
    "formats.export_dot",
    "validation.check_coverage",
    "validation.check_mass_preserving",
    "graph.components",
    "graph.summarize",
    "graph.imputation_metrics",
    "extraction.target",
    "datasets.occupation_recode",
)

LAYER_COUNTS = (
    "transform.calls",
    "transform.edges_traversed",
    "core.edges_built",
    "algebra.compose.products",
    "algebra.compose.edges_out",
    "formats.rows_read",
    "formats.bytes_written",
    "validation.keys_checked",
    "graph.components_found",
    "extraction.probes",
)


def _str_fields(d: dict, *names: str) -> dict:
    return {name: str(d[name]) for name in names}


def _occupation_text() -> str:
    return OCCUPATION_CSV.read_text(encoding="utf-8")


def prepare_recode_panel(seed: int, scale: float) -> dict:
    inputs = gen.recode_panel(seed, scale)
    edges = reference.parse_edges(inputs["map"])
    expected = []
    uncovered = keys = 0
    for text in inputs["arrays"]:
        array = reference.parse_array(text)
        result = reference.apply(edges, array)
        expected.append(
            {
                "text": result["text"],
                "uncovered": result["uncovered"],
                **_str_fields(result, "input_total", "output_total", "dropped_mass", "split_mass"),
            }
        )
        uncovered += len(result["uncovered"])
        keys += len(array)
    properties = reference.map_properties(edges, Fraction(uncovered, keys))
    properties["arrays"] = len(inputs["arrays"])
    properties["array_keys"] = keys // len(inputs["arrays"])
    return {"inputs": inputs, "expected": expected, "properties": properties}


def prepare_chain_build(seed: int, scale: float) -> dict:
    occupation_text = _occupation_text()
    inputs = gen.chain_build(seed, scale, occupation_text)
    occupation = reference.parse_edges(occupation_text)
    expected = []
    for variant in inputs["variants"]:
        first = reference.parse_edges(variant["first"])
        second = reference.parse_edges(variant["second"])
        middle = reference.compose(first, second)
        combined = reference.compose(reference.as_edges(middle), occupation)
        array = reference.parse_array(variant["probe_array"])
        stepped = reference.apply(second, reference.apply(first, array)["values"])["values"]
        expected.append(
            {
                "text": reference.render_edges(combined),
                "law_text": reference.apply(reference.as_edges(combined), array)["text"],
                "occupation_text": reference.apply(occupation, stepped)["text"],
            }
        )
    variant = inputs["variants"][0]
    properties = {
        "variants": len(inputs["variants"]),
        "first": reference.map_properties(reference.parse_edges(variant["first"])),
        "second": reference.map_properties(reference.parse_edges(variant["second"])),
        "composed_edges": expected[0]["text"].count("\n") - 1,
    }
    return {"inputs": inputs, "expected": expected, "properties": properties}


def prepare_extract_inproc(seed: int, scale: float) -> dict:
    inputs = gen.extract_inproc(seed, scale)
    hidden = reference.parse_edges(inputs["hidden"])
    expected = {
        "hidden_sorted": reference.render_edges({(s, t): w for s, t, w in hidden}),
        "probe_text": reference.apply(hidden, reference.parse_array(inputs["probe_array"]))["text"],
    }
    properties = reference.map_properties(hidden)
    properties["probes_per_session"] = len(inputs["keys"]) + 1
    return {"inputs": inputs, "expected": expected, "properties": properties}


def prepare_cli_mix(seed: int, scale: float) -> dict:
    inputs = gen.cli_mix(seed, scale, _occupation_text())
    files = inputs["files"]
    main = reference.parse_edges(files["main.csv"])
    data = reference.parse_array(files["data.csv"])
    uncovered = reference.apply(main, reference.parse_array(files["uncovered.csv"]))
    applied = reference.apply(main, data)
    bad_sum = sum(w for s, _, w in reference.parse_edges(files["bad.csv"]) if s == inputs["bad_source"])
    found = reference.components(main)
    extract_map = reference.parse_edges(files["extract_map.csv"])
    expected = {
        "validate": {"stdout": "ok\n"},
        "validate_bad": {
            "findings": [{"code": "weight_sum_not_one", "subject": inputs["bad_source"], "value": str(bad_sum)}]
        },
        "apply": {
            "out": applied["text"],
            "receipt": _str_fields(applied, "input_total", "output_total", "dropped_mass", "split_mass"),
        },
        "apply_uncovered": {
            "stderr_json": {
                "error": "coverage",
                "uncovered_keys": uncovered["uncovered"],
                "mass_at_risk": str(uncovered["dropped_mass"]),
            }
        },
        "compose": {
            "out": reference.render_edges(reference.compose(main, reference.parse_edges(files["occupation.csv"])))
        },
        "classify": {"stdout_json": found},
        "summarize": {"stdout_json": reference.summary(main, data)},
        "export_dot": {"clusters": len(found)},
        "extract": {"out": reference.render_edges({(s, t): w for s, t, w in extract_map})},
    }
    commands = [
        ("validate", ("validate", "main.csv"), None, 0),
        ("validate_bad", ("validate", "bad.csv"), None, 1),
        ("apply", ("apply", "--map", "main.csv", "--data", "data.csv", "--out", "apply.csv"), "apply.csv", 0),
        (
            "apply_uncovered",
            ("apply", "--map", "main.csv", "--data", "uncovered.csv", "--out", "uncovered_out.csv"),
            "uncovered_out.csv",
            1,
        ),
        ("compose", ("compose", "main.csv", "occupation.csv", "--out", "compose.csv"), "compose.csv", 0),
        ("classify", ("classify", "main.csv", "--json"), None, 0),
        ("summarize", ("summarize", "main.csv", "--data", "data.csv", "--json"), None, 0),
        ("export_dot", ("export-dot", "main.csv", "--out", "main.dot"), "main.dot", 0),
    ]
    probe_cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(BENCH / 'probe_target.py'))} extract_map.csv"
    commands.append(
        (
            "extract",
            ("extract", "--cmd", probe_cmd, "--keys", "extract_keys.txt", "--rationalize-max-den", "100",
             "--jobs", "2", "--out", "extract.csv"),
            "extract.csv",
            0,
        )
    )
    assert tuple(c[0] for c in commands) == CLI_LABELS
    # A round is every command and then every command but extract.  Extract
    # takes several times longer than the rest, and at one op in nine its
    # runs would straddle the 90th percentile, making op_p90_ms jump between
    # the two groups from run to run; at one op in seventeen it does not.
    commands += commands[:-1]
    properties = reference.map_properties(main, Fraction(len(uncovered["uncovered"]), len(data) + len(uncovered["uncovered"])))
    properties["extract_keys"] = len({s for s, _, _ in extract_map})
    return {
        "inputs": inputs,
        "expected": expected,
        "commands": commands,
        "probe_cmd": probe_cmd,
        "properties": properties,
    }


PREPARE = {
    "recode_panel": prepare_recode_panel,
    "chain_build": prepare_chain_build,
    "cli_mix": prepare_cli_mix,
    "extract_inproc": prepare_extract_inproc,
}


def calibrate_ms(repeats: int = 9) -> float:
    """Median of several host speed readings that do not depend on the
    library under test."""
    return statistics.median(calib_ms() for _ in range(repeats))


def _worker(spec_path: Path, mode: str, index: int, extra: list[str], timeout: float) -> dict:
    out = spec_path.parent / f"{mode}-{index}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, str(spec_path), str(out), *extra],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Prepare inputs and references, measure set-up and the loop, and return
    the raw measurements."""
    calib_before = calibrate_ms()
    spec = PREPARE[workload](seed, scale)
    WORK.mkdir(exist_ok=True)
    (WORK / "traces").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        spec.update(
            workload=workload,
            src=str(SRC),
            workdir=str(workdir),
            trace_path=str(WORK / "traces" / f"{workload}-seed{seed}.json"),
        )
        for name, text in spec["inputs"].get("files", {}).items():
            (workdir / name).write_text(text, encoding="utf-8")
        spec_path = workdir / "spec.marshal"
        spec_path.write_bytes(marshal.dumps({k: v for k, v in spec.items() if k != "properties"}))
        setups = [_worker(spec_path, "setup", i, [], 60) for i in range(SETUP_REPEATS)]
        run = _worker(spec_path, "run", 0, [str(seconds), "1" if trace else "0"], WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib_after = calibrate_ms()
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "properties": spec["properties"],
        "setups": setups,
        "run": run,
        "calib_ms": (calib_before, calib_after),
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _timings(raw: dict, scaled: bool) -> dict:
    """Op and set-up timings, either as measured or rescaled by the host
    speed reading taken around each op and each set-up."""

    def scale(ms: float, calib: float) -> float:
        return ms * NOMINAL_CALIB_MS / calib if scaled else ms

    run = raw["run"]
    op_ms = [scale(ms, calib) for ms, _, calib in run["ops"]]
    setups = [scale(s["setup_s"], s["setup_calib_ms"]) for s in raw["setups"] + [run]]
    return {
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (_p90(op_ms), "ms"),
        "ops_per_s": (len(op_ms) / sum(op_ms) * 1000, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(raw: dict) -> dict:
    run = raw["run"]
    rss_kb = run["children_peak_rss_kb"] if raw["workload"] == "cli_mix" else run["peak_rss_kb"]
    return {
        **_timings(raw, scaled=True),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_ratio": (1 - run["failed"] / run["attempted"], "ratio"),
    }


def per_layer(raw: dict) -> dict:
    run = raw["run"]
    layer_ms = run["layer_ms"]
    traced_ops = max(1, run["traced_ops"])
    counts = {name: amount / traced_ops for name, amount in run["counts"].items()}

    def self_ms(span: str) -> float:
        return layer_ms[span]["self"] if span in layer_ms else 0.0

    def ratio(part: str, base: str) -> float:
        return counts.get(part, 0) / counts[base] if counts.get(base) else 0.0

    metrics = {f"{span}.ms": (self_ms(span), "ms") for span in LAYER_SPANS}
    metrics["extraction.probe_blackbox.ms"] = (layer_ms.get("extraction.probe_blackbox", {}).get("total", 0.0), "ms")
    metrics["extraction.self.ms"] = (self_ms("extraction.probe_blackbox"), "ms")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0.0), "count")
    metrics["algebra.compose.useful_ratio"] = (ratio("algebra.compose.edges_out", "algebra.compose.products"), "ratio")
    metrics["validation.uncovered_share"] = (ratio("validation.uncovered_keys", "validation.keys_checked"), "ratio")
    metrics["extraction.useful_probe_ratio"] = (ratio("extraction.useful_probes", "extraction.probes"), "ratio")

    is_cli = raw["workload"] == "cli_mix"
    startup = []
    for label in CLI_LABELS:
        sub, main = self_ms(f"cli.{label}.subprocess"), self_ms(f"cli.{label}.main")
        metrics[f"cli.{label}.subprocess_ms"] = (sub, "ms")
        metrics[f"cli.{label}.main_ms"] = (main, "ms")
        startup.append(sub - main)
    metrics["cli.import_ms"] = (
        statistics.median([s["import_s"] for s in raw["setups"]]) * 1000 if is_cli else 0.0,
        "ms",
    )
    metrics["cli.startup_ms"] = (statistics.median(startup) if is_cli else 0.0, "ms")

    untraced = [ms / calib for ms, traced, calib in run["ops"] if not traced]
    traced = [ms / calib for ms, traced, calib in run["ops"] if traced]
    metrics["host.calib_ms"] = (statistics.median(raw["calib_ms"]), "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink every input size (self-tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "crossmaps" / "__init__.py").is_file() or not OCCUPATION_CSV.is_file():
        sys.stderr.write(f"no crossmaps sources under {SRC}; run from a checkout of the repository\n")
        return 2

    raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    run = raw["run"]
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    wall = {f"wall.{name}": value for name, value in _timings(raw, scaled=False).items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "host_calib_ms": {
            "before": raw["calib_ms"][0],
            "after": raw["calib_ms"][1],
            "median_around_ops": statistics.median(calib for _, _, calib in run["ops"]),
            "nominal": NOMINAL_CALIB_MS,
        },
        "wall": {name: value for name, (value, _) in wall.items()},
        "inputs": raw["properties"],
        "timed_ops": len(run["ops"]),
        "rounds": run["rounds"],
        "fail_ratio": run["failed"] / run["attempted"],
        "errors": run["errors"],
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(f"{'metric':<36} {'value':>14}  unit")
    print(f"{'fail_ratio':<36} {info['fail_ratio']:>14.6g}  ratio")
    for name, (value, unit) in {**metrics, **({} if args.trace else wall)}.items():
        print(f"{name:<36} {value:>14.6g}  {unit}")
    correct = run["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
