"""The four workloads: set-up, one round of ops, and the per-op checks.

Each workload object is built once (its constructor is the timed set-up),
then ``op(i)`` runs op ``i`` of a fixed round and ``check(i, result, deep)``
compares the result with the stored reference outside the timed interval.
``deep`` is set on the first round, where the costlier oracles run once per
distinct input; later rounds must reproduce the same outputs exactly.
``counts(i, result)`` gives the layer work counters of op ``i``.

Calls into the library go through ``Tracer.call`` so a traced run records a
span per layer boundary; an untraced run calls straight through.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

from crossmaps import (
    Crossmap,
    InProcessTransform,
    MassArray,
    TransformOptions,
    apply_sequence,
    apply_transform,
    build_crossmap,
    check_coverage,
    check_mass_preserving,
    components,
    compose,
    export_dot,
    imputation_metrics,
    matvec_dense,
    probe_blackbox,
    read_array,
    read_edge_list,
    summarize,
    to_matrix,
    write_array,
    write_edge_list,
)
from crossmaps import cli
from crossmaps.datasets import occupation_recode
from crossmaps.extraction import ExternalCommandTransform
from crossmaps.transform import CoverageError

import reference

CLI_TIMEOUT_S = 60
DROP = TransformOptions(on_uncovered="drop_and_report")
STRICT = TransformOptions()


def _build(tr, draft) -> Crossmap:
    built = tr.call("core.build_crossmap", build_crossmap, draft)
    if not isinstance(built, Crossmap):
        raise ValueError(f"benchmark input rejected: {built.to_json_dict()}")
    return built


def _read_edges(tr, source):
    return tr.call("formats.read_edge_list", read_edge_list, source)


def _edge_triples(crossmap: Crossmap) -> list:
    return [(e.source, e.target, e.weight) for e in crossmap.edges]


def _products(first: Crossmap, second: Crossmap) -> int:
    outgoing = second.outgoing
    return sum(len(outgoing[e.target]) for e in first.edges)


def _receipt_errors(receipt, expected: dict) -> list[str]:
    errors = []
    if receipt.input_total != receipt.output_total + receipt.dropped_mass:
        errors.append("receipt does not balance")
    for field in ("input_total", "output_total", "dropped_mass", "split_mass"):
        got = str(getattr(receipt, field))
        if got != expected[field]:
            errors.append(f"receipt {field} {got} != reference {expected[field]}")
    return errors


def _dense_errors(crossmap: Crossmap, array: MassArray, expected_text: str) -> list[str]:
    """apply_transform and the dense matvec oracle must agree exactly, and
    both must match the Fraction reference."""
    sparse, _ = apply_transform(crossmap, array)
    x = [array.get(s, Fraction(0)) for s in crossmap.sources]
    dense = dict(zip(crossmap.targets, matvec_dense(to_matrix(crossmap), x)))
    errors = []
    if dict(sparse.items()) != dense:
        errors.append("apply_transform differs from matvec_dense")
    if write_array(sparse) != expected_text:
        errors.append("apply_transform differs from the Fraction reference")
    return errors


class RecodePanel:
    """Recode one vintage of a rotating 8-array panel per op."""

    def __init__(self, spec: dict, tr):
        self.tr = tr
        self.arrays = spec["inputs"]["arrays"]
        self.drop = spec["inputs"]["drop_uncovered"]
        self.expected = spec["expected"]
        self.crossmap = _build(tr, _read_edges(tr, io.StringIO(spec["inputs"]["map"])))
        self.round_size = len(self.arrays)
        self._counts: dict[int, dict] = {}

    def op(self, i: int):
        tr = self.tr
        array = tr.call("formats.read_array", read_array, io.StringIO(self.arrays[i]))
        coverage = tr.call("validation.check_coverage", check_coverage, self.crossmap, array)
        options = DROP if self.drop[i] else STRICT
        output, receipt = tr.call("transform.apply_transform", apply_transform, self.crossmap, array, options)
        text = tr.call("formats.write_array", write_array, output)
        return array, coverage, receipt, text

    def check(self, i: int, result, deep: bool) -> list[str]:
        _, coverage, receipt, text = result
        expected = self.expected[i]
        errors = _receipt_errors(receipt, expected)
        if text != expected["text"]:
            errors.append(f"vintage {i}: output differs from the Fraction reference")
        if list(coverage.uncovered_keys) != expected["uncovered"]:
            errors.append(f"vintage {i}: uncovered keys differ")
        if str(coverage.mass_at_risk) != expected["dropped_mass"]:
            errors.append(f"vintage {i}: mass at risk differs")
        return errors

    def counts(self, i: int, result) -> dict:
        if i not in self._counts:
            array, coverage, _, text = result
            outgoing = self.crossmap.outgoing
            self._counts[i] = {
                "transform.calls": 1,
                "transform.edges_traversed": sum(len(outgoing[k]) for k in array if k in outgoing),
                "formats.rows_read": len(array),
                "formats.bytes_written": len(text.encode()),
                "validation.keys_checked": len(array),
                "validation.uncovered_keys": len(coverage.uncovered_keys),
            }
        return self._counts[i]


class ChainBuild:
    """Parse, validate and compose a fine -> mid -> occupation chain per op."""

    def __init__(self, spec: dict, tr):
        self.tr = tr
        self.variants = spec["inputs"]["variants"]
        self.expected = spec["expected"]
        self.round_size = len(self.variants)
        self._counts: dict[int, dict] = {}

    def op(self, i: int):
        tr = self.tr
        variant = self.variants[i]
        first = _build(tr, _read_edges(tr, io.StringIO(variant["first"])))
        second = _build(tr, _read_edges(tr, io.StringIO(variant["second"])))
        occupation = tr.call("datasets.occupation_recode", occupation_recode)
        middle = tr.call("algebra.compose", compose, first, second)
        combined = tr.call("algebra.compose", compose, middle, occupation)
        text = tr.call("formats.write_edge_list", write_edge_list, combined)
        return first, second, occupation, middle, combined, text

    def check(self, i: int, result, deep: bool) -> list[str]:
        first, second, occupation, _, combined, text = result
        expected = self.expected[i]
        errors = []
        if text != expected["text"]:
            errors.append(f"variant {i}: composed map differs from the Fraction reference")
        if deep:
            # Composition law and the dense oracle, on the actual op outputs.
            array = read_array(io.StringIO(self.variants[i]["probe_array"]))
            composed_out, composed_receipt = apply_transform(combined, array)
            chained_out, receipts = apply_sequence([first, second, occupation], array)
            # Targets no path reaches appear as zeros only in the chained
            # output, so the law is compared on nonzero entries.
            if _nonzero(composed_out) != _nonzero(chained_out):
                errors.append(f"variant {i}: apply(compose(chain)) != apply_sequence(chain)")
            if composed_receipt.output_total != receipts[-1].output_total:
                errors.append(f"variant {i}: composed and chained totals differ")
            if write_array(composed_out) != expected["law_text"]:
                errors.append(f"variant {i}: apply(compose(chain)) differs from the Fraction reference")
            middle_out, _ = apply_sequence([first, second], array)
            errors += _dense_errors(occupation, middle_out, expected["occupation_text"])
        return errors

    def counts(self, i: int, result) -> dict:
        if i not in self._counts:
            first, second, occupation, middle, combined, text = result
            self._counts[i] = {
                "core.edges_built": len(first) + len(second),
                "algebra.compose.products": _products(first, second) + _products(middle, occupation),
                "algebra.compose.edges_out": len(middle) + len(combined),
                "formats.rows_read": len(first) + len(second),
                "formats.bytes_written": len(text.encode()),
            }
        return self._counts[i]


def _nonzero(array: MassArray) -> dict:
    return {k: v for k, v in array.items() if v}


def _truncate(value: Fraction, decimals: int = 9) -> Fraction:
    scale = 10**decimals
    return Fraction(int(value * scale), scale)


class ExtractInproc:
    """One probe session per op against a truncating in-process transform."""

    TOLERANCE = Fraction(1, 10**8)

    def __init__(self, spec: dict, tr):
        self.tr = tr
        self.spec = spec
        self.hidden = _build(tr, _read_edges(tr, io.StringIO(spec["inputs"]["hidden"])))
        self.keys = spec["inputs"]["keys"]
        self.target = InProcessTransform(self._probe)
        self.round_size = 1
        self._hidden_edges = None

    def _run_hidden(self, array: MassArray) -> MassArray:
        output, _ = self.tr.call("transform.apply_transform", apply_transform, self.hidden, array)
        return MassArray({k: _truncate(v) for k, v in output.items()})

    def _probe(self, array: MassArray) -> MassArray:
        return self.tr.call("extraction.target", self._run_hidden, array)

    def op(self, i: int):
        return self.tr.call(
            "extraction.probe_blackbox",
            probe_blackbox,
            self.target,
            self.keys,
            tolerance=self.TOLERANCE,
            rationalize_max_denominator=100,
            jobs=1,
        )

    def check(self, i: int, result, deep: bool) -> list[str]:
        expected = self.spec["expected"]
        if result.crossmap is None:
            return [f"extraction did not recover a map: {result.to_json_dict()}"]
        if self._hidden_edges is None:
            self._hidden_edges = reference.parse_edges(expected["hidden_sorted"])
        errors = []
        if _edge_triples(result.crossmap) != self._hidden_edges:
            errors.append("probe_blackbox did not recover the hidden map exactly")
        if deep:
            array = read_array(io.StringIO(self.spec["inputs"]["probe_array"]))
            errors += _dense_errors(self.hidden, array, expected["probe_text"])
        return errors

    def counts(self, i: int, result) -> dict:
        probes = len(self.keys) + 1
        return {
            "transform.calls": probes,
            "transform.edges_traversed": probes * len(self.hidden),
            "extraction.probes": probes,
            "extraction.useful_probes": len(self.keys),
        }


class _TracedTarget:
    """Probe target wrapper giving each probe its own span, parented to the
    session even when the library runs probes on its worker threads."""

    def __init__(self, inner, tr, parent: int):
        self.inner, self.tr, self.parent = inner, tr, parent

    def run(self, array):
        with self.tr.span("extraction.target", parent=self.parent):
            return self.inner.run(array)


class CliMix:
    """Whole ``crossmap`` subprocess runs in a fixed round-robin.

    In traced rounds each command is also replayed in-process, once through
    ``cli.main(argv)`` and once through the library calls its handler makes,
    so the subprocess time splits into start-up, handler and layer time.
    """

    def __init__(self, spec: dict, tr):
        self.tr = tr
        self.expected = spec["expected"]
        self.commands = spec["commands"]
        self.probe_cmd = spec["probe_cmd"]
        self.env = dict(os.environ, PYTHONPATH=spec["src"])
        self.round_size = len(self.commands)
        # The round opens with each label once, which is all the checked
        # warm-up round needs.
        self.warmup_size = len({c[0] for c in self.commands})
        self.golden: dict[str, tuple] = {}

    def op(self, i: int):
        label, argv, out, _ = self.commands[i]
        if out and os.path.exists(out):
            os.remove(out)
        proc = self.tr.call(
            f"cli.{label}.subprocess",
            subprocess.run,
            [sys.executable, "-m", "crossmaps.cli", *argv],
            env=self.env,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def _read_out(self, out) -> bytes | None:
        if out and os.path.exists(out):
            with open(out, "rb") as fh:
                return fh.read()
        return None

    def check(self, i: int, result, deep: bool) -> list[str]:
        label, _, out, exit_code = self.commands[i]
        code, stdout, stderr = result
        out_bytes = self._read_out(out)
        errors = [f"{label}: {e}" for e in self._check_against_reference(label, code, stdout, stderr, out_bytes, exit_code)]
        observed = (code, stdout, stderr, out_bytes)
        if self.golden.setdefault(label, observed) != observed:
            errors.append(f"{label}: output bytes differ from the first run")
        return errors

    def _check_against_reference(self, label, code, stdout, stderr, out_bytes, exit_code) -> list[str]:
        expected = self.expected[label]
        if code != exit_code:
            return [f"exit {code}, expected {exit_code}: {stderr[-300:]!r}"]
        errors = []
        document = None
        if code != 0:
            try:
                document = json.loads(stderr)
            except ValueError:
                return ["stderr is not one JSON document"]
            if out_bytes is not None:
                errors.append("failed run left an output file")
        if "stdout" in expected and stdout.decode() != expected["stdout"]:
            errors.append("stdout differs from the reference")
        if "stdout_json" in expected and json.loads(stdout) != expected["stdout_json"]:
            errors.append("stdout JSON differs from the reference")
        if "out" in expected and (out_bytes or b"").decode() != expected["out"]:
            errors.append("output file differs from the Fraction reference")
        if "stderr_json" in expected and document != expected["stderr_json"]:
            errors.append("stderr JSON differs from the reference")
        if "findings" in expected:
            found = [{k: f[k] for k in ("code", "subject", "value")} for f in document["findings"]]
            if document["ok"] or found != expected["findings"]:
                errors.append("validation findings differ from the reference")
        if "receipt" in expected:
            receipt = dict(line.split() for line in stderr.decode().splitlines())
            if receipt != expected["receipt"]:
                errors.append(f"receipt {receipt} differs from the reference")
        if "clusters" in expected and (out_bytes or b"").count(b"subgraph cluster_") != expected["clusters"]:
            errors.append("DOT cluster count differs from the reference component count")
        return errors

    def traced_extra(self, i: int, result) -> list[str]:
        """In-process replays of command ``i``; returns mismatches with the
        subprocess run."""
        label, argv, out, _ = self.commands[i]
        if out and os.path.exists(out):
            os.remove(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with self.tr.span(f"cli.{label}.main"):
                code = cli.main(list(argv))
        observed = (code, stdout.getvalue().encode(), stderr.getvalue().encode(), self._read_out(out))
        errors = []
        if observed != self.golden[label]:
            errors.append(f"{label}: in-process cli.main output differs from the subprocess run")
        getattr(self, "_replay_" + label)()
        return errors

    # Library replays: the calls each CLI handler makes, one span per call.

    def _load(self, path: str) -> Crossmap:
        draft = _read_edges(self.tr, path)
        self.tr.count("formats.rows_read", len(draft.edges))
        crossmap = _build(self.tr, draft)
        self.tr.count("core.edges_built", len(crossmap))
        return crossmap

    def _read_array(self, path: str) -> MassArray:
        array = self.tr.call("formats.read_array", read_array, path)
        self.tr.count("formats.rows_read", len(array))
        return array

    def _wrote(self, text: str) -> None:
        self.tr.count("formats.bytes_written", len(text.encode()))

    def _validate(self, path: str) -> None:
        draft = _read_edges(self.tr, path)
        self.tr.count("formats.rows_read", len(draft.edges))
        self.tr.call("validation.check_mass_preserving", check_mass_preserving, draft)

    def _replay_validate(self) -> None:
        self._validate("main.csv")

    def _replay_validate_bad(self) -> None:
        self._validate("bad.csv")

    def _apply(self, data: str) -> None:
        crossmap = self._load("main.csv")
        array = self._read_array(data)
        self.tr.count("transform.calls", 1)
        self.tr.count("validation.keys_checked", len(array))
        self.tr.count("validation.uncovered_keys", sum(1 for k in array if k not in crossmap.outgoing))
        try:
            output, _ = self.tr.call("transform.apply_transform", apply_transform, crossmap, array)
        except CoverageError:
            return
        self.tr.count("transform.edges_traversed", len(crossmap))
        self._wrote(self.tr.call("formats.write_array", write_array, output))

    def _replay_apply(self) -> None:
        self._apply("data.csv")

    def _replay_apply_uncovered(self) -> None:
        self._apply("uncovered.csv")

    def _replay_compose(self) -> None:
        first, second = self._load("main.csv"), self._load("occupation.csv")
        combined = self.tr.call("algebra.compose", compose, first, second)
        self.tr.count("algebra.compose.products", _products(first, second))
        self.tr.count("algebra.compose.edges_out", len(combined))
        self._wrote(self.tr.call("formats.write_edge_list", write_edge_list, combined))

    def _replay_classify(self) -> None:
        found = self.tr.call("graph.components", components, self._load("main.csv"))
        self.tr.count("graph.components_found", len(found))

    def _replay_summarize(self) -> None:
        crossmap = self._load("main.csv")
        array = self._read_array("data.csv")
        self.tr.call("graph.summarize", summarize, crossmap)
        self.tr.call("graph.imputation_metrics", imputation_metrics, crossmap, array)

    def _replay_export_dot(self) -> None:
        self._wrote(self.tr.call("formats.export_dot", export_dot, self._load("main.csv")))

    def _replay_extract(self) -> None:
        with open("extract_keys.txt", encoding="utf-8") as fh:
            keys = fh.read().split()
        with self.tr.span("extraction.probe_blackbox") as session:
            target = _TracedTarget(ExternalCommandTransform(shlex.split(self.probe_cmd)), self.tr, session)
            result = probe_blackbox(target, keys, tolerance="1e-9", rationalize_max_denominator=100, jobs=2)
        self.tr.count("extraction.probes", len(keys) + 1)
        self.tr.count("extraction.useful_probes", len(keys))
        self._wrote(self.tr.call("formats.write_edge_list", write_edge_list, result.crossmap))

    def counts(self, i: int, result) -> dict:
        return {}


WORKLOADS = {
    "recode_panel": RecodePanel,
    "chain_build": ChainBuild,
    "cli_mix": CliMix,
    "extract_inproc": ExtractInproc,
}
