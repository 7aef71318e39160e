"""Blackbox probing and nearest-rational snapping."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from crossmaps.core import Crossmap, Edge, MassArray
from crossmaps.extraction import (
    ExternalCommandTransform,
    InProcessTransform,
    ProbeError,
    probe_blackbox,
    rationalize,
)
from crossmaps.formats import write_edge_list
from crossmaps.transform import TransformOptions, apply_transform

from helpers import random_crossmap
from occupation_fixture import banded_totals, occupation_crossmap_from_rules

ONE = Fraction(1)
HARNESS = Path(__file__).parent / "trunc_harness.py"


def brute_force_nearest(x: Fraction, max_denominator: int) -> Fraction:
    """Independent oracle: exhaustive search over every denominator."""
    best: tuple[tuple[Fraction, int], Fraction] | None = None
    for q in range(1, max_denominator + 1):
        for p in (math.floor(x * q), math.ceil(x * q)):
            candidate = Fraction(p, q)
            key = (abs(candidate - x), candidate.denominator)
            if best is None or key < best[0]:
                best = (key, candidate)
    assert best is not None
    return best[1]


class TestRationalize:
    def test_half(self):
        assert rationalize(Fraction(1, 2), 10) == Fraction(1, 2)

    def test_repeated_threes_snap_to_third(self):
        assert rationalize("0.333333", 100) == Fraction(1, 3)

    def test_zero(self):
        assert rationalize("0.0", 7) == Fraction(0)

    def test_tie_breaks_toward_smaller_denominator(self):
        # 5/12 sits exactly between 1/3 and 1/2 under a bound of 3.
        assert rationalize(Fraction(5, 12), 3) == Fraction(1, 2)

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            rationalize(Fraction(1, 2), 0)

    @given(
        st.fractions(min_value=-5, max_value=5, max_denominator=10_000),
        st.integers(1, 40),
    )
    def test_matches_exhaustive_oracle(self, x, max_denominator):
        assert rationalize(x, max_denominator) == brute_force_nearest(x, max_denominator)


def transform_closure(crossmap: Crossmap) -> InProcessTransform:
    return InProcessTransform(lambda array: apply_transform(crossmap, array)[0])


class TestInProcessProbing:
    def test_country_round_trip(self):
        crossmap = Crossmap(
            [
                Edge("BLX", "BEL", Fraction(1, 2)),
                Edge("BLX", "LUX", Fraction(1, 2)),
                Edge("E.GER", "DEU", ONE),
                Edge("W.GER", "DEU", ONE),
                Edge("AUS", "AUS", ONE),
            ]
        )
        result = probe_blackbox(transform_closure(crossmap), crossmap.sources)
        assert result.crossmap == crossmap
        assert result.nonconforming_sources == ()
        assert not result.rationalized

    @given(st.integers(0, 10_000))
    def test_random_round_trip_exact(self, seed):
        crossmap = random_crossmap(random.Random(seed), max_sources=8, max_targets=8)
        result = probe_blackbox(transform_closure(crossmap), crossmap.sources)
        assert result.crossmap == crossmap

    def test_probe_budget_is_sources_plus_determinism_check(self):
        crossmap = random_crossmap(random.Random(42))
        calls = 0

        def counted(array: MassArray) -> MassArray:
            nonlocal calls
            calls += 1
            return apply_transform(crossmap, array)[0]

        probe_blackbox(InProcessTransform(counted), crossmap.sources)
        assert calls == len(crossmap.sources) + 1

    def test_nondeterminism_detected(self):
        outputs = iter(
            [MassArray({"t": Fraction(1)}), MassArray({"t": Fraction(1, 2), "u": Fraction(1, 2)})]
        )
        flaky = InProcessTransform(lambda array: next(outputs))
        with pytest.raises(ProbeError, match="nondeterministic"):
            probe_blackbox(flaky, ["a"])

    def test_mass_leaking_transform_reported_not_extracted(self):
        crossmap = Crossmap([Edge("a", "x", ONE), Edge("b", "y", ONE)])

        def leaky(array: MassArray) -> MassArray:
            out, _ = apply_transform(crossmap, array)
            return MassArray({k: v * Fraction(9, 10) for k, v in out.items()})

        result = probe_blackbox(InProcessTransform(leaky), crossmap.sources)
        assert result.crossmap is None
        assert result.nonconforming_sources == (("a", Fraction(9, 10)), ("b", Fraction(9, 10)))
        assert set(result.raw_weights) == {"a", "b"}

    def test_interaction_heavy_script_probes_to_plain_mapping(self):
        crossmap = occupation_crossmap_from_rules()
        result = probe_blackbox(InProcessTransform(banded_totals), crossmap.sources)
        assert result.crossmap == crossmap
        assert len(result.crossmap.edges) == 329
        assert len(result.crossmap.targets) == 12

    def test_probe_output_missing_value_is_probe_failure(self):
        broken = InProcessTransform(lambda array: MassArray({"t": None}))
        with pytest.raises(ProbeError, match="missing"):
            probe_blackbox(broken, ["a"])


class TestSnapping:
    def truncated_thirds(self) -> InProcessTransform:
        w = Fraction(333333, 1000000)
        return InProcessTransform(
            lambda array: MassArray({f"t{i}": array["s"] * w for i in range(3)})
        )

    def test_snap_recovers_exact_thirds(self):
        result = probe_blackbox(
            self.truncated_thirds(),
            ["s"],
            tolerance="1e-5",
            rationalize_max_denominator=100,
        )
        assert result.rationalized
        assert result.crossmap == Crossmap([Edge("s", f"t{i}", Fraction(1, 3)) for i in range(3)])

    def test_without_snapping_totals_stay_short_and_honest(self):
        result = probe_blackbox(self.truncated_thirds(), ["s"])
        assert result.crossmap is None
        assert result.nonconforming_sources == (("s", Fraction(999999, 1000000)),)

    def test_snap_outside_tolerance_is_not_applied(self):
        # Snapping 0.333333 to 1/3 moves it by ~3.3e-7, above a 1e-9 gate.
        result = probe_blackbox(
            self.truncated_thirds(),
            ["s"],
            tolerance="1e-9",
            rationalize_max_denominator=100,
        )
        assert result.crossmap is None


class TestExternalProbing:
    def run_external(self, crossmap: Crossmap, tmp_path: Path, decimals: int = 9, **kwargs):
        edges_file = tmp_path / "edges.csv"
        edges_file.write_text(write_edge_list(crossmap), encoding="utf-8")
        command = ExternalCommandTransform(
            [sys.executable, str(HARNESS), str(edges_file), str(decimals)]
        )
        return probe_blackbox(command, crossmap.sources, **kwargs)

    def test_truncating_round_trip_with_rationalization(self, tmp_path):
        crossmap = random_crossmap(random.Random(7), max_sources=5, max_targets=5, max_denominator=100)
        result = self.run_external(crossmap, tmp_path, rationalize_max_denominator=100)
        assert result.crossmap == crossmap

    def test_failing_command_is_probe_error(self):
        command = ExternalCommandTransform([sys.executable, "-c", "import sys; sys.exit(4)"])
        with pytest.raises(ProbeError, match="failed"):
            probe_blackbox(command, ["a"])

    def test_garbage_output_is_probe_error(self):
        command = ExternalCommandTransform([sys.executable, "-c", "print('garbage')"])
        with pytest.raises(ProbeError, match="unparsable"):
            probe_blackbox(command, ["a"])

    def test_non_utf8_output_is_probe_error(self):
        command = ExternalCommandTransform(
            [sys.executable, "-c", "import sys; sys.stdout.buffer.write(b'\\xff\\xfe')"]
        )
        with pytest.raises(ProbeError, match="unparsable"):
            probe_blackbox(command, ["a"])

    def test_non_utf8_stderr_of_failing_command_is_probe_error(self):
        command = ExternalCommandTransform(
            [sys.executable, "-c", "import sys; sys.stderr.buffer.write(b'bad \\xff'); sys.exit(4)"]
        )
        with pytest.raises(ProbeError, match="failed: bad \ufffd"):
            probe_blackbox(command, ["a"])

    def test_missing_program_is_probe_error(self):
        with pytest.raises(ProbeError, match="launch"):
            probe_blackbox(ExternalCommandTransform(["/no/such/binary"]), ["a"])

    def test_parallel_probing_matches_serial(self, tmp_path):
        crossmap = random_crossmap(random.Random(11), max_sources=6, max_targets=6, max_denominator=50)
        serial = self.run_external(crossmap, tmp_path, rationalize_max_denominator=100, jobs=1)
        parallel = self.run_external(crossmap, tmp_path, rationalize_max_denominator=100, jobs=4)
        assert serial.crossmap == parallel.crossmap == crossmap
