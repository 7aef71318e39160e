"""Blackbox probing and nearest-rational snapping."""

from __future__ import annotations

import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from crossmaps import extraction
from crossmaps.core import Crossmap, Edge, MassArray, ValueTooLongError, identity_crossmap
from crossmaps.extraction import (
    ExternalCommandTransform,
    InProcessTransform,
    ProbeError,
    probe_blackbox,
    rationalize,
)
from crossmaps.formats import to_json, write_edge_list
from crossmaps.transform import apply_transform

from helpers import country_crossmap, first_primes, random_crossmap
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


@pytest.fixture
def no_fraction_from_exponent(monkeypatch):
    """Fail the test the moment ``extraction`` builds a Fraction from text holding an exponent."""

    def spy(*args):
        if isinstance(args[0], str) and "e" in args[0].lower():
            pytest.fail(f"built Fraction({args[0][:20]!r}...)")
        return Fraction(*args)

    monkeypatch.setattr(extraction, "Fraction", spy)


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

    @pytest.mark.parametrize("text", ["1e-999999999", "1E+999999999"])
    def test_huge_text_exponent_refused_unbuilt(self, text, no_fraction_from_exponent):
        with pytest.raises(ValueError, match="exponent"):
            rationalize(text, 100)

    @pytest.mark.parametrize("value", [0.5, True, Decimal("0.5"), None], ids=["float", "bool", "decimal", "none"])
    def test_inexact_or_unknown_type_refused(self, value):
        with pytest.raises(TypeError, match="value must be Fraction, int or str"):
            rationalize(value, 100)

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
        crossmap = country_crossmap()
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

    def test_no_source_keys_refused_before_any_probe(self):
        def refuse(array: MassArray) -> MassArray:
            pytest.fail("probed")

        with pytest.raises(ValueError, match="at least one source key"):
            probe_blackbox(InProcessTransform(refuse), [])

    @pytest.mark.parametrize("jobs, error", [(0, ValueError), (-3, ValueError), (True, TypeError), ("2", TypeError)])
    def test_bad_jobs_rejected_before_any_probe(self, jobs, error):
        crossmap = identity_crossmap(["a", "b"])
        calls = 0

        def counted(array: MassArray) -> MassArray:
            nonlocal calls
            calls += 1
            return apply_transform(crossmap, array)[0]

        with pytest.raises(error, match="jobs"):
            probe_blackbox(InProcessTransform(counted), crossmap.sources, jobs=jobs)
        assert calls == 0

    @pytest.mark.parametrize(
        "max_den, error", [(0, ValueError), (-3, ValueError), (True, TypeError), (2.5, TypeError), ("100", TypeError)]
    )
    def test_bad_max_denominator_rejected_before_any_probe(self, max_den, error):
        def refuse(array: MassArray) -> MassArray:
            pytest.fail("probed")

        with pytest.raises(error, match="rationalize_max_denominator"):
            probe_blackbox(InProcessTransform(refuse), ["a"], rationalize_max_denominator=max_den)

    @pytest.mark.parametrize(
        "tolerance, error",
        [
            ("1e-99999", ValueError),
            ("1e-999999999", ValueError),
            ("0e5000", ValueError),
            ("-1/2", ValueError),
            ("1/0", ValueError),
            (Fraction(1, 10 ** sys.get_int_max_str_digits()), ValueTooLongError),
        ],
        ids=["unprintable", "huge_exponent", "zero_huge_exponent", "negative", "zero_denominator", "unprintable_fraction"],
    )
    def test_bad_tolerance_rejected_before_any_probe(self, tolerance, error, no_fraction_from_exponent):
        def refuse(array: MassArray) -> MassArray:
            pytest.fail("probed")

        with pytest.raises(error):
            probe_blackbox(InProcessTransform(refuse), ["a"], tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [1e-9, 0.0, True, False, Decimal("1e-9")])
    def test_inexact_tolerance_rejected_before_any_probe(self, tolerance):
        def refuse(array: MassArray) -> MassArray:
            pytest.fail("probed")

        with pytest.raises(TypeError, match="tolerance"):
            probe_blackbox(InProcessTransform(refuse), ["a"], tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", ["1e-9", 0, Fraction(1, 10**9)])
    def test_exact_tolerance_recorded_exactly(self, tolerance):
        crossmap = identity_crossmap(["a", "b"])
        target = InProcessTransform(lambda array: apply_transform(crossmap, array)[0])
        result = probe_blackbox(target, crossmap.sources, tolerance)
        assert result.crossmap == crossmap
        assert result.tolerance_used == Fraction(tolerance)

    def test_output_exactly_at_tolerance_counts_as_zero(self):
        tol = Fraction(1, 1000)
        target = InProcessTransform(lambda array: MassArray({"t": array["s"], "u": array["s"] * tol}))
        result = probe_blackbox(target, ["s"], tolerance=tol)
        assert result.crossmap == Crossmap([Edge("s", "t", ONE)])

    def test_tolerance_exponent_at_the_digit_limit_is_built_then_too_long(self):
        # An exponent equal to the limit is not refused unbuilt; its
        # 4301-digit denominator is then refused as too long to print.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ValueTooLongError):
                extraction._exact_tolerance("1e-4300")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_nonconforming_total_too_long_to_print_is_too_long(self):
        # Key a sends 1/p to t<p> for the first 2,000 primes: its total is
        # kept exactly, and only rendering it for the document fails.
        primes = first_primes()
        output = MassArray({f"t{p}": Fraction(1, p) for p in primes})
        result = probe_blackbox(InProcessTransform(lambda array: output), ["a"])
        product = math.prod(primes)
        assert result.crossmap is None
        assert result.nonconforming_sources == (("a", Fraction(sum(product // p for p in primes), product)),)
        with pytest.raises(ValueTooLongError):
            to_json(result)

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

    def test_snap_moving_a_weight_by_exactly_tolerance_is_applied(self):
        # 333/1000 snaps to 1/3 under a bound of 3, a move of exactly 1/3000.
        w = Fraction(333, 1000)
        target = InProcessTransform(lambda array: MassArray({f"t{i}": array["s"] * w for i in range(3)}))
        result = probe_blackbox(target, ["s"], tolerance=Fraction(1, 3000), rationalize_max_denominator=3)
        assert result.crossmap == Crossmap([Edge("s", f"t{i}", Fraction(1, 3)) for i in range(3)])

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
    def test_empty_command_is_refused_on_construction(self):
        with pytest.raises(ValueError):
            ExternalCommandTransform(())

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
