"""Recover the crossmap embedded in an opaque transformation by probing it.

Feeding a transform the array that puts mass 1 on a single source key and
0 everywhere else returns that key's column of outgoing weights; one probe
per source key recovers the whole mapping, no matter how tangled the code
implementing it is.  This observes net behaviour only — conditional logic,
interactions and dead branches inside the script all come out in the wash.

The technique presumes the transform is linear across keys and
deterministic; determinism is spot-checked by probing one key twice before
anything else runs.  Cross-key nonlinearity cannot be detected from these
probes and is the caller's judgement.
"""

from __future__ import annotations

import io
import sys
from fractions import Fraction
from typing import Sequence

from .core import (
    Crossmap,
    MassArray,
    ProbeError,
    ValueTooLongError,
    ZERO,
    _Record,
    _check_weight_type,
    _for_message,
    _rows_of,
    _total_pair,
    clean_key,
    render_rational,
)
from . import _EXPORTS, formats

__all__ = _EXPORTS["extraction"]


class InProcessTransform(_Record):
    """Probe target wrapping a direct array -> array function."""

    __slots__ = _fields = ("fn",)

    def run(self, array: MassArray) -> MassArray:
        return self.fn(array)


class ExternalCommandTransform(_Record):
    """Probe target launching a command once per probe.

    Protocol: the command reads an array CSV on standard input and writes
    one to standard output; a nonzero exit status is a probe failure.
    """

    __slots__ = _fields = ("argv",)

    def __init__(self, argv: Sequence[str]):
        words = tuple(argv)
        if not words:
            raise ValueError("command needs at least one word")
        object.__setattr__(self, "argv", words)

    def run(self, array: MassArray) -> MassArray:
        import subprocess  # here, not at module load: only this target spawns anything

        try:
            proc = subprocess.run(
                self.argv,
                input=formats.write_array(array).encode("utf-8"),
                capture_output=True,
            )
        except OSError as exc:
            raise ProbeError(f"could not launch {self.argv[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            detail = proc.stderr.decode("utf-8", errors="replace").strip() or f"exit status {proc.returncode}"
            raise ProbeError(f"{self.argv[0]!r} failed: {detail}")
        try:
            output = io.BytesIO(proc.stdout)
            output.name = self.argv[0]
            return formats.read_array(output)
        except (formats.ParseError, ValueError) as exc:
            raise ProbeError(f"unparsable output from {self.argv[0]!r}: {exc}") from exc


class ExtractionResult(_Record):
    """Everything a probe session learned.

    ``crossmap`` is present only when every probed source conformed: all
    final weights in (0, 1] and summing to exactly 1.  Otherwise
    ``nonconforming_sources`` carries each offender with its exact probe
    total, and ``raw_weights`` keeps the untouched outputs for diagnosis.
    """

    __slots__ = _fields = ("crossmap", "raw_weights", "nonconforming_sources", "tolerance_used", "rationalized")

    def to_json_dict(self) -> dict:
        """The result's document; a probe total too long to print raises :class:`ValueTooLongError` naming its source."""
        nonconforming: list[dict] = []
        document = {
            "extracted": self.crossmap is not None,
            "tolerance": render_rational(self.tolerance_used),
            "rationalized": self.rationalized,
            "nonconforming_sources": nonconforming,
        }
        for source, total in self.nonconforming_sources:
            try:
                nonconforming.append({"source": source, "total": render_rational(total)})
            except ValueTooLongError:
                raise ValueTooLongError(f"probe total of source {source!r} is {_for_message(total)}") from None
        return document


def rationalize(value: Fraction | int | str, max_denominator: int) -> Fraction:
    """Closest rational with denominator at most ``max_denominator``.

    Ties (the value sits exactly between two candidates) resolve toward
    the smaller denominator.  Text input is read as an exact base-10
    value, so ``"0.333333"`` snaps to 1/3 under a bound of 100; any
    type other than Fraction, int or str raises ``TypeError``.
    """
    return _exact(value, "value").limit_denominator(max_denominator)


def _exact(value: Fraction | int | str, what: str) -> Fraction:
    """A Fraction, an int or decimal text as an exact Fraction; ``what`` names ``value`` in errors.

    Other types (float, bool, Decimal) are refused as weights are.  Text whose
    exponent is over ``sys.get_int_max_str_digits()`` in magnitude is refused unbuilt.
    """
    if not isinstance(value, str):
        try:
            return _check_weight_type(value)
        except TypeError:
            raise TypeError(f"{what} must be Fraction, int or str, not {type(value).__name__}") from None
    _, exp_mark, exponent = value.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if exp_mark and limit and abs(int(exponent)) > limit:
        raise ValueError(f"{what} exponent is over {limit} in magnitude")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{what} {value!r} has a zero denominator") from None


def _exact_tolerance(value: Fraction | int | str) -> Fraction:
    """``value`` as an exact (see :func:`_exact`), non-negative tolerance short enough to print in the result."""
    tol = _exact(value, "tolerance")
    if tol < ZERO:
        raise ValueError("tolerance must be non-negative")
    render_rational(tol)
    return tol


def _identity_probe(sorted_keys: tuple[str, ...], hot: str) -> MassArray:
    pairs = dict.fromkeys(sorted_keys, (0, 1))
    pairs[hot] = (1, 1)
    return MassArray._from_pairs(pairs)


def probe_blackbox(
    transform: InProcessTransform | ExternalCommandTransform,
    source_keys: Sequence[str],
    tolerance: Fraction | str | int = Fraction(1, 10**9),
    rationalize_max_denominator: int | None = None,
    jobs: int = 1,
) -> ExtractionResult:
    """Probe one identity array per source key and assemble the implied crossmap.

    Output values with magnitude at most ``tolerance`` (exact: a Fraction,
    an int or decimal text) count as zero (no edge).  With
    ``rationalize_max_denominator`` set, each surviving weight snaps to the
    nearest rational under that denominator bound whenever the snap moves
    it by at most ``tolerance``; weights are otherwise kept as the exact
    base-10 values the transform produced, so no precision is invented
    silently.  Probes run concurrently across ``jobs`` workers (an
    int, at least 1) after a serial determinism check on the first key; the
    session issues at most ``len(source_keys) + 1`` probes, and none before
    every argument is checked.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise TypeError(f"jobs must be an int, not {type(jobs).__name__}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    max_den = rationalize_max_denominator
    snap = max_den is not None
    if snap and (isinstance(max_den, bool) or not isinstance(max_den, int)):
        raise TypeError(f"rationalize_max_denominator must be an int or None, not {type(max_den).__name__}")
    if snap and max_den < 1:
        raise ValueError("rationalize_max_denominator must be at least 1")
    keys = tuple(dict.fromkeys(clean_key(k) for k in source_keys))
    if not keys:
        raise ValueError("need at least one source key to probe")
    tol = _exact_tolerance(tolerance)
    # Probes run in the caller's key order; each probe array holds the keys
    # in sorted order, sorted once here.
    sorted_keys = tuple(sorted(keys))

    def probe(hot: str) -> MassArray:
        out = transform.run(_identity_probe(sorted_keys, hot))
        if out.missing_keys():
            raise ProbeError(f"probe of {hot!r} produced missing values: {', '.join(out.missing_keys())}")
        return out

    first_out = probe(keys[0])
    if probe(keys[0]) != first_out:
        raise ProbeError(f"transform is nondeterministic: probing {keys[0]!r} twice gave different outputs")

    outputs: dict[str, MassArray] = {keys[0]: first_out}
    rest = keys[1:]
    if rest:
        if jobs > 1:
            # Imported here: concurrent.futures loads logging, traceback and tokenize.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                for key, out in zip(rest, pool.map(probe, rest)):
                    outputs[key] = out
        else:
            for key in rest:
                outputs[key] = probe(key)

    # Read on the outputs' integer pairs: a Fraction is built only to snap a
    # weight, or for a nonconforming total.
    tol_n, tol_d = tol.as_integer_ratio()
    edges: list[tuple[str, str, int, int]] = []
    nonconforming: list[tuple[str, Fraction]] = []
    for key in keys:
        weights: list[tuple[str, str, int, int]] = []
        # probe refused missing values, so every output is a pair.
        for target, (n, d) in outputs[key]._pairs.items():
            # Most outputs are exact zeros; |n/d| <= tol is |n| * tol_d <= tol_n * d.
            if not n or abs(n) * tol_d <= tol_n * d:
                continue
            if snap:
                value = Fraction(n, d)
                snapped = rationalize(value, max_den)
                # Within tol of a value more than tol from zero, so never zero itself.
                if abs(snapped - value) <= tol:
                    n, d = snapped.as_integer_ratio()
            weights.append((key, target, n, d))
        # Unreduced, but with a positive denominator the sum is 1 iff n == d.
        total_n, total_d = _total_pair((n, d) for _, _, n, d in weights)
        if total_n != total_d or any(not 0 < n <= d for _, _, n, d in weights):
            nonconforming.append((key, Fraction(total_n, total_d)))
        else:
            edges += weights

    return ExtractionResult(
        crossmap=None if nonconforming else Crossmap._from_rows(_rows_of(edges)),
        raw_weights=outputs,
        nonconforming_sources=tuple(nonconforming),
        tolerance_used=tol,
        rationalized=snap,
    )
