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
import subprocess
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    Crossmap,
    Edge,
    MassArray,
    ONE,
    ProbeError,
    ZERO,
    _Record,
    _exact_total,
    clean_key,
    render_rational,
)
from . import formats

__all__ = [
    "BlackboxTransform",
    "ExternalCommandTransform",
    "ExtractionResult",
    "InProcessTransform",
    "ProbeError",
    "probe_blackbox",
    "rationalize",
]


class InProcessTransform(_Record):
    """Probe target wrapping a direct array -> array function."""

    __slots__ = _fields = ("fn",)

    def __init__(self, fn: Callable[[MassArray], MassArray]) -> None:
        object.__setattr__(self, "fn", fn)

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
            # newline=None keeps the universal-newline reading of text mode.
            output = io.StringIO(proc.stdout.decode("utf-8"), newline=None)
            output.name = self.argv[0]
            return formats.read_array(output)
        except (formats.ParseError, ValueError) as exc:
            raise ProbeError(f"unparsable output from {self.argv[0]!r}: {exc}") from exc


BlackboxTransform = InProcessTransform | ExternalCommandTransform


class ExtractionResult(_Record):
    """Everything a probe session learned.

    ``crossmap`` is present only when every probed source conformed: all
    final weights in (0, 1] and summing to exactly 1.  Otherwise
    ``nonconforming_sources`` carries each offender with its exact probe
    total, and ``raw_weights`` keeps the untouched outputs for diagnosis.
    """

    __slots__ = _fields = ("crossmap", "raw_weights", "nonconforming_sources", "tolerance_used", "rationalized")

    def __init__(
        self,
        crossmap: Crossmap | None,
        raw_weights: dict[str, MassArray],
        nonconforming_sources: tuple[tuple[str, Fraction], ...],
        tolerance_used: Fraction,
        rationalized: bool,
    ) -> None:
        object.__setattr__(self, "crossmap", crossmap)
        object.__setattr__(self, "raw_weights", raw_weights)
        object.__setattr__(self, "nonconforming_sources", nonconforming_sources)
        object.__setattr__(self, "tolerance_used", tolerance_used)
        object.__setattr__(self, "rationalized", rationalized)

    def to_json_dict(self) -> dict:
        return {
            "extracted": self.crossmap is not None,
            "tolerance": render_rational(self.tolerance_used),
            "rationalized": self.rationalized,
            "nonconforming_sources": [
                {"source": s, "total": render_rational(total)} for s, total in self.nonconforming_sources
            ],
        }


def rationalize(value: Fraction | int | str, max_denominator: int) -> Fraction:
    """Closest rational with denominator at most ``max_denominator``.

    Ties (the value sits exactly between two candidates) resolve toward
    the smaller denominator.  Text input is read as an exact base-10
    value, so ``"0.333333"`` snaps to 1/3 under a bound of 100.
    """
    return Fraction(value).limit_denominator(max_denominator)


def _identity_probe(keys: tuple[str, ...], hot: str) -> MassArray:
    return MassArray._from_clean({k: (ONE if k == hot else ZERO) for k in keys})


def probe_blackbox(
    transform: BlackboxTransform,
    source_keys: Sequence[str],
    tolerance: Fraction | str | int = Fraction(1, 10**9),
    rationalize_max_denominator: int | None = None,
    jobs: int = 1,
) -> ExtractionResult:
    """Probe one identity array per source key and assemble the implied crossmap.

    Output values with magnitude at most ``tolerance`` count as zero (no
    edge).  With ``rationalize_max_denominator`` set, each surviving weight
    snaps to the nearest rational under that denominator bound whenever the
    snap moves it by at most ``tolerance``; weights are otherwise kept as
    the exact base-10 values the transform produced, so no precision is
    invented silently.  Probes run concurrently across ``jobs`` workers (an
    int, at least 1) after a serial determinism check on the first key; the
    session issues at most ``len(source_keys) + 1`` probes.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise TypeError(f"jobs must be an int, not {type(jobs).__name__}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    keys = tuple(dict.fromkeys(clean_key(k) for k in source_keys))
    if not keys:
        raise ValueError("need at least one source key to probe")
    tol = Fraction(tolerance)
    if tol < ZERO:
        raise ValueError("tolerance must be non-negative")

    def probe(hot: str) -> MassArray:
        out = transform.run(_identity_probe(keys, hot))
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

    snap = rationalize_max_denominator is not None
    edges: list[Edge] = []
    nonconforming: list[tuple[str, Fraction]] = []
    for key in keys:
        weights: dict[str, Fraction] = {}
        for target, value in outputs[key].items():
            assert value is not None
            # Most outputs are exact zeros: skip them before any Fraction work.
            if not value or abs(value) <= tol:
                continue
            if snap:
                snapped = rationalize(value, rationalize_max_denominator)
                if abs(snapped - value) <= tol:
                    value = snapped
            if value != ZERO:
                weights[target] = value
        total = _exact_total(weights.values())
        if total != ONE or any(not 0 < w.numerator <= w.denominator for w in weights.values()):
            nonconforming.append((key, total))
        else:
            edges.extend(Edge._from_clean(key, target, w) for target, w in weights.items())

    return ExtractionResult(
        crossmap=None if nonconforming else Crossmap(edges),
        raw_weights=outputs,
        nonconforming_sources=tuple(nonconforming),
        tolerance_used=tol,
        rationalized=snap,
    )
