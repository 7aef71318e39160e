"""Shared fixtures and generators for randomised tests.

Random crossmaps are built directly from the definition: pick target
subsets per source, then weights as n_i / sum(n) over random positive
integers, so every source's weights sum to exactly 1 by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from crossmaps.core import Crossmap, Edge, Finding, MassArray, ValidationReport


def country_crossmap() -> Crossmap:
    """Small mixed example: one split, one merge, one identity.

    Recodes legacy country aggregates: the Belgium-Luxembourg combination
    is split evenly, the two German states merge, and Australia passes
    through unchanged.  The README's library tour builds the same map.
    """
    half = Fraction(1, 2)
    return Crossmap(
        [
            Edge("BLX", "BEL", half),
            Edge("BLX", "LUX", half),
            Edge("E.GER", "DEU", 1),
            Edge("W.GER", "DEU", 1),
            Edge("AUS", "AUS", 1),
        ]
    )


def random_crossmap(
    rng: random.Random,
    max_sources: int = 12,
    max_targets: int = 12,
    max_denominator: int | None = None,
) -> Crossmap:
    n_sources = rng.randint(1, max_sources)
    n_targets = rng.randint(1, max_targets)
    sources = [f"s{i}" for i in range(n_sources)]
    target_pool = [f"t{i}" for i in range(n_targets)]
    edges: list[Edge] = []
    for source in sources:
        fan_out = rng.randint(1, min(4, n_targets))
        targets = rng.sample(target_pool, fan_out)
        if max_denominator is None:
            numerators = [rng.randint(1, 9) for _ in targets]
        else:
            # Weights whose reduced denominators stay under the bound:
            # k integer parts out of a common denominator <= bound.
            den = rng.randint(fan_out, max_denominator)
            numerators = _positive_partition(rng, den, fan_out)
        total = sum(numerators)
        edges.extend(
            Edge(source, target, Fraction(num, total))
            for target, num in zip(targets, numerators)
        )
    return Crossmap(edges)


def _positive_partition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_mass_array(
    rng: random.Random,
    keys: tuple[str, ...],
    subset: bool = False,
) -> MassArray:
    chosen = list(keys)
    if subset and len(chosen) > 1:
        chosen = rng.sample(chosen, rng.randint(1, len(chosen)))
    return MassArray(
        {k: Fraction(rng.randint(0, 999), rng.randint(1, 99)) for k in chosen}
    )


def random_chain(rng: random.Random, length: int = 2, max_keys: int = 8) -> list[Crossmap]:
    """Chained crossmaps where each step's sources cover the previous targets."""
    chain = [random_crossmap(rng, max_sources=max_keys, max_targets=max_keys)]
    for _ in range(length - 1):
        previous_targets = chain[-1].targets
        n_targets = rng.randint(1, max_keys)
        target_pool = [f"u{len(chain)}_{i}" for i in range(n_targets)]
        edges: list[Edge] = []
        for source in previous_targets:
            fan_out = rng.randint(1, min(3, n_targets))
            targets = rng.sample(target_pool, fan_out)
            numerators = [rng.randint(1, 9) for _ in targets]
            total = sum(numerators)
            edges.extend(
                Edge(source, target, Fraction(num, total))
                for target, num in zip(targets, numerators)
            )
        chain.append(Crossmap(edges))
    return chain


def all_paths_reference(first: Crossmap, second: Crossmap) -> dict[tuple[str, str], Fraction]:
    """Plain-Fraction composition: every path's weight product, summed per (source, target)."""
    total: dict[tuple[str, str], Fraction] = {}
    for left in first.edges:
        for right in second.edges:
            if right.source == left.target:
                key = (left.source, right.target)
                total[key] = total.get(key, Fraction(0)) + left.weight * right.weight
    return total


def reference_report(edges) -> ValidationReport:
    """The crossmap conditions restated plainly, over the edges sorted by (source, target)."""
    ordered = sorted(edges, key=lambda e: (e.source, e.target))
    findings = []
    if not ordered:
        findings.append(Finding("error", "no_edges", "<map>", "a crossmap needs at least one edge"))
    seen = set()
    for e in ordered:
        subject = f"{e.source}->{e.target}"
        if (e.source, e.target) in seen:
            findings.append(Finding("error", "duplicate_edge", subject, f"duplicate edge ({e.source}, {e.target})"))
        seen.add((e.source, e.target))
        if not 0 < e.weight <= 1:
            findings.append(
                Finding("error", "weight_out_of_range", subject, f"weight {e.weight} outside (0, 1]", e.weight)
            )
    sums: dict[str, Fraction] = {}
    for e in ordered:
        sums[e.source] = sums.get(e.source, Fraction(0)) + e.weight
    for source, total in sorted(sums.items()):
        if total != 1:
            message = f"outgoing weights of source {source!r} sum to {total}, expected exactly 1"
            findings.append(Finding("error", "weight_sum_not_one", source, message, total))
    return ValidationReport(tuple(findings))
