"""Shared fixtures and generators for randomised tests, and the plain model they are checked against.

Random crossmaps are built directly from the definition: pick target
subsets per source, then weights as n_i / sum(n) over random positive
integers, so every source's weights sum to exactly 1 by construction.
The ``model_*`` functions restate the library's rules over plain data.
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


def first_primes(count: int = 2000) -> list[int]:
    """The first ``count`` primes: 2000 of them end at 17389."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def prime_edge_list(count: int = 2000) -> str:
    """Edge-list text giving source ``a`` an edge of weight 1/p for each of the first ``count`` primes.

    The weights' sum has a denominator, the product of the primes, with far
    more digits than ``str`` may print.
    """
    return "from,to,weight\n" + "".join(f"a,t{p},1/{p}\n" for p in first_primes(count))


def edge_triples(crossmap: Crossmap) -> list[tuple[str, str, Fraction]]:
    """A crossmap's edges as the model's plain ``(source, target, weight)`` triples."""
    return [(e.source, e.target, e.weight) for e in crossmap.edges]


def all_paths_reference(first: Crossmap, second: Crossmap) -> dict[tuple[str, str], Fraction]:
    """Plain-Fraction composition: every path's weight product, summed per (source, target)."""
    return model_compose(edge_triples(first), edge_triples(second))


def reference_report(edges) -> ValidationReport:
    """The crossmap conditions restated plainly, over the edges sorted by (source, target)."""
    triples = [(e.source, e.target, e.weight) for e in edges]
    return ValidationReport(tuple(Finding("error", *finding) for finding in model_findings(triples)))


# The model: the library's rules restated in plain Fraction code over plain
# data, using none of the crossmaps types.  A map is a list of (source,
# target, weight) triples, an array a dict of key -> Fraction.


def model_findings(triples) -> list[tuple[str, str, str, Fraction | None]]:
    """(code, subject, message, value) of each crossmap finding, in the library's order."""
    ordered = sorted(triples, key=lambda e: (e[0], e[1]))
    findings: list[tuple[str, str, str, Fraction | None]] = []
    if not ordered:
        findings.append(("no_edges", "<map>", "a crossmap needs at least one edge", None))
    seen = set()
    for source, target, weight in ordered:
        subject = f"{source}->{target}"
        if (source, target) in seen:
            findings.append(("duplicate_edge", subject, f"duplicate edge ({source}, {target})", None))
        seen.add((source, target))
        if not 0 < weight <= 1:
            findings.append(("weight_out_of_range", subject, f"weight {weight} outside (0, 1]", weight))
    sums: dict[str, Fraction] = {}
    for source, _, weight in ordered:
        sums[source] = sums.get(source, Fraction(0)) + weight
    for source, total in sorted(sums.items()):
        if total != 1:
            message = f"outgoing weights of source {source!r} sum to {total}, expected exactly 1"
            findings.append(("weight_sum_not_one", source, message, total))
    return findings


def model_compose(first, second) -> dict[tuple[str, str], Fraction]:
    """Every path's weight product, summed per (source, target)."""
    total: dict[tuple[str, str], Fraction] = {}
    for source, middle, left in first:
        for start, target, right in second:
            if start == middle:
                total[source, target] = total.get((source, target), Fraction(0)) + left * right
    return total


def model_apply(triples, array: dict[str, Fraction]) -> tuple[dict[str, Fraction], Fraction, Fraction]:
    """(output per target, mass on keys with no edge, mass on sources with several edges)."""
    fan_out: dict[str, int] = {}
    for source, _, _ in triples:
        fan_out[source] = fan_out.get(source, 0) + 1
    output = {target: Fraction(0) for _, target, _ in triples}
    for source, target, weight in triples:
        output[target] += array.get(source, 0) * weight
    dropped = sum((mass for key, mass in array.items() if key not in fan_out), Fraction(0))
    split = sum((mass for key, mass in array.items() if fan_out.get(key, 0) > 1), Fraction(0))
    return output, dropped, split


def model_components(triples) -> list[tuple[tuple[str, ...], tuple[str, ...], str]]:
    """(sources, targets, relation type) per connected component, by smallest source key."""
    neighbours: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for source, target, _ in triples:
        neighbours.setdefault(("s", source), set()).add(("t", target))
        neighbours.setdefault(("t", target), set()).add(("s", source))
    seen: set[tuple[str, str]] = set()
    found = []
    for start in sorted(node for node in neighbours if node[0] == "s"):
        if start in seen:
            continue
        members, frontier = {start}, [start]
        while frontier:
            for node in neighbours[frontier.pop()] - members:
                members.add(node)
                frontier.append(node)
        seen |= members
        sources = tuple(sorted(key for side, key in members if side == "s"))
        targets = tuple(sorted(key for side, key in members if side == "t"))
        many = ("one", "many")
        found.append((sources, targets, f"{many[len(sources) > 1]}_to_{many[len(targets) > 1]}"))
    return found


def model_refusal(array: dict[str, Fraction | None]) -> tuple[str, tuple[str, ...]]:
    """Why an array holding a missing or negative mass is refused: every missing key if any, else every negative key."""
    missing = tuple(sorted(key for key, mass in array.items() if mass is None))
    if missing:
        return "missing", missing
    return "negative", tuple(sorted(key for key, mass in array.items() if mass < 0))


def model_equal_split(pairs) -> list[tuple[str, str, Fraction]]:
    """A crosswalk's pairs as triples, each source's weight shared equally among its targets."""
    counts: dict[str, int] = {}
    for source, _ in pairs:
        counts[source] = counts.get(source, 0) + 1
    return [(source, target, Fraction(1, counts[source])) for source, target in pairs]
