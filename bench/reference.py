"""Independent plain-``Fraction`` reference for every benchmarked output.

Nothing here imports ``crossmaps``: maps are lists of ``(source, target,
weight)`` triples parsed straight from CSV text, and results are rendered
into the canonical text the library's writers promise (header, rows sorted
by key, exact ``p/q`` values, ``\\n`` line endings).  Comparing the
library's bytes with these bytes is the benchmark's exact-equality gate.
Keys produced by ``gen`` never need CSV quoting, which the renderers rely on.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

Edges = list[tuple[str, str, Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_edges(text: str) -> Edges:
    lines = text.splitlines()
    assert lines[0] == "from,to,weight", "unexpected edge header"
    out = []
    for line in lines[1:]:
        s, t, w = line.split(",")
        out.append((s, t, Fraction(w)))
    return out


def parse_array(text: str) -> dict[str, Fraction]:
    lines = text.splitlines()
    assert lines[0] == "key,value", "unexpected array header"
    return {k: Fraction(v) for k, v in (line.split(",") for line in lines[1:])}


def render_array(values: dict[str, Fraction]) -> str:
    return "key,value\n" + "".join(f"{k},{values[k]}\n" for k in sorted(values))


def render_edges(weights: dict[tuple[str, str], Fraction]) -> str:
    return "from,to,weight\n" + "".join(f"{s},{t},{weights[s, t]}\n" for s, t in sorted(weights))


def outgoing(edges: Edges) -> dict[str, list[tuple[str, Fraction]]]:
    grouped: dict[str, list[tuple[str, Fraction]]] = {}
    for s, t, w in edges:
        grouped.setdefault(s, []).append((t, w))
    return grouped


def apply(edges: Edges, array: dict[str, Fraction]) -> dict:
    """Push an array through a map, dropping (and reporting) uncovered keys.

    Every target of the map appears in the output, with 0 where nothing
    arrives.
    """
    out_edges = outgoing(edges)
    result = {t: ZERO for _, t, _ in edges}
    uncovered = [k for k in sorted(array) if k not in out_edges]
    split_mass = ZERO
    for key, mass in array.items():
        targets = out_edges.get(key)
        if targets is None:
            continue
        if len(targets) > 1:
            split_mass += mass
        for t, w in targets:
            result[t] += mass * w
    dropped = sum((array[k] for k in uncovered), ZERO)
    return {
        "values": result,
        "text": render_array(result),
        "uncovered": uncovered,
        "input_total": sum(array.values(), ZERO),
        "output_total": sum(result.values(), ZERO),
        "dropped_mass": dropped,
        "split_mass": split_mass,
    }


def compose(first: Edges, second: Edges) -> dict[tuple[str, str], Fraction]:
    out_second = outgoing(second)
    weights: dict[tuple[str, str], Fraction] = {}
    for s, mid, w in first:
        for t, v in out_second[mid]:
            weights[s, t] = weights.get((s, t), ZERO) + w * v
    return {pair: w for pair, w in weights.items() if w != ZERO}


def as_edges(weights: dict[tuple[str, str], Fraction]) -> Edges:
    return [(s, t, weights[s, t]) for s, t in sorted(weights)]


def _relation(edges: Edges) -> str:
    if len(edges) == 1:
        return "one_to_one"
    sources = {s for s, _, _ in edges}
    targets = {t for _, t, _ in edges}
    if len(sources) == 1:
        return "one_to_many"
    if len(targets) == 1:
        return "many_to_one"
    return "many_to_many"


def components(edges: Edges) -> list[dict]:
    """Weakly connected components by union-find, in the JSON shape the
    CLI's ``classify --json`` documents, ordered by smallest source key."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for s, t, _ in edges:
        a, b = find(("s", s)), find(("t", t))
        if a != b:
            parent[a] = b
    groups: dict[tuple[str, str], Edges] = {}
    for edge in sorted(edges):
        groups.setdefault(find(("s", edge[0])), []).append(edge)
    out = []
    for group in sorted(groups.values(), key=lambda g: g[0][0]):
        out.append(
            {
                "relation_type": _relation(group),
                "sources": sorted({s for s, _, _ in group}),
                "targets": sorted({t for _, t, _ in group}),
                "edges": [{"from": s, "to": t, "weight": str(w)} for s, t, w in group],
            }
        )
    return out


RELATION_TYPES = ("one_to_one", "one_to_many", "many_to_one", "many_to_many")


def summary(edges: Edges, array: dict[str, Fraction]) -> dict:
    """The document ``summarize --data --json`` prints, built independently."""
    incoming: dict[str, list[str]] = {}
    for s, t, _ in edges:
        incoming.setdefault(t, []).append(s)
    rows = sorted(((t, sorted(keys)) for t, keys in incoming.items()), key=lambda r: (-len(r[1]), r[0]))
    type_counts = Counter(c["relation_type"] for c in components(edges))
    type_counts = {t: type_counts.get(t, 0) for t in RELATION_TYPES}
    out_edges = outgoing(edges)
    split = {s for s, targets in out_edges.items() if len(targets) > 1}
    total = sum(array.values(), ZERO)
    entering = sum((v for k, v in array.items() if k in split), ZERO)
    return {
        "targets": [{"target": t, "incoming_count": len(keys), "incoming_keys": keys} for t, keys in rows],
        "totals": {
            "edges": len(edges),
            "sources": len(out_edges),
            "targets": len(incoming),
            "component_types": type_counts,
        },
        "imputation": {
            "component_type_counts": type_counts,
            "fractional_edge_count": sum(1 for _, _, w in edges if w != ONE),
            "split_source_count": len(split),
            "potential_split_share": str(Fraction(len(split), len(out_edges))),
            "realized_split_mass_share": str(ZERO if total == ZERO else entering / total),
        },
    }


def map_properties(edges: Edges, uncovered_share: Fraction | None = None) -> dict:
    """Input properties later performance claims can name."""
    fan_out = Counter(len(ts) for ts in outgoing(edges).values())
    n_sources = sum(fan_out.values())
    props = {
        "edges": len(edges),
        "sources": n_sources,
        "targets": len({t for _, t, _ in edges}),
        "split_source_share": round((n_sources - fan_out.get(1, 0)) / n_sources, 4),
        "fan_out_histogram": {str(k): fan_out[k] for k in sorted(fan_out)},
        "largest_weight_denominator": max(w.denominator for _, _, w in edges),
        "components_by_type": dict(Counter(c["relation_type"] for c in components(edges))),
    }
    if uncovered_share is not None:
        props["uncovered_share"] = round(float(uncovered_share), 6)
    return props
