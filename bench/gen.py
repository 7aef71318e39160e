"""Seeded input generator for the benchmark workloads.

Every map and array is produced here as CSV text from ``random.Random(seed)``
using only the standard library, so the inputs never depend on the code
being measured and the same (workload, seed, scale) always gives the same
bytes.  Weights are built as ``n_i / sum(n)`` over small positive integers,
so every source's outgoing weights sum to exactly 1 by construction.

``scale`` shrinks every size proportionally; 1.0 is the benchmark size and
the self-tests use a tiny value.
"""

from __future__ import annotations

import random
from fractions import Fraction

EDGE_HEADER = "from,to,weight\n"
ARRAY_HEADER = "key,value\n"


def edge_text(edges: list[tuple[str, str, Fraction]]) -> str:
    return EDGE_HEADER + "".join(f"{s},{t},{w}\n" for s, t, w in edges)


def array_text(items: list[tuple[str, Fraction]]) -> str:
    return ARRAY_HEADER + "".join(f"{k},{v}\n" for k, v in items)


def _size(base: int, scale: float, floor: int) -> int:
    return max(floor, round(base * scale))


def _weights(rng: random.Random, fan_out: int) -> list[Fraction]:
    nums = [rng.randint(1, 9) for _ in range(fan_out)]
    total = sum(nums)
    return [Fraction(n, total) for n in nums]


def _balanced(rng: random.Random, count: int, choices: list[int]) -> list[int]:
    """``count`` values cycling through ``choices``, shuffled: every seed gets
    the same histogram, so input size does not vary from seed to seed."""
    values = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(values)
    return values


def _split_flags(rng: random.Random, count: int, share: float) -> list[bool]:
    """Exactly ``round(share * count)`` True values, in random positions."""
    n_split = round(share * count)
    return _balanced(rng, count, [True] * n_split + [False] * (count - n_split)) if count else []


def _random_masses(rng: random.Random, keys: list[str]) -> list[tuple[str, Fraction]]:
    # Values p/q with p <= 10**6 and q <= 99, the scale of real survey totals.
    return [(k, Fraction(rng.randint(0, 10**6), rng.randint(1, 99))) for k in keys]


def _block_map(
    rng: random.Random,
    sources: list[str],
    targets: list[str],
    split_share: float,
    max_fan_out: int,
) -> list[tuple[str, str, Fraction]]:
    """Sources fall into consecutive blocks, one per target; a split source
    also feeds the next targets along, so components stay local."""
    edges = []
    splits = _split_flags(rng, len(sources), split_share)
    fan_outs = iter(_balanced(rng, sum(splits), list(range(2, max_fan_out + 1))))
    for i, source in enumerate(sources):
        home = i * len(targets) // len(sources)
        if splits[i]:
            fan_out = next(fan_outs)
            chosen = [targets[(home + j) % len(targets)] for j in range(fan_out)]
            edges.extend((source, t, w) for t, w in zip(chosen, _weights(rng, fan_out)))
        else:
            edges.append((source, targets[home], Fraction(1)))
    return edges


def occupation_sources(occupation_text: str) -> list[str]:
    """Source codes of the bundled occupation map, in file order."""
    return [line.split(",", 1)[0] for line in occupation_text.splitlines()[1:] if line]


def recode_panel(seed: int, scale: float) -> dict:
    """One fractional many-to-many map and a panel of 8 array vintages.

    Each fan-out 1..4 is given to a quarter of the sources, with targets
    drawn from the whole pool, so components are large and most sources
    split.  The last vintage carries 1% extra keys the map does not cover.
    """
    rng = random.Random(f"recode_panel:{seed}")
    n_sources = _size(5000, scale, 40)
    sources = [f"S{i:05d}" for i in range(n_sources)]
    targets = [f"T{i:05d}" for i in range(_size(3000, scale, 24))]
    edges = []
    for source, fan_out in zip(sources, _balanced(rng, n_sources, [1, 2, 3, 4])):
        chosen = rng.sample(targets, fan_out)
        edges.extend((source, t, w) for t, w in zip(chosen, _weights(rng, len(chosen))))
    vintages = [_random_masses(rng, sources) for _ in range(8)]
    n_uncovered = max(1, round(0.01 * n_sources))
    vintages[-1] += _random_masses(rng, [f"X{i:05d}" for i in range(n_uncovered)])
    return {
        "map": edge_text(edges),
        "arrays": [array_text(v) for v in vintages],
        "drop_uncovered": [False] * 7 + [True],
    }


def chain_build(seed: int, scale: float, occupation_text: str) -> dict:
    """Two rotating variants of a fine -> mid -> occupation chain.

    Each variant is a pair of edge lists: 2k fine codes onto 400 mid codes
    in blocks with 20% splits, then the mid codes onto the 329 source codes
    of the bundled occupation map, also with 20% splits.
    """
    rng = random.Random(f"chain_build:{seed}")
    occ = occupation_sources(occupation_text)
    fine = [f"F{i:05d}" for i in range(_size(2000, scale, 60))]
    mid = [f"M{i:04d}" for i in range(_size(400, scale, 12))]
    variants = []
    for _ in range(2):
        first = _block_map(rng, fine, mid, 0.2, 3)
        second = _block_map(rng, mid, occ, 0.2, 3)
        variants.append(
            {
                "first": edge_text(first),
                "second": edge_text(second),
                "probe_array": array_text(_random_masses(rng, fine)),
            }
        )
    return {"variants": variants}


def _small_map(rng: random.Random, n_sources: int, n_targets: int, split_share: float, prefix: str):
    sources = [f"{prefix}{i:04d}" for i in range(n_sources)]
    targets = [f"G{i:04d}" for i in range(n_targets)]
    splits = _split_flags(rng, n_sources, split_share)
    fan_outs = iter(_balanced(rng, sum(splits), [2, 3]))
    edges = []
    for i, source in enumerate(sources):
        if splits[i]:
            chosen = rng.sample(targets, next(fan_outs))
        else:
            chosen = [targets[i * n_targets // n_sources]]
        edges.extend((source, t, w) for t, w in zip(chosen, _weights(rng, len(chosen))))
    return sources, edges


def cli_mix(seed: int, scale: float, occupation_text: str) -> dict:
    """Files for one round of ``crossmap`` commands.

    The main map sends about 4k codes onto the occupation source codes with
    mostly unit weights (10% splits), so it composes with the occupation
    map.  The bad map is the main map with one split weight halved.  The
    extract map has 12 keys and denominators below 100.
    """
    rng = random.Random(f"cli_mix:{seed}")
    occ = occupation_sources(occupation_text)
    sources = [f"C{i:05d}" for i in range(_size(4000, scale, 40))]
    edges = _block_map(rng, sources, occ, 0.1, 3)
    bad = list(edges)
    index = next(i for i, (s, _, w) in enumerate(bad) if w != 1)
    s, t, w = bad[index]
    bad[index] = (s, t, w / 2)
    data = _random_masses(rng, sources)
    n_uncovered = max(1, round(0.01 * len(sources)))
    uncovered = data + _random_masses(rng, [f"X{i:05d}" for i in range(n_uncovered)])
    extract_keys, extract_edges = _small_map(rng, 12, 8, 0.4, "K")
    return {
        "files": {
            "main.csv": edge_text(edges),
            "bad.csv": edge_text(bad),
            "data.csv": array_text(data),
            "uncovered.csv": array_text(uncovered),
            "occupation.csv": occupation_text,
            "extract_map.csv": edge_text(extract_edges),
            "extract_keys.txt": "".join(k + "\n" for k in extract_keys),
        },
        "bad_source": s,
    }


def extract_inproc(seed: int, scale: float) -> dict:
    """A hidden map of 96 sources (40% splits) to probe, plus one array for
    the dense-oracle check."""
    rng = random.Random(f"extract_inproc:{seed}")
    n_sources = _size(96, scale, 12)
    sources, edges = _small_map(rng, n_sources, max(4, n_sources * 5 // 6), 0.4, "H")
    return {
        "hidden": edge_text(edges),
        "keys": sources,
        "probe_array": array_text(_random_masses(rng, sources)),
    }
