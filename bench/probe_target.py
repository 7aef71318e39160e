"""Stand-in for a legacy recode script, used as the ``extract`` probe target.

Reads a ``key,value`` CSV on standard input, pushes it through the edge list
named on the command line, and prints every output value truncated (not
rounded) to 9 decimals, as a script printing fixed-width numbers would.
Standard library only, so probing it measures process start-up and I/O, not
the library under test.

Usage: probe_target.py EDGES_CSV
"""

import csv
import sys
from fractions import Fraction

DECIMALS = 9


def main() -> int:
    with open(sys.argv[1], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    outgoing = {}
    for source, target, weight in rows[1:]:
        outgoing.setdefault(source, []).append((target, Fraction(weight)))
    totals = {}
    reader = csv.reader(sys.stdin)
    next(reader)
    for key, value in reader:
        for target, weight in outgoing.get(key, ()):
            totals[target] = totals.get(target, 0) + Fraction(value) * weight
    scale = 10**DECIMALS
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key in sorted(totals):
        whole, part = divmod(int(totals[key] * scale), scale)
        writer.writerow([key, f"{whole}.{part:0{DECIMALS}d}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
