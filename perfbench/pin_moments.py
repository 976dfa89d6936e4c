"""Recompute the pinned exact moments of the moment-sweep workload and cross-check them.

From the repository root:

    PYTHONPATH=src python3 perfbench/pin_moments.py          # check the pins
    PYTHONPATH=src python3 perfbench/pin_moments.py --write  # rewrite them

Each pin is E(#Sur(cok A, G)) at row weight k = 3 as an exact "num/den".
The same exact sweep is checked against `surjection_moment_bruteforce` on
every group of the sweep at the largest n with |G|^n <= BRUTE_LIMIT, and
against the figure 3.5184 at (Z/3, n = 30) quoted for acceptance criterion 9.
"""

import argparse
import json
import sys

from rowsparse.groups import FiniteAbelianGroup
from rowsparse.moments import surjection_moment_bruteforce, surjection_moment_exact

from workloads import MOMENT_CELLS, MOMENT_K, PINNED_MOMENTS, fraction_text

BRUTE_LIMIT = 10**6


def cross_check():
    for label, divs, _ in MOMENT_CELLS:
        group = FiniteAbelianGroup(divs)
        n = 1
        while group.order ** (n + 1) <= BRUTE_LIMIT:
            n += 1
        exact = surjection_moment_exact(group, n, MOMENT_K)
        brute = surjection_moment_bruteforce(group, n, MOMENT_K)
        if exact != brute:
            raise SystemExit(f"{label}: exact and brute force differ at n={n}")
        print(f"{label}: exact == brute force at n={n} ({float(exact):.6f})")
    z3 = float(surjection_moment_exact(FiniteAbelianGroup((3,)), 30, MOMENT_K))
    if round(z3, 4) != 3.5184:
        raise SystemExit(f"(Z/3, n=30) gives {z3}, not 3.5184")
    print(f"(Z/3, n=30): {z3:.6f}, matches 3.5184")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite pinned_moments.json")
    args = parser.parse_args(argv)
    cross_check()
    pins = {
        label: fraction_text(surjection_moment_exact(FiniteAbelianGroup(divs), n, MOMENT_K))
        for label, divs, n in MOMENT_CELLS
    }
    if args.write:
        PINNED_MOMENTS.write_text(json.dumps(pins, indent=1) + "\n")
        print(f"wrote {PINNED_MOMENTS.name}")
        return 0
    stored = json.loads(PINNED_MOMENTS.read_text())
    bad = [label for label in pins if stored.get(label) != pins[label]]
    for label in pins:
        print(f"{label}: {'MISMATCH' if label in bad else 'matches pin'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
