"""Time the numpy pair kernel per pair on each of its paths.

For each path this builds two seeded random sets, enumerates their
product with ``kernel.pair_kernel`` several times, and prints the best
time per pair, both for the product set alone and with multiplicities
(the counting passes behind the energy). The paths:

    prime dense    H over F_101: the set-only product marks a q^3 mask
    prime sparse   T2 over F_65521: each block is sorted and merged
    p = 2          T2 over F_65536: table multiplication, XOR addition
    odd extension  H over F_59049: table multiplication, digit addition

    python3 scripts/kernel_rates.py
    python3 scripts/kernel_rates.py --size 2000 --repeats 5
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matgrowth import standard_field
from matgrowth.kernel import _dense, pair_kernel
from matgrowth.setfiles import random_set

PATHS = [
    ("prime dense", "H", 101),
    ("prime sparse", "T2", 65521),
    ("p = 2", "T2", 65536),
    ("odd extension", "H", 59049),
]


def best_ns_per_pair(X, Y, counts: bool, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        pair_kernel(X, Y, counts)
        best = min(best, time.perf_counter() - start)
    return best / (len(X) * len(Y)) * 1e9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=1000, help="elements per operand (default 1000)")
    ap.add_argument("--repeats", type=int, default=3, help="timed runs per case; the best is kept")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.size < 1 or args.repeats < 1:
        ap.error("--size and --repeats must be positive")
    print(f"{'path':<14} {'group':<5} {'q':>6} {'pairs':>10} {'mask':>6} {'set ns':>8} {'counts ns':>10}")
    for label, group, q in PATHS:
        spec = standard_field(q)
        X = random_set(group, spec, args.size, args.seed)
        Y = random_set(group, spec, args.size, args.seed + 1)
        pairs = len(X) * len(Y)
        rates = [best_ns_per_pair(X, Y, counts, args.repeats) for counts in (False, True)]
        mask = "yes" if _dense(q, pairs) else "no"
        print(f"{label:<14} {group:<5} {q:>6} {pairs:>10} {mask:>6} {rates[0]:>8.1f} {rates[1]:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
