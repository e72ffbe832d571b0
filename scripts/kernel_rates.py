"""Time the numpy kernel per pair on each of its paths, and the passes over a
set's elements and the line profile on their loop and array forms.

For each pair path this builds two seeded random sets, enumerates their
product with ``kernel.pair_kernel`` several times, and prints the best
time per pair, both for the product set alone and with multiplicities
(the counting passes behind the energy). The paths:

    prime dense    H over F_101: the set-only product marks a q^3 mask
    prime sparse   T2 over F_65521: each block is sorted and merged
    p = 2          T2 over F_65536: table multiplication, XOR addition
    odd extension  H over F_59049: table multiplication, Zech addition

Then, over F_101, F_65521, F_256 and F_59049, it prints the best time per
element of ``SubgroupTag.keys``, ``fibers`` and ``members`` under the
``scalars`` tag (two divisions per key) on the product of two random
300-element T2 sets (about 90,000 elements), and per pair of
``cosets.heaviest_line`` on 500 seeded random points of weight one to
three: each on its per-element loop (as a run without numpy takes it) and
on its array form in ``kernel``.

    python3 scripts/kernel_rates.py
    python3 scripts/kernel_rates.py --size 2000 --repeats 5
"""

import argparse
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matgrowth import GroupSet, SubgroupTag, standard_field
from matgrowth import groups, growth
from matgrowth.cosets import heaviest_line
from matgrowth.kernel import _dense, pair_kernel
from matgrowth.rng import SplitMix64
from matgrowth.setfiles import random_set

PATHS = [
    ("prime dense", "H", 101),
    ("prime sparse", "T2", 65521),
    ("p = 2", "T2", 65536),
    ("odd extension", "H", 59049),
]
PASS_FIELDS = [101, 65521, 256, 59049]
PASS_OPERAND = 300  # elements per operand of the product the passes read
POINTS = 500  # points of the line profile


def best_ns(run, items: int, repeats: int) -> float:
    """The best of ``repeats`` timed calls of ``run``, in ns per item."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best / items * 1e9


def pass_rates(q: int, args) -> list[tuple[str, int, float, float]]:
    """(pass, items, loop ns, array ns) of each pass over one field."""
    spec = standard_field(q)
    X = random_set("T2", spec, PASS_OPERAND, args.seed)
    Y = random_set("T2", spec, PASS_OPERAND, args.seed + 1)
    S = GroupSet("T2", spec, _keys=pair_kernel(X, Y)[0])
    tag = SubgroupTag("scalars")
    rng = SplitMix64(args.seed)
    points = {(rng.below(q), rng.below(q)): 1 + rng.below(3) for _ in range(POINTS)}
    pairs = len(points) * (len(points) - 1) // 2
    runs = [
        ("keys", len(S), lambda: tag.keys(S)),
        ("fibers", len(S), lambda: tag.fibers(S)),
        ("members", len(S), lambda: tag.members(S)),
        ("heaviest_line", pairs, lambda: heaviest_line(spec, points)),
    ]
    rows = []
    for name, items, run in runs:
        rates = []
        for loop in (True, False):
            with mock.patch.object(groups, "numpy_loaded", lambda: not loop), mock.patch.object(
                growth, "_use_kernel", lambda pairs: not loop
            ):
                rates.append(best_ns(run, items, args.repeats))
        rows.append((name, items, *rates))
    return rows


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
        rates = [best_ns(lambda: pair_kernel(X, Y, counts), pairs, args.repeats) for counts in (False, True)]
        mask = "yes" if _dense(q, pairs) else "no"
        print(f"{label:<14} {group:<5} {q:>6} {pairs:>10} {mask:>6} {rates[0]:>8.1f} {rates[1]:>10.1f}")
    print()
    print(f"{'pass':<14} {'q':>6} {'items':>10} {'loop ns':>8} {'array ns':>9}")
    for q in PASS_FIELDS:
        for name, items, loop, arrays in pass_rates(q, args):
            print(f"{name:<14} {q:>6} {items:>10} {loop:>8.1f} {arrays:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
