"""Sweep random sets and chart how the fitted energy constant behaves.

For each size in the sweep this draws a batch of seeded random sets,
fits the smallest grid constant making the energy bound hold, and
prints one summary row: how many sets pass the size hypothesis, the
worst and mean fitted constant, and the worst observed doubling.

Seeds are derived from --seed, so a run is reproducible bit for bit.

    python3 scripts/energy_sweep.py --group T2 --q 7 --sizes 6:30:4
    python3 scripts/energy_sweep.py --group H --q 101 --sizes 10:40:10 --csv sweep.csv
"""

import argparse
import csv
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matgrowth import standard_field
from matgrowth.cosets import heis_flags, heis_profile, t2_flags, t2_profile
from matgrowth.exact import heis_energy_bound, t2_energy_bound
from matgrowth.growth import Products
from matgrowth.setfiles import random_set


def parse_span(text: str) -> range:
    lo, hi, step = (int(x) for x in text.split(":"))
    if lo < 1 or hi < lo or step < 1:
        raise argparse.ArgumentTypeError(f"bad size span {text!r}")
    return range(lo, hi + 1, step)


def sweep_row(group: str, spec, size: int, trials: int, seed: int) -> dict:
    constants = []
    passes = 0
    worst_doubling = Fraction(0)
    for t in range(trials):
        # one Products per set: the profile and the flags share its coset keys
        P = Products(random_set(group, spec, size, seed * 10007 + size * 131 + t))
        if group == "T2":
            prof = t2_profile(P)
            fit = t2_energy_bound(P.energy, size, prof.m1.value, prof.m2.value)
            flags = t2_flags(P, prof.m3.value)
            ok = flags.whole_set and flags.per_piece
        else:
            prof = heis_profile(P)
            fit = heis_energy_bound(P.energy, size, prof.base_max.value, prof.line_max.value)
            flags = heis_flags(P, prof.base_max.value)
            ok = flags.whole_set and flags.square_shape
        passes += ok
        constants.append(fit.constant)
        worst_doubling = max(worst_doubling, Fraction(len(P.square), size))
    return {
        "size": size,
        "trials": trials,
        "hypothesis_pass": passes,
        "c_max": float(max(constants)),
        "c_mean": float(sum(constants) / len(constants)),
        "doubling_max": float(worst_doubling),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--group", choices=("T2", "H"), default="T2")
    ap.add_argument("--q", type=int, default=7, help="field order (default 7)")
    ap.add_argument(
        "--sizes", type=parse_span, default=range(6, 31, 4), metavar="LO:HI:STEP"
    )
    ap.add_argument("--trials", type=int, default=20, help="sets per size (default 20)")
    ap.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    ap.add_argument("--csv", type=Path, help="also write the rows to this CSV file")
    args = ap.parse_args(argv)

    spec = standard_field(args.q)
    rows = [
        sweep_row(args.group, spec, size, args.trials, args.seed)
        for size in args.sizes
    ]

    head = ("size", "trials", "hypothesis_pass", "c_max", "c_mean", "doubling_max")
    print(f"group={args.group} q={args.q} trials={args.trials} seed={args.seed}")
    print(" ".join(f"{h:>15}" for h in head))
    for row in rows:
        print(
            f"{row['size']:>15} {row['trials']:>15} {row['hypothesis_pass']:>15}"
            f" {row['c_max']:>15.6f} {row['c_mean']:>15.6f} {row['doubling_max']:>15.3f}"
        )

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=head)
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
