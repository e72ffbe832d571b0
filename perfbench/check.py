"""Correctness checks that do not trust the program under test.

Two kinds of check, both run after the timed passes:

* Pins.  ``pins.json`` holds the exit code and output digest of every
  operation whose input does not depend on the seed (pinned corpus sets,
  structured sets, the F_7 probes), and of every operation for the
  default seed.  Corpus operations are also checked inside the pass
  against ``corpus/expected.json``, as ``matgrowth verify`` does.
* Recounts.  For seeded random inputs, the key numbers of each output
  are recomputed here with an independent implementation of the field
  and group arithmetic: set sizes |A|, |AA|, |AAA|, |A^-1 A|, both
  energies, the size-hypothesis flags (hence the expected exit code),
  the bridge totals and class count, and probe incidence counts.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path


class Field:
    """F_{p^r} on wire integers (base-p digits, low degree first)."""

    def __init__(self, p: int, r: int, modulus):
        self.p, self.r, self.q = p, r, p**r
        self.modulus = list(modulus)
        self.exp = self.log = None
        if r > 1 and self.q <= 4096:
            self._build_tables()

    def _digits(self, x):
        out = []
        for _ in range(self.r):
            x, d = divmod(x, self.p)
            out.append(d)
        return out

    def _undigits(self, ds):
        out = 0
        for d in reversed(ds):
            out = out * self.p + d
        return out

    def add(self, x, y):
        if self.r == 1:
            return (x + y) % self.p
        return self._undigits([(a + b) % self.p for a, b in zip(self._digits(x), self._digits(y))])

    def neg(self, x):
        if self.r == 1:
            return -x % self.p
        return self._undigits([-a % self.p for a in self._digits(x)])

    def _polymul(self, x, y):
        p, r = self.p, self.r
        a, b = self._digits(x), self._digits(y)
        prod = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for i in range(2 * r - 2, r - 1, -1):
            c = prod[i]
            if c:
                for j in range(r + 1):
                    prod[i - r + j] = (prod[i - r + j] - c * self.modulus[j]) % p
        return self._undigits(prod[:r])

    def _build_tables(self):
        n = self.q - 1
        for g in range(2, self.q):
            x, order = g, 1
            while x != 1:
                x = self._polymul(x, g)
                order += 1
            if order == n:
                break
        self.exp = [0] * n
        self.log = [0] * self.q
        x = 1
        for i in range(n):
            self.exp[i] = x
            self.log[x] = i
            x = self._polymul(x, g)

    def mul(self, x, y):
        if self.r == 1:
            return x * y % self.p
        if x == 0 or y == 0:
            return 0
        if self.exp is not None:
            return self.exp[(self.log[x] + self.log[y]) % (self.q - 1)]
        return self._polymul(x, y)

    def inv(self, x):
        if self.r == 1:
            return pow(x, self.p - 2, self.p)
        out, base, e = 1, x, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


def group_ops(F: Field, group: str):
    if group == "T2":
        def mul(g, h):
            return (F.mul(g[0], h[0]), F.add(F.mul(g[0], h[1]), F.mul(g[1], h[2])), F.mul(g[2], h[2]))

        def inv(g):
            ai, ci = F.inv(g[0]), F.inv(g[2])
            return (ai, F.neg(F.mul(g[1], F.mul(ai, ci))), ci)
    else:
        def mul(g, h):
            return (F.add(g[0], h[0]), F.add(g[1], h[1]), F.add(F.add(g[2], h[2]), F.mul(g[0], h[1])))

        def inv(g):
            return (F.neg(g[0]), F.neg(g[1]), F.add(F.neg(g[2]), F.mul(g[0], g[1])))
    return mul, inv


def expected_flags(F: Field, group: str, A) -> list[str]:
    """The size-hypothesis issues a correct report raises for A."""
    n, p2 = len(A), F.p * F.p
    issues = []
    if group == "T2":
        m3 = max(Counter((w[0], w[2]) for w in A).values())
        if n * m3 > p2:
            issues.append("flag_whole_set")
        key = {w: (F.mul(w[1], F.inv(w[0])), F.mul(w[2], F.inv(w[0]))) for w in A}
        fibers = Counter(key.values())
        band = {w: fibers[key[w]].bit_length() - 1 for w in A}
        size = Counter(band.values())
        diag = Counter((band[w], w[0], w[2]) for w in A)
        for j, count in size.items():
            fmax = max(v for (jj, _, _), v in diag.items() if jj == j)
            if count * fmax > (1 << j) * p2:
                issues.append("flag_per_piece")
                break
    else:
        m = max(Counter((w[0], w[1]) for w in A).values())
        if n * m > p2:
            issues.append("flag_whole_set")
        if m * m > n:
            issues.append("flag_square_shape")
    return sorted(issues)


def _load_set(path):
    obj = json.loads(Path(path).read_text())
    f = obj["field"]
    F = Field(f["p"], f["r"], f["modulus"])
    return obj["group"], F, [tuple(w) for w in obj["elements"]]


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, recount {want!r}")


def check_report(setfile, report) -> tuple[list[str], int]:
    group, F, A = _load_set(setfile)
    mul, inv = group_ops(F, group)
    plain = Counter(mul(a, b) for a in A for b in A)
    invs = [inv(a) for a in A]
    quot = Counter(mul(ai, b) for ai in invs for b in A)
    cube = {mul(s, a) for s in plain for a in A}
    problems: list[str] = []
    g = report["growth"]
    _expect(problems, "size", g["size"], len(A))
    _expect(problems, "square_size", g["square_size"], len(plain))
    _expect(problems, "cube_size", g["cube_size"], len(cube))
    _expect(problems, "quotient_size", g["quotient_size"], len(quot))
    _expect(problems, "energy", g["energy"], sum(v * v for v in quot.values()))
    _expect(problems, "product_energy", g["product_energy"], sum(v * v for v in plain.values()))
    flags = expected_flags(F, group, A)
    _expect(problems, "issues", report["status"]["issues"], flags)
    return problems, 2 if flags else 0


def check_bridge(setfile, payload) -> tuple[list[str], int]:
    group, F, A = _load_set(setfile)
    mul, inv = group_ops(F, group)
    quot = Counter(mul(inv(a), b) for a in A for b in A)
    e = sum(v * v for v in quot.values())
    if group == "T2":
        keys = {(F.mul(g[0], v[0]), F.mul(g[2], v[2])) for g in A for v in A}
    else:
        keys = {(F.add(g[0], v[0]), F.add(g[1], v[1])) for g in A for v in A}
    br = payload["bridge"]
    problems: list[str] = []
    _expect(problems, "energy", br["energy"], e)
    _expect(problems, "total_quadruples", br["total_quadruples"], e)
    _expect(problems, "total_incidences", br["total_incidences"], e)
    _expect(problems, "total_pairs", br["total_pairs"], len(A) ** 2)
    _expect(problems, "class_count", br["class_count"], len(keys))
    _expect(problems, "matches_energy", br["matches_energy"], True)
    return problems, 0


MASK64 = (1 << 64) - 1


def splitmix_below(state: list[int], n: int) -> int:
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        state[0] = (state[0] + 0x9E3779B97F4A7C15) & MASK64
        z = state[0]
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        if z < limit:
            return z % n


def check_probe(op, payload) -> tuple[list[str], int]:
    """Recount a prime-field probe: same seeded draw, direct dot products."""
    p = op["q"]
    state = [op["seed"] & MASK64]

    def draw(n):
        got = set()
        while len(got) < n:
            w = splitmix_below(state, p**3)
            got.add((w % p, (w // p) % p, w // (p * p)))
        return got

    points = draw(op["points"])
    planes = draw(op["planes"])
    # points (1, x, y, z), planes (a, b, 1, c): incident when a + bx + y + cz = 0
    inc = sum(
        1 for x, y, z in points for a, b, c in planes if (a + b * x + y + c * z) % p == 0
    )
    pr = payload["probe"]
    problems: list[str] = []
    _expect(problems, "incidences", pr["incidences"], inc)
    _expect(problems, "point_count", pr["point_count"], len(points))
    _expect(problems, "plane_count", pr["plane_count"], len(planes))
    return problems, 0


def recount(plan: dict, outdir: Path) -> dict[str, tuple[list[str], int]]:
    """Independent recounts for the seeded operations of one pass's outputs."""
    found = {}
    for op in plan["ops"]:
        name = op.get("input")
        seeded = plan["records"][name]["seeded"] if name else op.get("seeded", False)
        if not seeded:
            continue
        out = outdir / (op["id"].replace(":", "_") + ".json")
        try:
            payload = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            found[op["id"]] = ([f"no output: {exc}"], 0)
            continue
        if op["kind"] == "report":
            found[op["id"]] = check_report(plan["inputs"][name], payload)
        elif op["kind"] == "bridge":
            found[op["id"]] = check_bridge(plan["inputs"][name], payload)
        elif op["kind"] == "probe":
            found[op["id"]] = check_probe(op, payload)
    return found
