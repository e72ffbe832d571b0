"""Product sets, representation counts, and multiplicative energy.

All counts here are exact integers over explicit finite sets.  The only
approximate quantity anywhere downstream is a display decimal; every
inequality this module's results feed is checked in integer or rational
arithmetic.

The energy of a set A counts solutions of g1^-1 h1 = g2^-1 h2 with all
four elements in A, i.e. the second moment of the representation function
of the quotient set A^-1 A.  ``energy`` computes it from one O(|A|^2)
counting pass; ``energy_oracle`` recounts it by brute force over
quadruples (via a pairwise-equality matrix) and exists so tests can
cross-check the fast path on small sets.

Every pair enumeration goes through ``_enumerate``, the one place that
refuses a pair count past the cap and the one place that picks a path.
A product set of nonempty X and Y with |X| + |Y| > |G| is G itself, and
is returned without enumerating a pair.  Otherwise an
n x m enumeration runs the numpy kernel of ``matgrowth.kernel`` once
numpy is loaded, or once n * m plus the pairs the pure-Python loops have
already enumerated in this process reach ``VECTOR_PAIRS``; else it runs
those loops, which feed the packed keys of ``groups.pair_keys`` into a
set or a counter.  Either path hands the sorted distinct keys to the
``GroupSet`` as they are, so no product set is decoded into wire triples
unless a caller asks for them.  ``gmul`` stays the loops' oracle.

The checks below take a ``GroupSet`` or the shared ``Products`` of one
report, which enumerates each product set at most once, and builds A's
coset keys and the slice A^-1 A n H at most once per subgroup tag.
"""

from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .config import Caps, check_pairs, check_set
from .errors import ParameterError
from .groups import T2, GroupSet, Wire, gid, ginv, gmul, group_order, numpy_loaded, pair_keys

# Pairs the loops may spend in one process before the kernel takes over,
# so a run whose enumerations total below the cutoff never loads numpy.
# Importing the kernel, which loads numpy with one BLAS thread, costs about
# what the pure-Python loops spend on this many pairs.  On a 2-vCPU VM with
# Python 3.11 and numpy 2.4 the import took 0.05-0.06 s (0.10-0.13 s with
# OpenBLAS's default thread pool).  The loops, which keep the sorted keys
# and decode nothing, took 0.37-0.43 us per pair over F_101 and F_128
# (0.52-0.57 us counting), 0.6-0.9 us over F_256 and 2.0-4.3 us for H over
# F_59049, against 0.02-0.09 us in the kernel (0.25 us for H over F_59049;
# ``scripts/kernel_rates.py``):
# break-even 116k-162k pairs over F_101 and F_128, 56k-100k over F_256 and
# 12k-30k for H over F_59049.  So the cutoff sits below the first range,
# inside the second and above the third; pricing it is open.
# Counting the pairs already spent, not only the next enumeration's, stops
# the loops once they have cost about one import (a report's many products
# just below the cutoff would each run the loops).  Once numpy is loaded,
# every enumeration runs the kernel: it takes 35-64 us against the loops'
# 14-23 us for 25 pairs of T2 over F_101, 48-80 us against 135-248 us for
# 400 and 84-136 us against 595-977 us for 1,600.
VECTOR_PAIRS = 1 << 16

# The pairs the wire loops have enumerated in this process.  Process-wide,
# like the numpy import it weighs against; it picks a path, never a result.
_loop_pairs = 0


def product_set(A: GroupSet, B: GroupSet, cap: int = Caps.max_pair_products) -> GroupSet:
    """AB = {ab : a in A, b in B}; the pair count is capped, not the result."""
    return _enumerate(A, B, cap)[0]


def power_set(A: GroupSet, k: int, cap: int = Caps.max_pair_products) -> GroupSet:
    """A^k for k >= 1 by repeated one-sided products."""
    P = Products(A, Caps(max_pair_products=cap))
    return P._climb(P._powers, k)


def symmetrized_power(A: GroupSet, k: int, cap: int = Caps.max_pair_products) -> GroupSet:
    """(A u A^-1 u {1})^k, the k-th symmetrized power."""
    return Products(A, Caps(max_pair_products=cap)).sym(k)


def rep_function(A: GroupSet, B: GroupSet, mode: str = "inverse_left") -> Counter:
    """Multiplicity of each product over A x B.

    mode "inverse_left" counts a^-1 b (the quotient-set multiplicities);
    mode "plain" counts ab.  Keys are wire triples; values sum to |A||B|.
    """
    if mode not in ("inverse_left", "plain"):
        raise ParameterError(f"unknown rep mode {mode!r}")
    X = A.inverses() if mode == "inverse_left" else A
    distinct, mults = _enumerate(X, B, Caps.max_pair_products, counts=True)
    return Counter(dict(zip(distinct, map(int, mults))))


def product_tally(A: GroupSet, B: GroupSet, cap: int) -> tuple[GroupSet, int]:
    """The distinct products over A x B, and the sum of their squared
    multiplicities, from one counting pass."""
    distinct, mults = _enumerate(A, B, cap, counts=True)
    if isinstance(mults, list):
        return distinct, sum(c * c for c in mults)
    from .kernel import second_moment

    return distinct, second_moment(mults, len(A) * len(B))


def _use_kernel(pairs: int) -> bool:
    """Whether an enumeration of ``pairs`` pairs runs the numpy kernel: once
    numpy is loaded, or once the loops' spent pairs plus these reach
    ``VECTOR_PAIRS``.  ``cosets.heaviest_line`` applies the same rule to
    its pairs of points."""
    return numpy_loaded() or _loop_pairs + pairs >= VECTOR_PAIRS


def _enumerate(X: GroupSet, Y: GroupSet, cap: int, counts: bool = False):
    """The distinct products x y over X x Y in canonical order, and their
    multiplicities in that order when ``counts`` is set (else None): a
    list from the wire loops, an int64 array from the kernel.  Refused,
    before any path runs, once |X| |Y| passes ``cap``.

    Without counts, nonempty X and Y with |X| + |Y| > |G| give all of G
    unenumerated: x^-1 g lies in Y for some x, as |X^-1 g| = |X| and
    only |G| - |Y| < |X| elements lie outside Y."""
    X.same_ambient(Y)
    check_pairs("product", len(X), len(Y), cap)
    spec, group = X.spec, X.group
    if not counts and X and Y and len(X) + len(Y) > group_order(spec, group):
        return _whole_group(spec, group), None
    if _use_kernel(len(X) * len(Y)):
        from .kernel import pair_kernel

        keys, mults = pair_kernel(X, Y, counts)
        return GroupSet(group, spec, _keys=keys), mults
    global _loop_pairs
    _loop_pairs += len(X) * len(Y)
    keys = pair_keys(spec, group, X.wires, Y.wires)
    if not counts:
        return GroupSet(group, spec, _keys=array("q", sorted(set(keys)))), None
    tally = Counter(keys)
    distinct = array("q", sorted(tally))
    return GroupSet(group, spec, _keys=distinct), [tally[k] for k in distinct]


def _whole_group(spec, group: str) -> GroupSet:
    """G as a set, its keys from a loop over the coordinates."""
    q = spec.q
    units = range(1, q) if group == T2 else range(q)
    # lexicographic order is key order
    keys = ((a * q + b) * q + c for a in units for b in range(q) for c in units)
    return GroupSet(group, spec, _keys=array("q", keys))


def energy(A: GroupSet | Products) -> int:
    """E(A) = #{(g1,h1,g2,h2) in A^4 : g1^-1 h1 = g2^-1 h2}."""
    return as_products(A).quotient_tally[1]


def product_energy(A: GroupSet | Products) -> int:
    """E*(A), the same second moment for plain products g h."""
    return as_products(A).square_tally[1]


def energy_oracle(A: GroupSet, cap: int = 60) -> int:
    """Quadruple count of E(A) done the slow direct way.

    Builds the |A|^2 vector of packed a^-1 b wires and counts coincidences
    with a pairwise-equality matrix, which is the literal quadruple
    definition.  Quadratic memory, so capped to small sets.
    """
    from .kernel import np

    n = len(A)
    check_set("energy oracle input", n, cap)
    spec = A.spec
    group = A.group
    q = spec.q
    wires = A.wires
    packed = []
    for a in wires:
        ai = ginv(spec, group, a)
        for b in wires:
            w = gmul(spec, group, ai, b)
            packed.append((w[0] * q + w[1]) * q + w[2])
    v = np.asarray(packed, dtype=np.int64)
    return int((v[:, None] == v[None, :]).sum())


class Products:
    """The product sets of one A, each built lazily and at most once.

    ``sym(k)`` is the ladder A(k) = A(k-1) A(1) with A(1) = A u A^-1 u {1};
    when A already is A(1) the two ladders coincide, so sym(2) and sym(3)
    are ``square`` and ``cube``.  Each product, counting passes included,
    refuses once its pair count passes ``caps.max_pair_products``.  The two
    counting passes keep the distinct products and their second moment,
    not the per-product counts.
    """

    def __init__(self, A: GroupSet, caps: Caps | None = None):
        self.A = A
        self.caps = caps or Caps()
        self._powers = [A]
        self._memo: dict = {}

    @cached_property
    def quotient_tally(self) -> tuple[GroupSet, int]:
        """A^-1 A and E(A), from one counting pass."""
        return product_tally(self.A.inverses(), self.A, self.caps.max_pair_products)

    @cached_property
    def square_tally(self) -> tuple[GroupSet, int]:
        """A^2 and E*(A), likewise."""
        # for A = A^-1 both passes enumerate the same multiset
        if self.A.is_symmetric:
            return self.quotient_tally
        return product_tally(self.A, self.A, self.caps.max_pair_products)

    # energy and product_energy are the module-level functions, cached
    @cached_property
    def energy(self) -> int:
        return energy(self)

    @cached_property
    def product_energy(self) -> int:
        return product_energy(self)

    @cached_property
    def quotient(self) -> GroupSet:
        return self.quotient_tally[0]

    @cached_property
    def square(self) -> GroupSet:
        return self.square_tally[0]

    @property
    def cube(self) -> GroupSet:
        return self._climb(self._powers, 3)

    def coset_keys(self, tag) -> list[tuple]:
        """The tag's coset key of each element of A, built once per tag."""
        return self.memo(("keys", tag), lambda: tag.keys(self.A))

    def fibers(self, tag) -> Counter:
        """A's fibers over the tagged subgroup's left cosets, by coset key."""
        return self.memo(("fibers", tag), lambda: Counter(self.coset_keys(tag)))

    def quotient_slice(self, tag) -> GroupSet:
        """A^-1 A n H for the tagged subgroup H, built once per tag."""
        return self.memo(("slice", tag), lambda: tag.members(self.quotient))

    def memo(self, key, build):
        """build(), run once per key for this A."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def sym(self, k: int) -> GroupSet:
        return self._climb(self._sym_powers, k)

    @cached_property
    def _sym_powers(self) -> list[GroupSet]:
        A = self.A
        return self._powers if A.has_identity and A.is_symmetric else [A.symmetrized()]

    def _climb(self, powers: list[GroupSet], k: int) -> GroupSet:
        """powers[k - 1], extending powers[j] = powers[j - 1] powers[0]."""
        if k < 1:
            raise ParameterError(f"power must be >= 1, got {k}")
        order = group_order(self.A.spec, self.A.group)
        while len(powers) < k:
            last = powers[-1]
            if len(powers) > 1 and last == powers[-2]:
                return last  # once XA = X, every later power is X
            if len(last) == order:  # G A = G, refused as that product would be
                check_pairs("product", order, len(powers[0]), self.caps.max_pair_products)
                return last
            if last is self.A:
                powers.append(self.square)
            else:
                powers.append(product_set(last, powers[0], cap=self.caps.max_pair_products))
        return powers[k - 1]


def as_products(A: GroupSet | Products) -> Products:
    """The shared ``Products`` of a caller, or fresh ones for a bare set."""
    return A if isinstance(A, Products) else Products(A)


def tripling_constant(A: GroupSet | Products) -> Fraction:
    """K = |A^3| / |A| as an exact fraction."""
    P = as_products(A)
    if len(P.A) == 0:
        raise ParameterError("tripling of an empty set")
    return Fraction(len(P.cube), len(P.A))


class LemmaPart(NamedTuple):
    """One inequality of the tripling lemma: lhs <= rhs, and whether it holds."""

    name: str
    holds: bool
    lhs: int
    rhs: int
    note: str = ""


class LemmaReport(NamedTuple):
    """The lemma's checked parts and the sizes of the powers they read."""

    parts: tuple[LemmaPart, ...]
    sizes: dict[str, int]

    @property
    def all_hold(self) -> bool:
        return all(p.holds for p in self.parts)


def tripling_lemma_check(A: GroupSet | Products, k: int = 3) -> LemmaReport:
    """Exact verification of the symmetrized-power growth inequalities.

    Checked parts, writing A(k) for the k-th symmetrized power:
      three_step:  |A(3)| * |A|^2  <=  27 * |A^3|^3
      k_step:      |A(k)| * |A(1)|^(k-3)  <=  |A(3)|^(k-2)   (for k >= 3)

    The k_step inequality is only asserted for k >= 3 (it is the iterated
    triangle inequality and needs at least one full step); for smaller k
    it is reported as vacuously true with a note.
    """
    P = as_products(A)
    n = len(P.A)
    if n == 0:
        raise ParameterError("lemma check on an empty set")
    sym1 = P.sym(1)
    sym3 = P.sym(3)
    cube = P.cube
    sizes = {"sym1": len(sym1), "sym3": len(sym3), "cube": len(cube)}
    parts = [
        LemmaPart(
            name="three_step",
            holds=len(sym3) * n * n <= 27 * len(cube) ** 3,
            lhs=len(sym3) * n * n,
            rhs=27 * len(cube) ** 3,
        )
    ]
    if k >= 3:
        symk = P.sym(k)
        sizes[f"sym{k}"] = len(symk)
        lhs = len(symk) * len(sym1) ** (k - 3)
        rhs = len(sym3) ** (k - 2)
        parts.append(LemmaPart(name=f"k_step[{k}]", holds=lhs <= rhs, lhs=lhs, rhs=rhs))
    else:
        parts.append(
            LemmaPart(
                name=f"k_step[{k}]",
                holds=True,
                lhs=0,
                rhs=0,
                note="vacuous below k=3",
            )
        )
    return LemmaReport(parts=tuple(parts), sizes=sizes)


def quotient_set(A: GroupSet, cap: int = Caps.max_pair_products) -> GroupSet:
    """A^-1 A as a set."""
    return product_set(A.inverses(), A, cap=cap)


def coset_count_check(B: GroupSet | Products, tag) -> tuple[bool, int, int]:
    """|B| <= #left-cosets of the tagged subgroup met by B, times the
    largest coset fiber.  Returns (holds, coset_count * max_fiber, |B|);
    for ``Products`` B is A, and its fibers are A's memoised ones."""
    if isinstance(B, Products):
        S, fibers = B.A, B.fibers(tag)
        cosets, top = len(fibers), max(fibers.values(), default=0)
    else:
        S, (cosets, top) = B, tag.occupancy(B)
    return len(S) <= cosets * top, cosets * top, len(S)


def orbit_stabilizer_check(A: GroupSet | Products, B: GroupSet, tag) -> tuple[bool, int, int]:
    """|AB| >= |H n B| * #(distinct cosets AH), the set-level
    orbit-stabiliser inequality.  Returns (holds, |AB|, bound)."""
    P = as_products(A)
    P.A.same_ambient(B)
    bound = len(tag.members(B)) * len(P.fibers(tag))
    AB = P.square if B == P.A else product_set(P.A, B, cap=P.caps.max_pair_products)
    return len(AB) >= bound, len(AB), bound


def intersection_power_check(A: GroupSet | Products, tag, k: int) -> tuple[bool, int, int]:
    """With B = A^-1 A n H: |B^k| <= |A(2k) n H|.

    Returns (holds, |B^k|, |A(2k) n H|).
    """
    if k < 1:
        raise ParameterError(f"power must be >= 1, got {k}")
    P = as_products(A)
    B = P.quotient_slice(tag)
    if len(B) == 0:
        return True, 0, 0
    Bk = power_set(B, k, cap=P.caps.max_pair_products)
    cut = len(tag.members(P.sym(2 * k)))
    return len(Bk) <= cut, len(Bk), cut


def covering_check(A: GroupSet | Products, tag) -> tuple[bool, int]:
    """A is covered by per-coset translates of A^-1 A n N, for normal N.

    Picks one representative per N-coset met by A and verifies
    A <= reps * ((A^-1 A n N) u {1}) elementwise.  The core lies in N, so
    a is covered iff r^-1 a is in it for the representative r of a's own
    coset: at most |A| products.  Returns (holds, #reps).
    """
    P = as_products(A)
    spec, group = P.A.spec, P.A.group
    if not tag.is_normal:
        raise ParameterError(f"covering check needs a normal subgroup, not {tag.kind}")
    core = set(P.quotient_slice(tag)) | {gid(group)}
    reps: dict[tuple, Wire] = {}
    holds = True
    for a, key in zip(P.A, P.coset_keys(tag)):
        r = reps.setdefault(key, a)
        if r is not a:  # a representative covers itself: r^-1 r = 1
            holds = holds and gmul(spec, group, ginv(spec, group, r), a) in core
    return holds, len(reps)
