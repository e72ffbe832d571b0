"""Exact arithmetic in finite fields F_{p^r} with explicit moduli.

A field is described by a prime ``p``, an extension degree ``r``, and a
monic irreducible modulus of degree ``r`` over F_p, stored little-endian
(``modulus[i]`` is the coefficient of ``t**i``).  Elements are coefficient
vectors in reduced form; the canonical integer serialization of an element
("wire form") is ``sum(coeffs[i] * p**i)``, which is a bijection onto
``range(p**r)``.

The package computes on wire forms only: ``FieldSpec`` does the arithmetic
on them, and a subfield (``SubfieldSpec``) is the sorted tuple of its
wires, read off the exp table.  ``FieldElement`` survives only as the
entry type of a subfield's read-only ``embedding`` view.  The modulus of
``standard_field(q)`` is always ``default_modulus``, computed on each
call; every modulus is checked by Ben-Or's irreducibility test, which
refuses a reducible one at the degree of its smallest factor (exhaustive
trial division is its oracle in the tests).  Prime fields (r == 1) use residue
arithmetic directly.  Extensions build discrete exp/log tables once: the
generator is tested by schoolbook polynomial products on coefficient
lists, and one walk over its powers writes the one layout that every
reader of extension-field arithmetic (the ``FieldSpec`` methods, the pair
loops of ``groups.pair_keys`` and the numpy arithmetic of
``kernel.vector_field``) reads, ``FieldSpec._log_tables``, in which no
operation reduces a log or tests for zero.  Addition in characteristic 2
is XOR on wires.  In odd characteristic it is one Zech lookup: zech[d] =
log(1 + g^d), so that x + y = x (1 + y/x), with the table padded so that
zero operands need no test; each entry costs O(1) to build, because
adding one changes only the constant digit of a wire.  Negation is x ->
x g^((q-1)/2).  Digit-by-digit addition is left only where the exp/log
tables are built.  A field of at most ``DENSE_FIELD`` elements, prime or
not, also gets dense addition, multiplication, inverse and negation
tables on first use, built a row at a time from the residues or the
table layout, for the bridge's loops in ``incidence``, which make one
lookup per operation.
Everything is exact integer arithmetic; there is no floating point
anywhere in this module.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import Iterable, Sequence

from .config import Caps, check_set, json_typed
from .errors import ParameterError

# Fields larger than this are out of scope: table construction and the
# exhaustive checks used elsewhere assume desk-scale q.
MAX_FIELD_SIZE = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division (n is desk-scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """a b modulo the monic ``modulus`` of degree r, on little-endian lists
    of r coefficients: the schoolbook product that field set-up computes by."""
    r = len(modulus) - 1
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for i in range(2 * r - 2, r - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(r):
                prod[i - r + j] -= c * modulus[j]
    return [c % p for c in prod[:r]]


def _poly_powmod(a: Sequence[int], e: int, modulus: Sequence[int], p: int) -> list[int]:
    """a ** e modulo ``modulus``, by square-and-multiply on ``_poly_mulmod``."""
    out = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, modulus, p)
        e >>= 1
        if e:
            a = _poly_mulmod(a, a, modulus, p)
    return out


def _poly_coprime(a: list[int], b: list[int], p: int) -> bool:
    """Whether the gcd of a and b over F_p is a nonzero constant (b != 0).
    Euclid's algorithm on little-endian lists; it consumes both."""
    while a and a[-1] == 0:
        a.pop()
    while a:
        inv = pow(a[-1], -1, p)
        while len(b) >= len(a):  # b mod a, one leading term at a time
            c = b[-1] * inv % p
            shift = len(b) - len(a)
            for j in range(len(a) - 1):
                b[shift + j] = (b[shift + j] - c * a[j]) % p
            b.pop()
            while b and b[-1] == 0:
                b.pop()
        a, b = b, a
    return len(b) == 1


def poly_is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Ben-Or's test (1981): a monic f of degree r over F_p is irreducible
    iff gcd(x^(p^i) - x, f) = 1 for i = 1, ..., r/2.

    Any factor of f of degree i divides x^(p^i) - x, so a reducible f is
    refused at the degree of its smallest irreducible factor.  Exhaustive
    trial division is its oracle in the tests.
    """
    r = len(modulus) - 1
    if r < 1 or modulus[r] % p != 1:
        return False
    modulus = [c % p for c in modulus]
    h = [0, 1] + [0] * (r - 2)  # x mod f, for r >= 2
    for _ in range(r // 2):
        h = _poly_powmod(h, p, modulus, p)
        h_minus_x = list(h)
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        if not _poly_coprime(h_minus_x, list(modulus), p):
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _digits(x: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds: Sequence[int], p: int) -> int:
    out = 0
    for d in reversed(ds):
        out = out * p + d
    return out


def _digit_add(x: int, y: int, p: int) -> int:
    """x + y digit by digit in base p (XOR when p = 2): the sum the field
    tables are built from."""
    if p == 2:
        return x ^ y
    out = 0
    mult = 1
    while x or y:
        out += ((x + y) % p) * mult
        x //= p
        y //= p
        mult *= p
    return out


class FieldSpec:
    """Immutable description of F_{p^r}; also the arithmetic engine.

    Its methods (``add``, ``mul``, ``inv``, ...) take and return integer
    wire forms; a field element is its wire everywhere in the package.
    """

    def __init__(self, p: int, r: int, modulus: Sequence[int]):
        if r < 1:
            raise ParameterError(f"extension degree r = {r} must be >= 1")
        # bound the size before p^r or trial division of p can take long
        if r > 16 or p**r > MAX_FIELD_SIZE:  # q <= 2^16 forces r <= 16
            raise ParameterError(f"field size {p}^{r} exceeds supported maximum {MAX_FIELD_SIZE}")
        if not is_prime(p):
            raise ParameterError(f"p = {p} is not prime")
        q = p**r
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != r + 1:
            raise ParameterError(f"modulus must have length r + 1 = {r + 1}, got {len(modulus)}")
        if any(c < 0 or c >= p for c in modulus):
            raise ParameterError("modulus coefficients must be residues in [0, p)")
        if modulus[r] != 1:
            raise ParameterError("modulus must be monic")
        if not poly_is_irreducible(modulus, p):
            raise ParameterError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.r = r
        self.modulus = modulus
        self.q = q

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.p, self.r, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, r={self.r}, modulus={list(self.modulus)})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, obj: dict) -> "FieldSpec":
        try:
            p, r = json_typed(obj["p"], int, "field p"), json_typed(obj["r"], int, "field r")
            return cls(p, r, [json_typed(c, int, "modulus coefficient") for c in obj["modulus"]])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"malformed field description: {obj!r}") from exc

    # -- wire-level arithmetic -------------------------------------------

    def check_wire(self, x: int) -> int:
        if not isinstance(x, int) or x < 0 or x >= self.q:
            raise ParameterError(f"wire value {x!r} out of range for q = {self.q}")
        return x

    def add(self, x: int, y: int) -> int:
        if self.r == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        exp, log, zech = self._log_tables
        lx = log[x]
        return exp[lx + zech[log[y] - lx]]

    def neg(self, x: int) -> int:
        if self.r == 1:
            return (-x) % self.p
        if self.p == 2:
            return x
        exp, log, _ = self._log_tables
        # -1 = g^((q-1)/2) in odd characteristic
        return exp[log[x] + (self.q - 1) // 2]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.r == 1:
            return (x * y) % self.p
        exp, log, _ = self._log_tables
        return exp[log[x] + log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.r == 1:
            return pow(x, -1, self.p)
        exp, log, _ = self._log_tables
        return exp[self.q - 1 - log[x]]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def power(self, x: int, e: int) -> int:
        if e < 0:
            return self.power(self.inv(x), -e)
        if x == 0:
            return 1 if e == 0 else 0
        if self.r == 1:
            return pow(x, e, self.p)
        exp, log, _ = self._log_tables
        return exp[log[x] * e % (self.q - 1)]

    @cached_property
    def _log_tables(self) -> tuple[list[int], list[int], list[int] | None]:
        """The one table layout of extension-field arithmetic, (exp, log,
        zech), laid out so that no operation reduces a log or tests for
        zero.  With n = q - 1, ``exp`` is the exp table twice over, then
        2n + 1 zeros, and ``log`` has log 0 = 2n, so x y = exp[log x +
        log y] and 1/x = exp[n - log x] for every x (x != 0 for 1/x).

        In odd characteristic x + y = exp[log x + zech[log y - log x]] for
        every x and y, a negative index read from the end of ``zech``'s
        4n + 1 entries.  For d = log y - log x, zech[d] is the Zech log
        log(1 + g^d) where |d| < n, or 2n, into the zero tail, where
        1 + g^d = 0; 0 where d > n (y = 0); and d itself where d < -n
        (x = 0), so the sum reads exp[log y].  x = y = 0 gives d = 0,
        whose entry log 2 sends the sum into the zero tail.  ``zech`` is
        None when p = 2, where x + y is x ^ y.

        The generator g is the least wire of order n, tested by one power
        per prime factor of n on coefficient lists.  One walk over its
        powers fills ``exp`` and ``log`` in place: multiplying by g is
        F_p-linear, so each step is two lookups in tables of the images
        of the low and high digit blocks, added by XOR when p = 2 and
        digit by digit otherwise.
        """
        p, r, q = self.p, self.r, self.q
        n = q - 1
        modulus = self.modulus
        one = [1] + [0] * (r - 1)
        cofactors = [n // l for l in _prime_factors(n)]

        def is_generator(g: list[int]) -> bool:
            return all(_poly_powmod(g, e, modulus, p) != one for e in cofactors)

        candidates = (_digits(cand, p, r) for cand in range(2, q))
        gen = next(filter(is_generator, candidates), one)  # q = 2 has no candidate: g = 1
        cols = [_undigits(_poly_mulmod(gen, _digits(p**i, p, r), modulus, p), p) for i in range(r)]
        low = r // 2
        lo, hi = self._span_table(cols[:low]), self._span_table(cols[low:])
        exp = [0] * (4 * n + 1)
        log = [2 * n] * q
        x = 1
        if p == 2:
            mask = (1 << low) - 1
            for i in range(n):
                exp[i] = x
                log[x] = i
                x = lo[x & mask] ^ hi[x >> low]
        else:
            split = p**low
            for i in range(n):
                exp[i] = x
                log[x] = i
                x = _digit_add(lo[x % split], hi[x // split], p)
        exp[n : 2 * n] = exp[:n]
        if p == 2:
            return exp, log, None
        z = _zech_logs(exp, log, p, n)
        return exp, log, z + [0] * (n + 1) + list(range(-2 * n, -n)) + z

    @cached_property
    def _tables(self) -> tuple[list[int], list[int]]:
        """exp and log over the table generator g, read off ``_log_tables``:
        exp[i] = g^i for 0 <= i < q - 1, and log[x] with log 0 = 0."""
        exp, log, _ = self._log_tables
        return exp[: self.q - 1], [0, *log[1:]]

    @cached_property
    def _zech(self) -> list[int]:
        """Zech logs over the table generator g, read off ``_log_tables``:
        zech[d] = log(1 + g^d) for 0 <= d < q - 1, or -1 where 1 + g^d = 0."""
        exp, log, _ = self._log_tables
        n = self.q - 1
        return [-1 if z == 2 * n else z for z in _zech_logs(exp, log, self.p, n)]

    def _span_table(self, cols: Sequence[int]) -> list[int]:
        """table[v] = sum_j v_j * cols[j] for every digit vector v (as a wire)."""
        p = self.p
        table = [0]
        for col in cols:
            multiples = [col]
            for _ in range(p - 2):
                multiples.append(_digit_add(multiples[-1], col, p))
            table = table + [_digit_add(t, m, p) for m in multiples for t in table]
        return table


def _zech_logs(exp: list[int], log: list[int], p: int, n: int) -> list[int]:
    """log(1 + g^d) for d < n, read off the table layout: 2n, the log of
    zero, where 1 + g^d = 0.  Adding one changes only the constant digit
    of a wire."""
    return [log[w + 1 - p if w % p == p - 1 else w + 1] for w in exp[:n]]


# Fields up to this size get dense tables, for the bridge loops of
# ``incidence`` alone (class points, normalisation, anchor pass, line keys
# and class incidence count), which pick their arithmetic by field size:
# every field, prime or not.  Built from 2q^2 field calls, the tables
# took up to 7 ms up to q = 128 (2.2 ms for F_101), about what they save
# on one 25-element T2 bridge, and 13-26 ms from F_169 to F_256 against
# 4-6 ms saved.  Built a row at a time, with the field's table layout
# already in place, they take at most 1.0-1.8 ms up to q = 128
# (0.5-0.8 ms for F_101) and 1.9-5.2 ms from F_169 to F_256 (2 vCPUs,
# Python 3.11).
DENSE_FIELD = 128


@cache
def _dense_tables(spec: FieldSpec) -> tuple[list[int], list[int], list[int], list[int]]:
    """x + y and x y at x q + y, and the rows 1/x q and -x q, of a small field.

    A prime field's addition row x is the residues rotated by x; an
    extension field's rows read the table layout, with log 0 = 2n landing
    every product with zero in the zero tail."""
    q = spec.q
    field = range(q)
    if spec.r == 1:
        add = []
        for x in field:
            add += range(x, q)
            add += range(x)
        mul = [x * y % q for x in field for y in field]
    else:
        exp, log, zech = spec._log_tables
        mul = [exp[lx + ly] for lx in log for ly in log]
        if zech is None:
            add = [x ^ y for x in field for y in field]
        else:
            add = [exp[lx + zech[ly - lx]] for lx in log for ly in log]
    inv_row = [0] + [spec.inv(x) * q for x in range(1, q)]
    neg_row = [spec.neg(x) * q for x in field]
    return add, mul, inv_row, neg_row


class FieldElement:
    """One entry of :attr:`SubfieldSpec.embedding`: a wire with its field.

    It carries no arithmetic: compute on the wires with the
    :class:`FieldSpec` methods.
    """

    __slots__ = ("spec", "wire")

    def __init__(self, spec: FieldSpec, wire: int):
        self.spec = spec
        self.wire = wire


# -- default moduli -------------------------------------------------------

def default_modulus(p: int, r: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree r over F_p, by wire order.

    "Smallest" means the lowest integer serialization of the non-leading
    coefficients, so the choice is deterministic and reproducible.
    """
    for w in range(p**r):
        cand = tuple(_digits(w, p, r)) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("irreducible polynomial exists for every (p, r)")


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ParameterError(f"not a prime power: {q}")
    if q > MAX_FIELD_SIZE:
        raise ParameterError(f"field size {q} exceeds supported maximum {MAX_FIELD_SIZE}")
    p = q
    for f in range(2, q + 1):
        if f * f > q:
            break
        if q % f == 0:
            p = f
            break
    r = 0
    n = q
    while n % p == 0:
        n //= p
        r += 1
    if n != 1:
        raise ParameterError(f"not a prime power: {q}")
    return p, r


def standard_field(q: int) -> FieldSpec:
    """F_q with the default modulus."""
    p, r = _prime_power(q)
    if r == 1:
        return FieldSpec(p, 1, (0, 1))
    return FieldSpec(p, r, default_modulus(p, r))


# -- subfields ------------------------------------------------------------

class SubfieldSpec:
    """The subfield of size p**degree of an ambient field, as its sorted wires."""

    def __init__(self, ambient: FieldSpec, degree: int, wires: Iterable[int]):
        self.ambient = ambient
        self.degree = degree
        self.wires = tuple(sorted(wires))
        self.size = ambient.p**degree
        if len(self.wires) != self.size:
            raise ParameterError(f"subfield has {len(self.wires)} elements, expected {self.size}")

    @property
    def embedding(self) -> tuple:
        """The wires, each paired with the ambient field."""
        return tuple(FieldElement(self.ambient, w) for w in self.wires)


def element_degree(spec: FieldSpec, x: int) -> int:
    """Degree over the prime field: the least s | r with x**(p**s) == x."""
    return next(
        s for s in range(1, spec.r + 1) if spec.r % s == 0 and spec.power(x, spec.p**s) == x
    )


def subfield_of_degree(spec: FieldSpec, s: int) -> SubfieldSpec:
    """The unique subfield of size p**s (s must divide r).

    It is 0 and the powers of g**((q - 1)/(p**s - 1)) for the table
    generator g, read off the exp table; for s = r it is the whole field.
    """
    if s < 1 or spec.r % s != 0:
        raise ParameterError(f"degree {s} does not divide extension degree {spec.r}")
    if s == spec.r:
        return SubfieldSpec(spec, s, range(spec.q))
    step = (spec.q - 1) // (spec.p**s - 1)
    return SubfieldSpec(spec, s, [0, *spec._tables[0][::step]])


def subfield_generated_by(spec: FieldSpec, xs: Iterable[int]) -> SubfieldSpec:
    """Smallest subfield containing every given wire: its degree is the lcm
    of their degrees."""
    degrees = {element_degree(spec, x) for x in xs}
    if not degrees:
        raise ParameterError("need at least one element")
    return subfield_of_degree(spec, math.lcm(*degrees))


def span_over_subfield(
    xs: Iterable[int],
    sub: SubfieldSpec,
    cap: int = Caps.max_set_elements,
) -> tuple[int, ...]:
    """Closure of {0} + sub * x over every wire x: the sub-linear span inside F_q.

    The result size is |sub| ** d for d independent inputs; the cap guards
    the blowup before each expansion step.
    """
    xs = sorted(xs)
    if not xs:
        raise ParameterError("need at least one element")
    spec = sub.ambient
    span = {0}
    for x in xs:
        if x in span:
            continue
        check_set("subfield span", len(span) * sub.size, cap, partial_size=len(span))
        span = {spec.add(s, spec.mul(f, x)) for s in span for f in sub.wires}
    return tuple(sorted(span))
