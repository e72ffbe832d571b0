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
call.  Prime fields (r == 1) use residue arithmetic directly.
Extensions build discrete exp/log tables once, from schoolbook polynomial
multiplication, and every reader of extension-field arithmetic (the
``FieldSpec`` methods, the pair loops of ``groups.pair_keys`` and the
numpy arithmetic of ``kernel.vector_field``) reads them in one layout,
``FieldSpec._log_tables``, in which no operation reduces a log or tests
for zero.  Addition in characteristic 2 is XOR on wires.  In odd
characteristic it is one Zech lookup: zech[d] = log(1 + g^d), so that
x + y = x (1 + y/x), with the table padded so that zero operands need no
test; each entry costs O(1) to build, because adding one changes only the
constant digit of a wire.  Negation is x -> x g^((q-1)/2).  Digit-by-digit
addition is left only where the exp/log tables are built.  A field of at
most ``DENSE_FIELD`` elements, prime or not, also gets dense addition,
multiplication, inverse and negation tables on first use, for the
bridge's loops in ``incidence``, which make one lookup per operation.
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


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """Remainder of ``a`` modulo a monic ``modulus``, little-endian."""
    a = list(a)
    deg_m = len(modulus) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i] % p
        if c:
            for j in range(deg_m + 1):
                a[i - deg_m + j] = (a[i - deg_m + j] - c * modulus[j]) % p
    rem = [x % p for x in a[:deg_m]]
    rem.extend(0 for _ in range(deg_m - len(rem)))
    return rem


def poly_is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree <= r/2.

    For the field sizes this package supports (q <= 2**16) the divisor space
    is tiny, so the check is exact and fast.
    """
    r = len(modulus) - 1
    if r < 1 or modulus[r] % p != 1:
        return False
    if r == 1:
        return True
    for d in range(1, r // 2 + 1):
        for w in range(p**d):
            divisor = _digits(w, p, d) + [1]
            if not any(_poly_rem(modulus, divisor, p)):
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
    def _tables(self) -> tuple[list[int], list[int]]:
        # exp/log tables over the smallest multiplicative generator.  The
        # generator test and the columns of "multiply by g" come from
        # schoolbook polynomial multiplication, so the tables inherit their
        # correctness from that path; the walk itself is F_p-linear algebra.
        n = self.q - 1
        if n == 1:
            return [1], [0, 0]
        cofactors = [n // l for l in _prime_factors(n)]
        gen = next(
            cand
            for cand in range(2, self.q)
            if all(self._polypow_wire(cand, e) != 1 for e in cofactors)
        )
        step = self._multiply_by(gen)
        exp = [0] * n
        log = [0] * self.q
        x = 1
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = step(x)
        return exp, log

    @cached_property
    def _zech(self) -> list[int]:
        # Zech logarithms over the table generator g: zech[d] = log(1 + g^d),
        # or -1 where 1 + g^d = 0.  Adding one changes only the constant
        # digit of a wire.
        exp, log = self._tables
        p = self.p
        zech = []
        for w in exp:
            c = w % p
            w1 = w - c + (c + 1) % p
            zech.append(log[w1] if w1 else -1)
        return zech

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
        None when p = 2, where x + y is x ^ y."""
        exp, log = self._tables
        n = self.q - 1
        log = list(log)
        log[0] = 2 * n
        zech = None
        if self.p != 2:
            z = [2 * n if e < 0 else e for e in self._zech]
            zech = z + [0] * (n + 1) + list(range(-2 * n, -n)) + z
        return exp * 2 + [0] * (2 * n + 1), log, zech

    def _multiply_by(self, g: int):
        """x -> x * g as an F_p-linear map, split into two digit blocks.

        Each block gets a table of the images of all its p**k digit
        patterns, so one product is two lookups and one vector addition
        (an XOR when p = 2).
        """
        p, r = self.p, self.r
        cols = [self._polymul_wire(g, p**i) for i in range(r)]
        low = r // 2
        lo_table = self._span_table(cols[:low])
        hi_table = self._span_table(cols[low:])
        split = p**low
        if p == 2:
            return lambda x: lo_table[x & (split - 1)] ^ hi_table[x >> low]
        return lambda x: _digit_add(lo_table[x % split], hi_table[x // split], p)

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

    def _polypow_wire(self, x: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._polymul_wire(out, x)
            e >>= 1
            if e:
                x = self._polymul_wire(x, x)
        return out

    def _polymul_wire(self, x: int, y: int) -> int:
        prod = _poly_mul(_digits(x, self.p, self.r), _digits(y, self.p, self.r), self.p)
        return _undigits(_poly_rem(prod, self.modulus, self.p), self.p)


# Fields up to this size get dense tables, for the bridge loops of
# ``incidence`` alone (class points, normalisation, anchor pass, line keys
# and class incidence count), which pick their arithmetic by field size:
# every field, prime or not.  Up to q = 128 the tables build in at most
# 7 ms (2.2 ms for F_101), about what they save on one 25-element T2
# bridge; from F_169 to F_256 the build takes 13-26 ms against 4-6 ms
# saved (2 vCPUs, Python 3.11).
DENSE_FIELD = 128


@cache
def _dense_tables(spec: FieldSpec) -> tuple[list[int], list[int], list[int], list[int]]:
    """x + y and x y at x q + y, and the rows 1/x q and -x q, of a small field."""
    q = spec.q
    field = range(q)
    add = [spec.add(x, y) for x in field for y in field]
    mul = [spec.mul(x, y) for x in field for y in field]
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
