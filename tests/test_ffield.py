"""Field arithmetic, the pinned default moduli, and subfields."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import F5, F7, F9, F16, F25
from matgrowth import ffield
from matgrowth.errors import CapExceeded, ParameterError
from matgrowth.ffield import (
    DENSE_FIELD,
    MAX_FIELD_SIZE,
    FieldSpec,
    _dense_tables,
    _digit_add,
    default_modulus,
    element_degree,
    is_prime,
    poly_is_irreducible,
    span_over_subfield,
    standard_field,
    subfield_generated_by,
    subfield_of_degree,
)
from matgrowth.kernel import vector_field
from oracles import (
    coeffs,
    field_tables_by_order_walk,
    from_coeffs,
    frobenius_fixed,
    irreducible_by_trial_division,
    schoolbook_mul,
)

# The moduli standard_field has always given the extension fields up to
# q = 256: a moved modulus would change the set files gen writes.
SHIPPED_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1),
    121: (1, 0, 1),
    125: (1, 1, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
    169: (2, 0, 1),
    243: (1, 2, 0, 0, 0, 1),
    256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


def _factor(q):
    p = next(f for f in range(2, q + 1) if q % f == 0)
    r = 0
    while q > 1:
        q //= p
        r += 1
    return p, r


def test_shipped_moduli_match_default_rule():
    # standard_field keeps the moduli it has always shipped
    for q, coeffs in sorted(SHIPPED_MODULI.items()):
        p, r = _factor(q)
        assert default_modulus(p, r) == coeffs, q
        assert standard_field(q).modulus == coeffs, q


def test_shipped_moduli_are_monic_irreducible():
    for q, coeffs in SHIPPED_MODULI.items():
        p, r = _factor(q)
        assert len(coeffs) == r + 1
        assert coeffs[-1] == 1
        assert poly_is_irreducible(coeffs, p)


@pytest.mark.parametrize("p, top", [(2, 8), (3, 5), (5, 3), (7, 3), (251, 2)])
def test_ben_or_agrees_with_trial_division(p, top):
    # every monic polynomial of degree 1 to top over F_p
    for r in range(1, top + 1):
        ws = range(p**r)
        want = irreducible_by_trial_division(p, r, ws)
        got = [poly_is_irreducible([w // p**i % p for i in range(r)] + [1], p) for w in ws]
        assert got == want, r


def test_default_modulus_is_the_least_irreducible_by_trial_division():
    # for every prime power up to 2^16: standard_field's modulus, and so
    # the set files gen writes, does not depend on the irreducibility test
    powers = [
        (p, r)
        for p in filter(is_prime, range(2, MAX_FIELD_SIZE + 1))
        for r in range(1, 17)
        if p**r <= MAX_FIELD_SIZE
    ]
    assert len(powers) == 6542 + 93  # primes, and extension fields
    for p, r in powers:
        chunks = (range(start, min(start + 64, p**r)) for start in range(0, p**r, 64))
        least = next(
            w
            for ws in chunks
            for w, ok in zip(ws, irreducible_by_trial_division(p, r, ws))
            if ok
        )
        assert default_modulus(p, r) == tuple(least // p**i % p for i in range(r)) + (1,), (p, r)


def test_standard_field_prime():
    assert F7.p == 7 and F7.r == 1 and F7.q == 7
    assert F7.modulus == (0, 1)
    assert F7.add(3, 5) == 1
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    assert F7.neg(0) == 0


def test_f9_arithmetic_by_hand():
    # modulus 1 + t^2, so t^2 = 2 and t^(-1) = 2t
    t = from_coeffs(F9, (0, 1))
    assert t == 3
    assert F9.mul(t, t) == 2
    assert F9.inv(t) == from_coeffs(F9, (0, 2))
    assert F9.power(t, F9.p) == F9.mul(F9.mul(t, t), t)


def test_spec_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        FieldSpec(6, 1, (0, 1))  # composite p
    with pytest.raises(ParameterError):
        FieldSpec(3, 2, (1, 0, 2))  # not monic
    with pytest.raises(ParameterError):
        FieldSpec(3, 2, (0, 0, 1))  # t^2 reducible
    with pytest.raises(ParameterError):
        FieldSpec(3, 0, (1,))
    with pytest.raises(ParameterError):
        standard_field(12)


def test_json_round_trip():
    for spec in (F5, F9, F16, F25):
        again = FieldSpec.from_json(spec.to_json())
        assert again == spec
        assert hash(again) == hash(spec)


@pytest.mark.parametrize(
    "key, value", [("p", "7"), ("p", 7.0), ("r", True), ("modulus", [1, 0.0, 1])]
)
def test_json_needs_json_integers(key, value):
    obj = dict(F9.to_json(), **{key: value})
    with pytest.raises(ParameterError, match="must be a JSON int"):
        FieldSpec.from_json(obj)


@pytest.mark.parametrize("spec", [F9, F16, F25])
def test_mul_matches_schoolbook(spec):
    for x in range(spec.q):
        for y in range(spec.q):
            assert spec.mul(x, y) == schoolbook_mul(spec, x, y)


@given(st.data())
def test_field_axioms(data):
    spec = data.draw(st.sampled_from([F5, F9, F16, F25]))
    q = spec.q
    x = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1))
    z = data.draw(st.integers(0, q - 1))
    assert spec.add(x, y) == spec.add(y, x)
    assert spec.mul(x, y) == spec.mul(y, x)
    assert spec.add(spec.add(x, y), z) == spec.add(x, spec.add(y, z))
    assert spec.mul(spec.mul(x, y), z) == spec.mul(x, spec.mul(y, z))
    assert spec.mul(x, spec.add(y, z)) == spec.add(spec.mul(x, y), spec.mul(x, z))
    assert spec.add(x, spec.neg(x)) == 0
    assert spec.sub(x, y) == spec.add(x, spec.neg(y))
    if x:
        assert spec.mul(x, spec.inv(x)) == 1
        assert spec.div(y, x) == spec.mul(y, spec.inv(x))


@given(st.data())
def test_power_and_frobenius(data):
    spec = data.draw(st.sampled_from([F9, F16, F25]))
    x = data.draw(st.integers(0, spec.q - 1))
    e = data.draw(st.integers(0, 12))
    acc = 1
    for _ in range(e):
        acc = spec.mul(acc, x)
    assert spec.power(x, e) == acc
    y = data.draw(st.integers(0, spec.q - 1))
    # frobenius, x -> x^p, is an additive homomorphism fixing the prime field
    p = spec.p
    assert spec.power(spec.add(x, y), p) == spec.add(spec.power(x, p), spec.power(y, p))
    c = data.draw(st.integers(0, spec.p - 1))
    assert spec.power(c, p) == c


def test_prime_field_inverses():
    # every unit of F_2..F_101, and a sample of F_65521
    for p in filter(is_prime, range(2, 102)):
        spec = standard_field(p)
        assert all(x * spec.inv(x) % p == 1 for x in range(1, p))
    spec = standard_field(65521)
    for x in [1, 2, 65520, *random.Random(7).sample(range(1, 65521), 500)]:
        assert x * spec.inv(x) % 65521 == 1
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError):
        F9.div(3, 0)


def test_element_operators():
    # an embedding entry pairs a wire with its field, and has no arithmetic
    a = subfield_of_degree(F9, 1).embedding[1]
    assert (a.spec, a.wire) == (F9, 1)
    with pytest.raises(TypeError):
        a + a


def test_element_degree_layers():
    # F16 contains F4 (degree 2) and F2 (degree 1)
    degrees = sorted({element_degree(F16, w) for w in range(16)})
    assert degrees == [1, 2, 4]
    assert element_degree(F16, 0) == 1
    assert element_degree(F16, 1) == 1
    assert {w for w in range(16) if element_degree(F16, w) <= 2} == set(
        subfield_of_degree(F16, 2).wires
    )


def test_subfield_of_degree():
    f4 = subfield_of_degree(F16, 2)
    assert f4.size == len(f4.wires) == 4
    assert list(f4.wires) == sorted(f4.wires)
    for x in f4.wires:
        # fixed by the square of frobenius
        assert F16.power(x, F16.p**2) == x
    assert [e.wire for e in f4.embedding] == list(f4.wires)
    for s in (0, 3):
        with pytest.raises(ParameterError):
            subfield_of_degree(F16, s)


def _is_prime_power(q):
    p, r = _factor(q)
    return p**r == q


@pytest.mark.parametrize("q", [q for q in range(2, 257) if _is_prime_power(q)] + [59049, 65536])
def test_subfield_of_degree_is_the_frobenius_fixed_set(q):
    spec = standard_field(q)
    for s in range(1, spec.r + 1):
        if spec.r % s == 0:
            assert subfield_of_degree(spec, s).wires == frobenius_fixed(spec, s), s


def test_subfield_generated_by():
    gen = subfield_generated_by(F16, [1])
    assert gen.degree == 1 and gen.size == 2
    # the lcm of the degrees: two elements of degree 2 stay in F4
    f4 = subfield_of_degree(F16, 2).wires
    assert subfield_generated_by(F16, f4).degree == 2
    # an element of degree 4 generates everything
    top = next(w for w in range(16) if element_degree(F16, w) == 4)
    assert subfield_generated_by(F16, [1, top]).wires == tuple(range(16))
    with pytest.raises(ParameterError):
        subfield_generated_by(F16, [])


def test_span_over_subfield():
    f4 = subfield_of_degree(F16, 2)
    assert span_over_subfield([1], f4) == f4.wires
    # spans are F-submodules: closed under addition and scaling
    wires = set(span_over_subfield([6, 9], f4))
    assert 0 in wires
    for u in wires:
        for v in wires:
            assert F16.add(u, v) in wires
        for s in f4.wires:
            assert F16.mul(s, u) in wires
    with pytest.raises(ParameterError):
        span_over_subfield([], f4)
    with pytest.raises(CapExceeded):
        span_over_subfield([6, 9], f4, cap=15)


@pytest.mark.parametrize("q", sorted(SHIPPED_MODULI))
def test_tables_match_the_order_walk(q):
    assert standard_field(q)._tables == field_tables_by_order_walk(standard_field(q))


@pytest.mark.parametrize("q", sorted(SHIPPED_MODULI))
def test_log_tables_are_the_order_walk_in_one_layout(q):
    # the layout every reader of extension-field arithmetic reads: the exp
    # table twice over, then 2n + 1 zeros, log 0 = 2n, and in odd
    # characteristic the Zech logs padded for zero operands
    spec = standard_field(q)
    walk_exp, walk_log = field_tables_by_order_walk(spec)
    n = q - 1
    exp, log, zech = spec._log_tables
    assert exp == walk_exp * 2 + [0] * (2 * n + 1)
    assert log == [2 * n] + walk_log[1:]
    if spec.p == 2:
        assert zech is None
        return
    one_more = [_digit_sum(spec, w, 1) for w in walk_exp]
    logs = [walk_log[w] if w else 2 * n for w in one_more]  # log(1 + g^d), 2n at zero
    assert len(zech) == 4 * n + 1
    # |d| < n: the Zech log; d >= n: 0 (y = 0); d < -n: d (x = 0)
    assert zech[:n] == zech[3 * n + 1 :] == logs
    assert zech[n : 2 * n + 1] == [0] * (n + 1)
    assert zech[2 * n + 1 : 3 * n + 1] == list(range(-2 * n, -n))


def _digit_sum(spec, x, y, sign=1):
    """x + sign * y coefficient by coefficient, reduced mod p."""
    return from_coeffs(spec, [a + sign * b for a, b in zip(coeffs(spec, x), coeffs(spec, y))])


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 125, 243])
def test_zech_add_neg_sub_match_digit_arithmetic(q):
    # every pair of the field, zeros included, against arithmetic on the
    # base-p digits: the field's own methods and the kernel's arrays, which
    # read the same table layout, array + array and wire + array (the form
    # ``SubgroupTag._forms`` gives its parameters)
    spec, f = standard_field(q), vector_field(standard_field(q))
    field = np.arange(q, dtype=np.int64)
    negs = [_digit_sum(spec, 0, x, -1) for x in range(q)]
    sums = [[_digit_sum(spec, x, y) for y in range(q)] for x in range(q)]
    differences = [[_digit_sum(spec, x, y, -1) for y in range(q)] for x in range(q)]
    assert [spec.neg(x) for x in range(q)] == f.neg(field).tolist() == negs
    for x in range(q):
        assert [spec.add(x, y) for y in range(q)] == f.add(x, field).tolist() == sums[x]
        assert [spec.sub(x, y) for y in range(q)] == f.sub(x, field).tolist() == differences[x]
    xs, ys = np.repeat(field, q), np.tile(field, q)
    assert f.add(xs, ys).tolist() == [s for row in sums for s in row]
    assert f.sub(xs, ys).tolist() == [d for row in differences for d in row]


@pytest.mark.parametrize("q", [243, 2187, 59049])
def test_every_zech_entry_matches_the_digit_add(q):
    # zech[d] = log(1 + g^d), or -1 where 1 + g^d = 0: one wrong entry
    # breaks only the sums that reach it, which sampled sums can miss
    spec = standard_field(q)
    exp, log = spec._tables
    want = []
    for w in exp:
        s = _digit_add(w, 1, spec.p)
        want.append(log[s] if s else -1)
    assert spec._zech == want


@pytest.mark.parametrize("q", [65536, 59049])
def test_tables_at_the_top_of_the_range(q):
    spec = standard_field(q)
    exp, log = spec._tables
    assert len(exp) == q - 1 and len(log) == q
    assert all(log[x] == i for i, x in enumerate(exp))
    rng = random.Random(q)
    for _ in range(300):
        x, y = rng.randrange(q), rng.randrange(q)
        assert spec.mul(x, y) == schoolbook_mul(spec, x, y)
        assert spec.add(x, y) == _digit_sum(spec, x, y)
        assert spec.sub(x, y) == _digit_sum(spec, x, y, -1)


@pytest.mark.parametrize("q", [2, 7, 101, 127, 4, 9, 25, 121, 128])
def test_dense_tables_match_the_field_arithmetic(q):
    # every entry, prime fields included: the bridge's pair loops read
    # these tables over every field of at most DENSE_FIELD elements
    assert q <= DENSE_FIELD
    spec = standard_field(q)
    add, mul, inv_row, neg_row = _dense_tables(spec)
    assert len(add) == len(mul) == q * q and len(inv_row) == len(neg_row) == q
    for x in range(q):
        assert neg_row[x] == spec.neg(x) * q
        assert inv_row[x] == (spec.inv(x) * q if x else 0)
        for y in range(q):
            assert add[x * q + y] == spec.add(x, y)
            assert mul[x * q + y] == spec.mul(x, y)


def test_table_build_needs_few_schoolbook_products(monkeypatch):
    # each rejected candidate costs one square-and-multiply power per prime
    # factor of q - 1, and the walk r products for its columns: nothing
    # grows with q itself
    calls = []
    mulmod = ffield._poly_mulmod

    def counted(*args):
        calls.append(1)
        return mulmod(*args)

    spec = standard_field(65536)  # the modulus is tested before the count starts
    monkeypatch.setattr(ffield, "_poly_mulmod", counted)
    gen = spec._log_tables[0][1]
    n = spec.q - 1
    primes = [3, 5, 17, 257]  # 65535 = 3 * 5 * 17 * 257
    assert len(calls) <= (gen - 1) * len(primes) * 2 * n.bit_length() + spec.r
