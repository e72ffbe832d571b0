"""The numpy pair kernel behind every large product set and energy.

``growth`` imports this module, and so numpy, once an enumeration and the
pairs the pure-Python loops have already spent in the process reach
``growth.VECTOR_PAIRS`` (see ``growth._use_kernel``).  It is the package's
only import of numpy, which it loads with one BLAS thread: the import then
takes 0.05-0.06 s and about 11 MB of peak memory on a 2-vCPU VM (0.10-0.13
s with OpenBLAS's default thread pool).  X x Y is enumerated
in row blocks as packed int64 keys (x * q + y) * q + z (the ``wire_key``
order of ``GroupSet``), which fit because q^3 <= 2^48.  The operands'
coordinates come from a zero-copy view of their keys.  Prime fields
compute each product coordinate as one integer sum, below 2^34, reduced
once; every reduction is ``x - x // p * p`` (``_reduce``), since numpy
divides by a scalar without a hardware division but has no such path for
``%``.  Extension fields compute through ``vector_field``, numpy copies
of the table layout ``FieldSpec._log_tables``: they multiply by one
lookup and add by XOR when p = 2, by one Zech lookup otherwise.

Peak memory follows the output plus one block, not the pair count.  When
a bool mask over all q^3 keys is no larger than the pairs' int64 keys, a
set-only enumeration marks each block in the mask and writes the mask's
keys, slice by slice, straight into the ``array('q')`` a ``GroupSet``
holds.  Otherwise sorting each block removes duplicates and counts
multiplicities, the pending blocks are merged into the running result
whenever they outgrow it, and the result is copied once into the array.

The module also holds the array forms of the passes over one set, which
``groups`` and ``cosets`` run once numpy is loaded (``groups.numpy_loaded``):
a ``SubgroupTag``'s coset keys, fibers and members, which run the tag's
own closed forms on coordinate rows, ``BLOCK_ELEMENTS`` elements at a
time; a set's inverses, through the wire kernel ``ginv``; and the pair
pass of the line profiles, ``heaviest_line``, in row blocks of about
``BLOCK_PAIRS`` pairs.  ``vector_field`` gives those forms any field's
arithmetic under the names of the ``FieldSpec`` methods.
"""

from __future__ import annotations

import os
from array import array
from functools import lru_cache
from typing import Callable, NamedTuple

from .ffield import FieldSpec
from .groups import T2, GroupSet, gid, ginv, gmul, wire_key


def _import_numpy():
    """numpy, loaded with one OpenBLAS thread unless the caller set
    ``OPENBLAS_NUM_THREADS``; ``os.environ`` is left as it was found.

    The kernel sorts, dedupes and does integer arithmetic, none of which
    calls BLAS (which serves float and complex types only), yet by default
    OpenBLAS starts a worker per further core when it loads: about half of
    the import's time on a 2-vCPU VM.  OpenBLAS reads the variable once, at
    load, so setting it around the first import is enough.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        import numpy
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return numpy


# the package's one numpy import; ``growth`` takes ``np`` from here
np = _import_numpy()

# Pairs per row block.  A block's few int64 temporaries (0.5 MB each) are
# the working memory beyond the output: on the products benchmark, 2^16
# peaked 0.3 MB below 2^17 at the same wall time, and 2^18 used 25 MB of
# temporaries on a 6349 x 81 enumeration whose output fits in 4 MB.
BLOCK_PAIRS = 1 << 16


# Elements per block of a pass over one set (coset keys, members, inverses).
# A block's coordinate rows take 0.4 MB and its temporaries about as much
# again, so such a pass peaks below one int64 per element of any set of
# more than about 2^17 elements.  On the 9,000,000-element A(2) of a
# 1500-element T2 set over F_65521 the members pass took 0.06 s, against
# 0.09 s in blocks of 2^16 and 0.42 s (and 340 MB more) in one block.
BLOCK_ELEMENTS = 1 << 14


# Mask bytes the dense path reads per slice when it collects its keys: a
# slice's int64 indices (0.5 MB at most) are its only temporary.  Fixed,
# not a multiple of BLOCK_PAIRS, which the tests shrink to one pair.
MASK_SLICE = 1 << 16


class VectorField(NamedTuple):
    """A field's arithmetic on int64 arrays of wires, under the names of the
    ``FieldSpec`` methods, so a closed form written against a spec (the
    wire kernels of ``groups``, ``SubgroupTag._forms``) runs on whole
    coordinate rows as it is.  ``inv`` and ``div`` take nonzero divisors."""

    add: Callable
    sub: Callable
    mul: Callable
    div: Callable
    inv: Callable
    neg: Callable


@lru_cache(maxsize=16)  # equal specs share an entry
def vector_field(spec: FieldSpec) -> VectorField:
    """The arithmetic of any field on int64 arrays of wires (or a wire and
    an array).  Prime fields reduce each result once through ``_reduce``
    and divide through a table of the p inverses, built on the first
    division.  Extension fields read numpy copies of the table layout
    ``FieldSpec._log_tables``: they add by XOR when p = 2 and by one Zech
    lookup otherwise, with a fixed number of array operations whatever
    the degree, and no operation masks a zero."""
    p, n = spec.p, spec.q - 1
    if spec.r == 1:

        def inv(x):
            return _inverses(p)[x]

        return VectorField(
            add=lambda x, y: _reduce(x + y, p),
            sub=lambda x, y: _reduce(x - y + p, p),
            mul=lambda x, y: _reduce(x * y, p),
            div=lambda x, y: _reduce(x * inv(y), p),
            inv=inv,
            neg=lambda x: _reduce(p - x, p),
        )
    exp, log, zech = spec._log_tables
    exp, log = np.array(exp, dtype=np.int64), np.array(log, dtype=np.int64)

    def mul(x, y):
        return exp[log[x] + log[y]]

    def div(x, y):  # a zero x lands in the zero tail, at 2n + 1 or above
        return exp[log[x] - log[y] + n]

    if p == 2:
        return VectorField(
            np.bitwise_xor, np.bitwise_xor, mul, div, lambda x: div(1, x), lambda x: x
        )

    zech = np.array(zech, dtype=np.int64)

    def add(x, y):  # a negative Zech index reads from the end
        lx = log[x]
        return exp[lx + zech[log[y] - lx]]

    def neg(x):  # -1 = g^((q-1)/2)
        return exp[log[x] + n // 2]

    return VectorField(add, lambda x, y: add(x, neg(y)), mul, div, lambda x: div(1, x), neg)


@lru_cache(maxsize=4)
def _inverses(p: int):
    """1/x mod p for every x in F_p (0 at x = 0), as x^(p-2) by repeated
    squaring on all p residues at once."""
    x = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = _reduce(out * x, p)
        x = _reduce(x * x, p)
        e >>= 1
    out[0] = 0
    return out


def _reduce(x, p: int):
    """x mod p, in place, for an int64 array x of nonnegative values that
    the caller owns; returns x."""
    t = x // p
    t *= p
    x -= t
    return x


def pair_kernel(X: GroupSet, Y: GroupSet, counts: bool = False):
    """Sorted distinct packed keys of x y over X x Y, as an ``array('q')``,
    and their int64 multiplicities when ``counts`` is set (else None).
    Works in row blocks of about ``BLOCK_PAIRS`` pairs, so memory follows
    the output, not the pair count.
    """
    spec, q = X.spec, X.spec.q
    x, y = _coord_rows(X), _coord_rows(Y)[:, None, :]
    rows = max(1, BLOCK_PAIRS // max(1, len(Y)))
    blocks = (
        _block_keys(X.group, spec, x[:, start : start + rows, None], y)
        for start in range(0, max(len(X), 1), rows)  # one empty block for an empty X
    )
    if not counts and _dense(q, len(X) * len(Y)):
        seen = np.zeros(q**3, dtype=bool)
        for block in blocks:
            seen[block] = True
        return _mask_keys(seen), None
    # parts[0] is the running result; the later parts are pending blocks,
    # folded in once they outgrow it: a fold costs at most twice its pending
    # keys, and they exceed the result by at most one block
    parts = []
    for block in blocks:
        block.sort()
        starts = np.flatnonzero(_first_of_runs(block))
        parts.append((block[starts], np.diff(starts, append=len(block)) if counts else None))
        if sum(len(k) for k, _ in parts[1:]) >= len(parts[0][0]):
            parts = [_merge(parts, counts)]
    keys, mults = _merge(parts, counts)
    return _key_array(keys), mults


def _coord_rows(S: GroupSet):
    """The (3, |S|) int64 coordinates of S's elements, in canonical order,
    computed from a zero-copy view of S's keys."""
    return _coords(_keys_view(S), S.spec.q)


def _coords(k, q: int):
    """The (3, len(k)) int64 coordinates of the packed keys ``k``, with one
    row-sized temporary at a time."""
    rows = np.empty((3, len(k)), dtype=np.int64)
    np.floor_divide(k, q * q, out=rows[0])
    np.floor_divide(k, q, out=rows[1])
    _reduce(rows[1], q)
    rows[2] = k
    _reduce(rows[2], q)
    return rows


def _keys_view(S: GroupSet):
    """S's keys as a read-only int64 array over the same buffer."""
    return np.frombuffer(S.keys, dtype=np.int64)


def _element_blocks(S: GroupSet):
    """(start, keys, coordinate rows) of each slice of ``BLOCK_ELEMENTS`` of
    S's elements, so a pass over S holds one block's temporaries at a time."""
    q, k = S.spec.q, _keys_view(S)
    for start in range(0, len(k), BLOCK_ELEMENTS):
        block = k[start : start + BLOCK_ELEMENTS]
        yield start, block, _coords(block, q)


def _key_array(keys) -> array:
    """A copy of a contiguous int64 key array as an ``array('q')``."""
    out = array("q")
    out.frombytes(keys.view(np.uint8))
    return out


def _mask_keys(seen) -> array:
    """The indices of ``seen``'s true entries, ascending, as an ``array('q')``
    sized by one count and filled slice by slice through a view of it, so
    no output-sized temporary exists."""
    out = array("q", [0]) * int(np.count_nonzero(seen))
    view, end = np.frombuffer(out, dtype=np.int64), 0
    for start in range(0, len(seen), MASK_SLICE):
        keys = np.flatnonzero(seen[start : start + MASK_SLICE])
        np.add(keys, start, out=view[end : end + len(keys)])
        end += len(keys)
    return out


def _dense(q: int, pairs: int) -> bool:
    """Whether a bool mask over all q^3 keys is no larger than the pairs'
    int64 keys, so dedup marks the mask instead of sorting."""
    return q**3 <= 8 * pairs


def _block_keys(group, spec, a, b):
    """The packed keys of the products over one row block, rows x |Y|; its
    temporaries are freed on return."""
    q = spec.q
    if spec.r == 1:
        z0, z1, z2 = _prime_coords(group, spec, a, b)
    else:
        z0, z1, z2 = gmul(vector_field(spec), group, a, b)
    z0 *= q
    z0 += z1
    z0 *= q
    z0 += z2
    return z0.ravel()


def _prime_coords(group, spec, a, b):
    """The product's three coordinates over F_p, each one sum reduced once:
    with coordinates below p <= 2^16, every sum is below 2^34."""
    p = spec.p
    if group == T2:
        z1 = a[0] * b[1]
        z1 += a[1] * b[2]
        return _reduce(a[0] * b[0], p), _reduce(z1, p), _reduce(a[2] * b[2], p)
    z2 = a[0] * b[1]
    z2 += a[2]
    z2 += b[2]
    return _reduce(a[0] + b[0], p), _reduce(a[1] + b[1], p), _reduce(z2, p)


def _first_of_runs(keys):
    """Mask of the first entry of each run of equal values in sorted ``keys``."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _merge(parts: list, counts: bool):
    """The union of ``parts``, sorted distinct key arrays with their counts
    (or None), with the counts summed.  Empties ``parts`` before sorting."""
    if len(parts) == 1:
        return parts[0]
    keys = np.concatenate([k for k, _ in parts])
    mults = np.concatenate([m for _, m in parts]) if counts else None
    parts.clear()
    if not counts:
        keys.sort()
        return keys[_first_of_runs(keys)], None
    # a stable argsort is a timsort, which gains from the sorted runs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    mults = mults[order]
    del order
    starts = np.flatnonzero(_first_of_runs(keys))
    return keys[starts], np.add.reduceat(mults, starts)


def second_moment(counts, pairs: int) -> int:
    """sum c^2 of a count array summing to ``pairs``, exact past int64."""
    if int(counts.max(initial=0)) * pairs < 1 << 63:
        return int(counts @ counts)
    return sum(c * c for c in counts.tolist())


# -- the per-element passes of ``groups``, and the line profile ----------------

def coset_keys(tag, S: GroupSet):
    """The packed coset key under ``tag`` of each element of a nonempty S, in
    S's order, and the key's width: a key (k,) packs as k and (k0, k1) as
    k0 q + k1.  The closed forms are the tag's own (``SubgroupTag._forms``),
    run block by block on S's coordinate rows through ``vector_field``."""
    spec = S.spec
    key = tag._forms(spec, vector_field(spec))[0]
    out = np.empty(len(S), dtype=np.int64)
    for start, block, rows in _element_blocks(S):
        k = key(rows)
        out[start : start + len(block)] = k[0] if len(k) == 1 else k[0] * spec.q + k[1]
    return out, len(k)


def coset_fibers(tag, S: GroupSet):
    """The distinct packed coset keys of a nonempty S, ascending, the number
    of elements of S in each, and the key's width: a sort and a mask of run
    starts, as in ``pair_kernel`` (``np.unique`` took 20x as long)."""
    keys, width = coset_keys(tag, S)
    keys.sort()
    starts = np.flatnonzero(_first_of_runs(keys))
    return keys[starts], np.diff(starts, append=len(keys)), width


def member_keys(tag, S: GroupSet) -> array:
    """The keys of S n H for the tagged subgroup H, still sorted."""
    inside = tag._forms(S.spec, vector_field(S.spec))[1]
    out = array("q")
    for _, block, rows in _element_blocks(S):
        out.frombytes(block[inside(rows)].view(np.uint8))
    return out


def inverse_keys(S: GroupSet, closed: bool = False) -> array:
    """The sorted keys of the inverses of S's elements, through the wire
    kernel ``ginv`` on S's coordinate rows; with ``closed``, those of
    S u S^-1 u {1}."""
    spec, q = S.spec, S.spec.q
    f = vector_field(spec)
    keys = np.empty(len(S), dtype=np.int64)
    for start, block, rows in _element_blocks(S):
        z0, z1, z2 = ginv(f, S.group, rows)
        keys[start : start + len(block)] = (z0 * q + z1) * q + z2
    if closed:
        keys = np.concatenate((keys, _keys_view(S), [wire_key(spec, gid(S.group))]))
    keys.sort()
    return _key_array(keys[_first_of_runs(keys)])


def heaviest_line(spec: FieldSpec, pts: list, unit_alpha: bool) -> tuple[int, tuple]:
    """(weight, least witness (alpha, beta, gamma)) of the heaviest line
    through two or more of the sorted weighted points ``pts``, ((u, v), w),
    as ``cosets.heaviest_line``'s pair loop finds it; (0, ()) when no line
    holds two.

    The pairs i < j run in blocks of whole rows i, about ``BLOCK_PAIRS``
    pairs each.  A pair's normal (1, beta), beta = (u_i - u_j)/(v_j - v_i),
    or (0, 1) (code q) when v_i = v_j, is packed with i as i (q + 1) +
    code; a sort and ``np.add.reduceat`` sum the weights w_j per key.  A
    line's weight is complete from its first point in sorted order, and
    a later point's partial sum is smaller, since weights are positive.
    So the running maximum over the blocks is the heaviest line's weight,
    and the keys that reach it are the first points of the heaviest lines.
    """
    f, q, m = vector_field(spec), spec.q, len(pts)
    u, v, w = np.array([(x, y, n) for (x, y), n in pts], dtype=np.int64).reshape(m, 3).T
    rows = np.arange(m - 1, -1, -1)  # the pairs (i, j > i) of each row i
    ends = np.cumsum(rows)
    firsts = ends - rows
    best, least, start = 0, 0, 0
    while start < m - 1:
        before = int(ends[start - 1]) if start else 0
        stop = min(m - 1, max(start + 1, int(np.searchsorted(ends, before + BLOCK_PAIRS)) + 1))
        i = np.repeat(np.arange(start, stop), rows[start:stop])
        j = np.arange(before, int(ends[stop - 1])) - firsts[i] + i + 1
        dy = f.sub(v[j], v[i])
        sloped = dy != 0
        if unit_alpha:
            i, j, dy = i[sloped], j[sloped], dy[sloped]
            code = f.div(f.sub(u[i], u[j]), dy)
        else:
            code = np.full(len(i), q, dtype=np.int64)
            code[sloped] = f.div(f.sub(u[i[sloped]], u[j[sloped]]), dy[sloped])
        start = stop
        if not len(i):
            continue
        keys = i * (q + 1) + code
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.flatnonzero(_first_of_runs(keys))
        keys = keys[starts]
        first = keys // (q + 1)
        weight = w[first] + np.add.reduceat(w[j[order]], starts)
        top = int(weight.max())
        if top < best:
            continue
        hits = weight == top
        first, code = first[hits], keys[hits] - first[hits] * (q + 1)
        flat = code == q
        beta = np.where(flat, 1, code)
        gamma = np.where(flat, v[first], f.add(u[first], f.mul(beta, v[first])))
        witness = int(((1 - flat) * q * q + beta * q + gamma).min())
        least = witness if top > best else min(least, witness)
        best = top
    if not best:
        return 0, ()
    alpha, rest = divmod(least, q * q)
    return best, (alpha, *divmod(rest, q))
