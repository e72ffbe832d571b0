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
``%``.  Extension fields multiply through numpy copies of the exp/log
tables and add by XOR when p = 2, digit by digit otherwise.

Peak memory follows the output plus one block, not the pair count.  When
a bool mask over all q^3 keys is no larger than the pairs' int64 keys, a
set-only enumeration marks each block in the mask and writes the mask's
keys, slice by slice, straight into the ``array('q')`` a ``GroupSet``
holds.  Otherwise sorting each block removes duplicates and counts
multiplicities, the pending blocks are merged into the running result
whenever they outgrow it, and the result is copied once into the array.
"""

from __future__ import annotations

import os
from array import array
from functools import lru_cache

from .ffield import FieldSpec
from .groups import T2, GroupSet


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


# Mask bytes the dense path reads per slice when it collects its keys: a
# slice's int64 indices (0.5 MB at most) are its only temporary.  Fixed,
# not a multiple of BLOCK_PAIRS, which the tests shrink to one pair.
MASK_SLICE = 1 << 16


@lru_cache(maxsize=16)  # equal specs share an entry
def vector_field(spec: FieldSpec):
    """(add, mul) of an extension field on int64 arrays of wires."""
    p, q, r = spec.p, spec.q, spec.r
    exp, log = spec._tables
    n = q - 1
    # log 0 is 2n, so a sum involving it lands in the zero tail of exp2
    log_v = np.array(log, dtype=np.int64)
    log_v[0] = 2 * n
    exp2 = np.zeros(4 * n + 1, dtype=np.int64)
    exp2[: 2 * n] = exp + exp

    def mul(x, y):
        return exp2[log_v[x] + log_v[y]]

    if p == 2:
        return np.bitwise_xor, mul

    def add(x, y):
        # digit i of the sum is (x // p^i + y // p^i) mod p: no carries
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        place = 1
        for _ in range(r):
            out += _reduce(x // place + y // place, p) * place
            place *= p
        return out

    return add, mul


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
    q, k = S.spec.q, np.frombuffer(S.keys, dtype=np.int64)
    return np.stack((k // (q * q), _reduce(k // q, q), _reduce(k.copy(), q)))


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
    z0, z1, z2 = (_prime_coords if spec.r == 1 else _table_coords)(group, spec, a, b)
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


def _table_coords(group, spec, a, b):
    """The product's three coordinates over an extension field, through the
    field's table arithmetic."""
    add, mul = vector_field(spec)
    if group == T2:
        return mul(a[0], b[0]), add(mul(a[0], b[1]), mul(a[1], b[2])), mul(a[2], b[2])
    return add(a[0], b[0]), add(a[1], b[1]), add(add(a[2], b[2]), mul(a[0], b[1]))


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
