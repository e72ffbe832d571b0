"""The numpy pair kernel behind every large product set and energy.

``growth`` imports this module, and so numpy, for an enumeration of at
least ``growth.VECTOR_PAIRS`` pairs, or of any size once numpy is loaded.
X x Y is enumerated in row blocks as packed int64 keys (x * q + y) * q + z
(the ``wire_key`` order of ``GroupSet``), which fit because q^3 <= 2^48.  Prime fields use plain
modular arithmetic (every product is below 2^32); extension fields
multiply through numpy copies of the exp/log tables and add by XOR when
p = 2, digit by digit otherwise.  Sorting each block removes duplicates
and gives the canonical order; the same pass counts multiplicities.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ffield import FieldSpec
from .groups import T2, GroupSet

# Pairs per row block; bounds the working memory of one enumeration.
BLOCK_PAIRS = 1 << 18


@lru_cache(maxsize=16)  # equal specs share an entry
def vector_field(spec: FieldSpec):
    """(add, mul) of the field on int64 arrays of wires."""
    p, q, r = spec.p, spec.q, spec.r
    if r == 1:
        return (lambda x, y: (x + y) % p), (lambda x, y: x * y % p)
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
            out += (x // place + y // place) % p * place
            place *= p
        return out

    return add, mul


def pair_kernel(X: GroupSet, Y: GroupSet, counts: bool = False):
    """Sorted distinct packed keys of x y over X x Y, and their multiplicities
    when ``counts`` is set (else None).  Works in row blocks of about
    ``BLOCK_PAIRS`` pairs, each deduplicated by sorting before the merge.
    """
    q = X.spec.q
    add, mul = vector_field(X.spec)
    x, y = X._coord_rows(), Y._coord_rows()[:, None, :]
    rows = max(1, BLOCK_PAIRS // max(1, len(Y)))
    keys, mults = [], []
    for start in range(0, max(len(X), 1), rows):  # one empty block for an empty X
        a, b = x[:, start : start + rows, None], y
        if X.group == T2:
            z = (mul(a[0], b[0]), add(mul(a[0], b[1]), mul(a[1], b[2])), mul(a[2], b[2]))
        else:
            z = (add(a[0], b[0]), add(a[1], b[1]), add(add(a[2], b[2]), mul(a[0], b[1])))
        block = np.sort(((z[0] * q + z[1]) * q + z[2]).ravel())
        starts = np.flatnonzero(np.diff(block, prepend=-1))
        keys.append(block[starts])
        if counts:
            mults.append(np.diff(starts, append=len(block)))
    if len(keys) > 1:
        merged = np.concatenate(keys)
        if counts:
            order = np.argsort(merged, kind="stable")
            merged = merged[order]
        else:
            merged.sort()
        starts = np.flatnonzero(np.diff(merged, prepend=-1))
        keys = [merged[starts]]
        if counts:
            mults = [np.add.reduceat(np.concatenate(mults)[order], starts)]
    return keys[0], mults[0] if counts else None


def second_moment(counts, pairs: int) -> int:
    """sum c^2 of a count array summing to ``pairs``, exact past int64."""
    if int(counts.max(initial=0)) * pairs < 1 << 63:
        return int(counts @ counts)
    return sum(c * c for c in counts.tolist())
