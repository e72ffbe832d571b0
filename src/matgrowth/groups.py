"""Two ambient matrix groups over a finite field, in coordinate form.

T2 is the group of invertible upper-triangular 2x2 matrices, stored as the
triple (a, b, c) for [[a, b], [0, c]] with a, c nonzero.  H is the
Heisenberg group of unitriangular 3x3 matrices, stored as the free triple
(g1, g2, g3) for the two superdiagonal entries and the corner.  No matrix
type is involved; multiplication uses the closed-form products directly.

An element is its wire triple, a plain tuple of three field wires; it
carries no field or group, so every kernel (``gmul``, ``ginv``, ...) takes
the field spec and the group tag next to it; ``pair_keys`` is ``gmul``
written out for a whole pair loop.  ``check_group_wire`` is the
one validity check.  ``GroupSet`` is a set of elements with its ambient
group tag, stored as one thing: the sorted packed keys ``wire_key`` of its
elements, decoded into wire triples (``key_wires``) only when asked.

``SUBGROUP_KINDS`` is the one table of the named subgroups: each kind's
group, whether it is normal, the parameter its ``SubgroupTag`` takes and
its order as a function of q.  ``SubgroupTag`` validates against it, and
the command line's tag syntax reads it.

The passes over a set's elements (``SubgroupTag.keys``, ``fibers``,
``occupancy`` and ``members``, and ``GroupSet.inverses``, ``symmetrized``
and ``is_symmetric``) have two forms.  Once numpy is loaded
(``numpy_loaded``, the one test of it, which ``growth._use_kernel``
reads too) they run their array forms in ``kernel`` on the set's packed
keys: the same closed forms (``SubgroupTag._forms``, ``ginv``) on whole
coordinate rows.  Until then they decode one element at a time, so a
small run never loads numpy; those per-element forms are the oracle.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .config import Caps, check_set, json_typed
from .errors import MismatchError, ParameterError
from .ffield import FieldSpec

T2 = "T2"
H = "H"
GROUPS = (T2, H)

Wire = tuple[int, int, int]


# -- wire kernels ----------------------------------------------------------

def t2_mul(spec: FieldSpec, g: Wire, h: Wire) -> Wire:
    # [[a,b],[0,c]] [[a',b'],[0,c']] = [[aa', ab'+bc'], [0, cc']]
    return (
        spec.mul(g[0], h[0]),
        spec.add(spec.mul(g[0], h[1]), spec.mul(g[1], h[2])),
        spec.mul(g[2], h[2]),
    )


def t2_inv(spec: FieldSpec, g: Wire) -> Wire:
    ai = spec.inv(g[0])
    ci = spec.inv(g[2])
    return (ai, spec.neg(spec.mul(g[1], spec.mul(ai, ci))), ci)


def heis_mul(spec: FieldSpec, g: Wire, h: Wire) -> Wire:
    return (
        spec.add(g[0], h[0]),
        spec.add(g[1], h[1]),
        spec.add(spec.add(g[2], h[2]), spec.mul(g[0], h[1])),
    )


def heis_inv(spec: FieldSpec, g: Wire) -> Wire:
    return (
        spec.neg(g[0]),
        spec.neg(g[1]),
        spec.add(spec.neg(g[2]), spec.mul(g[0], g[1])),
    )


def gmul(spec: FieldSpec, group: str, g: Wire, h: Wire) -> Wire:
    return t2_mul(spec, g, h) if group == T2 else heis_mul(spec, g, h)


def ginv(spec: FieldSpec, group: str, g: Wire) -> Wire:
    return t2_inv(spec, g) if group == T2 else heis_inv(spec, g)


def gid(group: str) -> Wire:
    return (1, 0, 1) if group == T2 else (0, 0, 0)


def check_group_wire(spec: FieldSpec, group: str, w: Sequence[int]) -> Wire:
    if group not in GROUPS:
        raise ParameterError(f"unknown group tag {group!r}")
    if len(w) != 3:
        raise ParameterError(f"group element wire must be a triple, got {w!r}")
    t = (spec.check_wire(w[0]), spec.check_wire(w[1]), spec.check_wire(w[2]))
    if group == T2 and (t[0] == 0 or t[2] == 0):
        raise ParameterError(f"not invertible in T2: diagonal contains zero in {list(t)}")
    return t


def numpy_loaded() -> bool:
    """Whether numpy is loaded in this process.  Once it is, the passes over
    a set's elements (coset keys, fibers, members, inverses) run their
    array forms in ``kernel``, as every enumeration does
    (``growth._use_kernel``): no import is left to pay.  Until then they
    run on decoded wires, so a small run never loads numpy."""
    return "numpy" in sys.modules


def _arrays(S: "GroupSet") -> bool:
    """Whether a pass over the elements of S runs its array form."""
    return len(S) > 0 and numpy_loaded()


# -- canonical element order and sets ----------------------------------------

def wire_key(spec: FieldSpec, w: Wire) -> int:
    return (w[0] * spec.q + w[1]) * spec.q + w[2]


def group_order(spec: FieldSpec, group: str) -> int:
    """|T2(F_q)| = (q - 1)^2 q, |H(F_q)| = q^3."""
    q = spec.q
    return (q - 1) * (q - 1) * q if group == T2 else q * q * q


def pair_keys(spec: FieldSpec, group: str, xs: Sequence[Wire], ys: Sequence[Wire]) -> Iterator[int]:
    """The key ``wire_key`` of every product x y over xs x ys, in row-major order.

    ``gmul`` with the arithmetic written out: prime fields reduce integer
    sums mod p, and extension fields multiply through the table layout
    ``FieldSpec._log_tables`` and add by XOR when p = 2, by one Zech
    lookup otherwise.
    """
    q = spec.q
    if spec.r == 1:
        p = q
        if group == T2:
            for a, b, c in xs:
                yield from (
                    ((a * a2 % p) * q + (a * b2 + b * c2) % p) * q + c * c2 % p
                    for a2, b2, c2 in ys
                )
        else:
            for a, b, c in xs:
                yield from (
                    ((a + a2) % p * q + (b + b2) % p) * q + (c + c2 + a * b2) % p
                    for a2, b2, c2 in ys
                )
        return
    exp, log, zech = spec._log_tables

    def add(x: int, y: int) -> int:  # odd p, zeros included
        lx = log[x]
        return exp[lx + zech[log[y] - lx]]

    if group == T2:
        logs = [(log[a], log[b], log[c]) for a, b, c in ys]
        for a, b, c in xs:
            la, lb, lc = log[a], log[b], log[c]
            yield from (
                (exp[la + a2] * q + (exp[la + b2] ^ exp[lb + c2])) * q + exp[lc + c2]
                if zech is None
                else (exp[la + a2] * q + add(exp[la + b2], exp[lb + c2])) * q + exp[lc + c2]
                for a2, b2, c2 in logs
            )
    elif zech is None:
        ys = [(a, b, c, log[b]) for a, b, c in ys]
        for a, b, c in xs:
            la = log[a]
            yield from (
                ((a ^ a2) * q + (b ^ b2)) * q + (c ^ c2 ^ exp[la + lb2])
                for a2, b2, c2, lb2 in ys
            )
    else:  # the first two sums as their Zech lookups, on the logs of ys
        ys = [(c, log[a], log[b]) for a, b, c in ys]
        for a, b, c in xs:
            la, lb = log[a], log[b]
            yield from (
                (exp[la + zech[la2 - la]] * q + exp[lb + zech[lb2 - lb]]) * q
                + add(add(c, c2), exp[la + lb2])
                for c2, la2, lb2 in ys
            )


def key_wires(spec: FieldSpec, keys: Iterable[int]) -> Iterator[Wire]:
    """The wire triples of packed keys, in the keys' order, one at a time."""
    q = spec.q
    qq = q * q
    return ((k // qq, k // q % q, k % q) for k in keys)


class GroupSet:
    """A multiplicity-free set of group elements in canonical order.

    A set is its packed keys ``wire_key``: ``keys`` is an ``array('q')`` of
    them, sorted and distinct, however the set was built.  That order is
    also the sample space of the random generator, so a GroupSet
    serializes identically no matter how it was assembled.  ``len``,
    ``==``, ``hash``, ``in`` and ``subset_of`` read the keys; ``wires``
    and iteration decode them on every use, and nothing decoded is kept.

    ``GroupSet(group, spec, wires)`` validates, keys, dedupes and sorts;
    internal producers skip the validation with ``_checked=True``, or hand
    over an ``array('q')`` that is already sorted and distinct as ``_keys``.
    """

    __slots__ = ("group", "spec", "keys")

    def __init__(
        self,
        group: str,
        spec: FieldSpec,
        wires: Iterable[Wire] = (),
        _checked: bool = False,
        _keys: array | None = None,
    ):
        if group not in GROUPS:
            raise ParameterError(f"unknown group tag {group!r}")
        self.group = group
        self.spec = spec
        if _keys is None:
            if not _checked:
                wires = [check_group_wire(spec, group, w) for w in wires]
            _keys = array("q", sorted({wire_key(spec, w) for w in wires}))
        self.keys = _keys

    @property
    def wires(self) -> tuple[Wire, ...]:
        return tuple(key_wires(self.spec, self.keys))

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Wire]:
        return key_wires(self.spec, self.keys)

    def __contains__(self, item) -> bool:
        """Whether the triple ``item`` (a tuple or a list) is an element.  A
        coordinate outside 0..q-1 is in no set: packed, it would alias the
        key of another triple."""
        w = tuple(item)
        if len(w) != 3 or not all(0 <= x < self.spec.q for x in w):
            return False
        key = wire_key(self.spec, w)
        keys = self.keys
        i = bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSet)
            and self.group == other.group
            and self.spec == other.spec
            and self.keys == other.keys
        )

    def __hash__(self) -> int:
        return hash((self.group, self.spec._hash, self.keys.tobytes()))

    def __repr__(self) -> str:
        return f"GroupSet({self.group}, q={self.spec.q}, n={len(self)})"

    def same_ambient(self, other: "GroupSet") -> None:
        if self.group != other.group or self.spec != other.spec:
            raise MismatchError("sets live in different ambient groups")

    def inverses(self) -> "GroupSet":
        spec, group = self.spec, self.group
        if _arrays(self):
            from .kernel import inverse_keys

            return GroupSet(group, spec, _keys=inverse_keys(self))
        return GroupSet(group, spec, (ginv(spec, group, w) for w in self), _checked=True)

    def symmetrized(self) -> "GroupSet":
        """A together with its inverses and the identity."""
        spec, group = self.spec, self.group
        if _arrays(self):
            from .kernel import inverse_keys

            return GroupSet(group, spec, _keys=inverse_keys(self, closed=True))
        inverses = (ginv(spec, group, w) for w in self)
        return GroupSet(group, spec, chain(self, inverses, [gid(group)]), _checked=True)

    def union(self, other: "GroupSet") -> "GroupSet":
        self.same_ambient(other)
        keys = array("q", sorted(set(self.keys).union(other.keys)))
        return GroupSet(self.group, self.spec, _keys=keys)

    @property
    def is_symmetric(self) -> bool:
        spec, group = self.spec, self.group
        if _arrays(self):
            from .kernel import inverse_keys

            return inverse_keys(self) == self.keys
        return all(ginv(spec, group, w) in self for w in self)

    @property
    def has_identity(self) -> bool:
        return gid(self.group) in self

    def subset_of(self, other: "GroupSet") -> bool:
        """Whether every element lies in ``other``: each key of this set,
        bisected into the other's keys from where the last one was found."""
        self.same_ambient(other)
        theirs = other.keys
        i = 0
        for key in self.keys:
            i = bisect_left(theirs, key, i)
            if i == len(theirs) or theirs[i] != key:
                return False
        return True


def generated_closure(seeds: GroupSet, cap: int = Caps.max_set_elements) -> GroupSet:
    """Subgroup generated by the seeds, by breadth-first products.

    Raises :class:`CapExceeded` (with the partial size) if the closure
    outgrows the cap before stabilizing.
    """
    spec = seeds.spec
    group = seeds.group
    gens = set(seeds.symmetrized())
    closed = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                w = gmul(spec, group, f, g)
                if w not in closed:
                    closed.add(w)
                    new.append(w)
                    check_set("generated closure", len(closed), cap, len(closed))
        frontier = new
    return GroupSet(group, spec, closed, _checked=True)


# -- named subgroups ---------------------------------------------------------

class SubgroupKind(NamedTuple):
    group: str
    normal: bool  # whether the subgroup is normal in its ambient group
    param: str | None  # the one parameter a tag of this kind takes
    order: Callable[[int], int]  # |subgroup| as a function of q


# Every kind of named subgroup, the one place its rules are written.  The
# diagonal and the tori are self-normalizing, not normal; a "line" with
# both direction coordinates nonzero is not even closed under the product
# (see is_subgroup).
SUBGROUP_KINDS = {
    "unipotent": SubgroupKind(T2, True, None, lambda q: q),
    "scalars": SubgroupKind(T2, True, None, lambda q: q - 1),
    "diagonal": SubgroupKind(T2, False, None, lambda q: (q - 1) ** 2),
    "torus": SubgroupKind(T2, False, "x", lambda q: (q - 1) ** 2),
    "scaled_unipotent": SubgroupKind(T2, True, None, lambda q: (q - 1) * q),
    "scaled_torus": SubgroupKind(T2, False, "x", lambda q: (q - 1) ** 2),
    "center": SubgroupKind(H, True, None, lambda q: q),
    "line": SubgroupKind(H, False, "direction", lambda q: q),
    "line_center": SubgroupKind(H, True, "direction", lambda q: q * q),
}


def subgroup_kind(kind: str) -> SubgroupKind:
    """The table entry of ``kind``; an unknown kind is refused by name."""
    if kind not in SUBGROUP_KINDS:
        raise ParameterError(f"unknown subgroup kind {kind!r}")
    return SUBGROUP_KINDS[kind]


def _no_cosets(w: Wire) -> tuple:
    raise ParameterError("this line is not a subgroup; cosets are undefined")


def _unpack(spec: FieldSpec, keys: list[int], width: int) -> list[tuple]:
    """Coset keys packed by ``kernel.coset_keys`` as the tuples of ``_forms``."""
    if width == 1:
        return [(k,) for k in keys]
    return [divmod(k, spec.q) for k in keys]


@dataclass(frozen=True, slots=True, repr=False)
class SubgroupTag:
    """A named coordinate subgroup (or section) used for membership counting.

    The one place that computes the subgroup's cosets: ``fibers`` and
    ``keys`` read the coset keys of a set, ``members`` its slice S n H;
    ``coset_key`` and ``member`` are their one-element forms.  Which group
    a kind lives in, whether it is normal, which parameter it takes and
    its order are read from ``SUBGROUP_KINDS``.

    T2 kinds: unipotent (a=c=1), scalars (a=c, b=0), diagonal (b=0),
    torus(x) (b=(a-c)x), scaled_unipotent (a=c), scaled_torus(x) (alias of
    torus(x): the scalars already sit inside every torus).

    H kinds: center (g1=g2=0), line(d) (g3=0 and the base point lies on the
    line through the origin with normal d), line_center(d) (the same base
    constraint with a free corner).  Directions are compared as given and
    normalized projectively, first nonzero coordinate scaled to one, where
    they are used.
    """

    kind: str
    x: int | None = None
    direction: tuple[int, int] | None = None

    def __post_init__(self):
        param = subgroup_kind(self.kind).param
        if param == "x":
            if self.x is None:
                raise ParameterError(f"{self.kind} requires the parameter x")
        elif self.x is not None:
            raise ParameterError(f"{self.kind} takes no parameter x")
        if param == "direction":
            if self.direction is None:
                raise ParameterError(f"{self.kind} requires a direction")
            if self.direction[0] == 0 and self.direction[1] == 0:
                raise ParameterError("direction must be a nonzero pair")
        elif self.direction is not None:
            raise ParameterError(f"{self.kind} takes no direction")

    @property
    def group(self) -> str:
        return SUBGROUP_KINDS[self.kind].group

    @property
    def is_normal(self) -> bool:
        return SUBGROUP_KINDS[self.kind].normal

    def is_subgroup(self, spec: FieldSpec) -> bool:
        """Whether the member set is closed under the group product.

        Every kind is, except a line with both direction coordinates
        nonzero: there the corner of a product picks up a nonzero cross
        term and leaves the g3 = 0 slice.
        """
        return self.kind != "line" or 0 in self._normal_wires(spec)

    def _normal_wires(self, spec: FieldSpec) -> tuple[int, int]:
        # normalize the direction projectively: first nonzero becomes 1
        alpha, beta = map(spec.check_wire, self.direction)
        s = spec.inv(alpha or beta)
        return spec.mul(alpha, s), spec.mul(beta, s)

    def member(self, spec: FieldSpec, w: Wire) -> bool:
        return self._forms(spec)[1](w)

    def coset_key(self, spec: FieldSpec, w: Wire) -> tuple:
        """Invariant separating left cosets: equal keys, same coset gH."""
        return self._forms(spec)[0](w)

    def fibers(self, S: GroupSet) -> Counter:
        """How many elements of S lie in each left coset, by coset key.  The
        array form counts the packed keys and decodes the distinct ones."""
        self.check_group(S.group)
        if _arrays(S):
            from .kernel import coset_fibers

            keys, counts, width = coset_fibers(self, S)
            return Counter(dict(zip(_unpack(S.spec, keys.tolist(), width), counts.tolist())))
        return Counter(self.keys(S))

    def occupancy(self, S: GroupSet) -> tuple[int, int]:
        """How many left cosets S meets, and the most elements of S in one:
        the array form counts packed keys and decodes none."""
        self.check_group(S.group)
        if _arrays(S):
            from .kernel import coset_fibers

            counts = coset_fibers(self, S)[1]
            return len(counts), int(counts.max())
        fibers = self.fibers(S)
        return len(fibers), max(fibers.values(), default=0)

    def keys(self, S: GroupSet) -> list[tuple]:
        """The coset key of each element of S, in S's canonical order."""
        self.check_group(S.group)
        if _arrays(S):
            from .kernel import coset_keys

            keys, width = coset_keys(self, S)
            return _unpack(S.spec, keys.tolist(), width)
        return list(map(self._forms(S.spec)[0], S))

    def members(self, S: GroupSet) -> GroupSet:
        """S n H: S's keys filtered by the membership test, which stay
        sorted.  Without numpy each element is decoded, tested and dropped."""
        self.check_group(S.group)
        if _arrays(S):
            from .kernel import member_keys

            return GroupSet(S.group, S.spec, _keys=member_keys(self, S))
        inside = map(self._forms(S.spec)[1], S)
        return GroupSet(S.group, S.spec, _keys=array("q", compress(S.keys, inside)))

    def check_group(self, group: str) -> None:
        """Refuse to act on a set of the other group."""
        if group != self.group:
            raise ParameterError(f"tag {self!r} is not a {group} subgroup")

    def _forms(self, spec: FieldSpec, f=None) -> tuple[Callable[[Wire], tuple], Callable[[Wire], bool]]:
        """The coset key and the membership test of a wire, with the tag's
        parameters resolved once.

        Each key is a closed-form invariant of the left cosets gH (checked
        against explicit coset enumeration in the test suite), so coset
        bookkeeping never multiplies out a coset.  A line that is not a
        subgroup has no cosets: its key raises.

        ``f`` is the arithmetic, ``spec`` itself by default.  The kernel
        passes ``kernel.vector_field(spec)`` and a whole set's coordinate
        rows as w: then ``==`` compares and ``&`` joins elementwise, and
        each key coordinate is an array.
        """
        f = f or spec
        add, sub, mul, div = f.add, f.sub, f.mul, f.div
        if self.kind in ("torus", "scaled_torus"):
            x = spec.check_wire(self.x)
            return (
                lambda w: (div(sub(w[1], mul(w[0], x)), w[2]),),
                lambda w: w[1] == mul(sub(w[0], w[2]), x),
            )
        if self.kind in ("line", "line_center"):
            alpha, beta = self._normal_wires(spec)

            def base(w: Wire) -> int:  # alpha g1 + beta g2
                return add(mul(alpha, w[0]), mul(beta, w[1]))

            if self.kind == "line_center":
                return (lambda w: (base(w),)), (lambda w: base(w) == 0)
            if alpha == 0:
                key = lambda w: (w[1], w[2])
            elif beta == 0:
                key = lambda w: (w[0], sub(w[2], mul(w[0], w[1])))
            else:
                key = _no_cosets
            return key, (lambda w: (w[2] == 0) & (base(w) == 0))
        return {
            "unipotent": (lambda w: (w[0], w[2]), lambda w: (w[0] == 1) & (w[2] == 1)),
            "scalars": (  # a dilate (la, lb, lc) normalized by a
                lambda w: (div(w[1], w[0]), div(w[2], w[0])),
                lambda w: (w[0] == w[2]) & (w[1] == 0),
            ),
            "diagonal": (lambda w: (div(w[1], w[2]),), lambda w: w[1] == 0),
            "scaled_unipotent": (lambda w: (div(w[0], w[2]),), lambda w: w[0] == w[2]),
            "center": (lambda w: (w[0], w[1]), lambda w: (w[0] == 0) & (w[1] == 0)),
        }[self.kind]

    def order(self, spec: FieldSpec) -> int:
        """Size of the member set, in closed form: ``len(self.elements(spec))``."""
        return SUBGROUP_KINDS[self.kind].order(spec.q)

    def elements(self, spec: FieldSpec) -> GroupSet:
        k = self.kind
        q = spec.q
        nonzero = range(1, q)
        if k == "unipotent":
            wires = [(1, b, 1) for b in range(q)]
        elif k == "scalars":
            wires = [(a, 0, a) for a in nonzero]
        elif k == "diagonal":
            wires = [(a, 0, c) for a in nonzero for c in nonzero]
        elif k in ("torus", "scaled_torus"):
            x = spec.check_wire(self.x)
            wires = [
                (a, spec.mul(spec.sub(a, c), x), c) for a in nonzero for c in nonzero
            ]
        elif k == "scaled_unipotent":
            wires = [(a, b, a) for a in nonzero for b in range(q)]
        elif k == "center":
            wires = [(0, 0, t) for t in range(q)]
        else:
            alpha, beta = self._normal_wires(spec)
            # base points on the line: multiples of the spanning vector (beta, -alpha)
            bases = [(spec.mul(s, beta), spec.mul(s, spec.neg(alpha))) for s in range(q)]
            if k == "line":
                wires = [(b1, b2, 0) for b1, b2 in bases]
            else:
                wires = [(b1, b2, t) for b1, b2 in bases for t in range(q)]
        return GroupSet(self.group, spec, wires, _checked=True)

    def coset(self, spec: FieldSpec, rep: Sequence[int]) -> GroupSet:
        """Left coset rep * subgroup as an explicit set; rep is a wire triple."""
        rep = check_group_wire(spec, self.group, rep)
        return GroupSet(
            self.group,
            spec,
            (gmul(spec, self.group, rep, w) for w in self.elements(spec)),
            _checked=True,
        )

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.x is not None:
            out["x"] = self.x
        if self.direction is not None:
            out["direction"] = list(self.direction)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SubgroupTag":
        """A tag from its JSON form; every field must have its exact JSON type."""
        obj = json_typed(obj, dict, "subgroup tag")
        x = obj.get("x")
        if x is not None:
            x = json_typed(x, int, "subgroup x")
        direction = obj.get("direction")
        if direction is not None:
            if type(direction) is not list or len(direction) != 2:
                raise ParameterError(f"subgroup direction must be two JSON ints, got {direction!r}")
            direction = tuple(json_typed(d, int, "subgroup direction") for d in direction)
        return cls(json_typed(obj.get("kind"), str, "subgroup kind"), x=x, direction=direction)

    def __repr__(self) -> str:
        extra = ""
        if self.x is not None:
            extra = f", x={self.x}"
        if self.direction is not None:
            extra = f", direction={self.direction}"
        return f"SubgroupTag({self.kind}{extra})"
