"""Growth-structure scan for subsets of the upper-triangular group.

Given A with small tripling, the scan decides between two shapes:

  POTENT      the diagonal-ratio image of A is tiny next to the tripling
              constant, i.e. A concentrates on few cosets of the
              scaled-unipotent subgroup; the report measures the overlap
              of A^2 with that subgroup directly.

  UNIPOTENT   otherwise the ratio image D is rich enough to span a
              subfield F, and the unipotent slice of A's fourth power
              spans an F-subspace W whose lift u(W) should be covered by
              a bounded power of A.  Four certificates pin the claim; the
              only one that can genuinely fail is reachability of the
              lifted span inside the power budget.

The companion ``sum_product_scan`` measures the additive expansion of the
corner set X under dilation by D, and searches for the smallest l with
Span_F(X) inside the l-fold difference set of DX.  Everything is exact.

The scans and ``ratio_image`` take a ``GroupSet`` or the shared
``Products`` of one report, and read its powers, A's coset fibers and
the caps from it; the ratio image and the corner span are built once per
``Products``, for both scans.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .config import StructureOptions, check_pairs
from .errors import ParameterError
from .ffield import span_over_subfield, subfield_generated_by
from .groups import T2, GroupSet, SubgroupTag, pair_keys
from .growth import Products, as_products

POTENT = "POTENT"
UNIPOTENT = "UNIPOTENT"
INCONCLUSIVE = "INCONCLUSIVE"


def unipotent_lift(spec, corner_wires) -> GroupSet:
    return GroupSet(T2, spec, ((1, x, 1) for x in corner_wires), _checked=True)


def unipotent_corners(S: GroupSet) -> tuple[int, ...]:
    """Corner entries of the elements with trivial diagonal, sorted (as S n U is)."""
    return tuple(w[1] for w in SubgroupTag("unipotent").members(S))


def ratio_image(S: GroupSet | Products) -> tuple[int, ...]:
    """The diagonal ratios a/c met by S, sorted: its scaled-unipotent cosets."""
    return tuple(sorted(chi for chi, in as_products(S).fibers(SubgroupTag("scaled_unipotent"))))


class Certificate(NamedTuple):
    """One named check of the structure scan, with what broke it."""

    name: str
    holds: bool
    detail: str = ""


class StructureReport(NamedTuple):
    """The structure scan's verdict and the sizes behind it; each branch
    fills its own fields and leaves the other's None."""

    verdict: str
    symmetrized: bool
    working_size: int
    tripling: Fraction
    ratio_class_count: int
    threshold: Fraction
    # potent branch
    overlap: int | None = None
    overlap_ratio: Fraction | None = None
    # unipotent branch
    subfield_degree: int | None = None
    subfield_size: int | None = None
    corner_count: int | None = None
    span_size: int | None = None
    reach_power: int | None = None
    certificates: tuple[Certificate, ...] = ()

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.certificates if not c.holds)


def working_set(A: GroupSet | Products) -> tuple[GroupSet, bool]:
    """A itself when already symmetric with identity, else its closure."""
    P = as_products(A)
    return P.sym(1), P.sym(1) is not P.A


def structure_scan(
    A: GroupSet | Products, opts: StructureOptions | None = None
) -> StructureReport:
    P = as_products(A)
    if P.A.group != T2:
        raise ParameterError("structure scan is defined for T2 sets")
    if len(P.A) == 0:
        raise ParameterError("structure scan of an empty set")
    opts = opts or StructureOptions()
    spec = P.A.spec
    work, symmetrized = working_set(P)
    tripling = Fraction(len(P.sym(3)), len(work))
    D = _ratio_image(P)
    threshold = max(tripling**opts.potent_exponent, Fraction(opts.potent_floor))
    base = dict(
        symmetrized=symmetrized,
        working_size=len(work),
        tripling=tripling,
        ratio_class_count=len(D),
        threshold=threshold,
    )

    if len(D) <= threshold:
        overlap = len(SubgroupTag("scaled_unipotent").members(P.sym(2)))
        return StructureReport(
            verdict=POTENT,
            overlap=overlap,
            overlap_ratio=Fraction(overlap, len(work)),
            **base,
        )

    X, F, span_wires = _corner_span(P, D)
    lifted = unipotent_lift(spec, span_wires)
    cap = P.caps.max_pair_products

    certs = [
        _cert_dilated_sums_in_span(spec, X, D, span_wires, cap),
        _cert_span_reachable(P, lifted, opts.reach_budget),
        _cert_conjugation_stable(spec, D, span_wires, cap),
        _cert_commutators_in_span(work, span_wires, cap),
    ]
    reach = next(
        (int(c.detail) for c in certs if c.name == "span_reachable" and c.holds), None
    )
    verdict = UNIPOTENT if all(c.holds for c in certs) else INCONCLUSIVE
    return StructureReport(
        verdict=verdict,
        subfield_degree=F.degree,
        subfield_size=F.size,
        corner_count=len(X),
        span_size=len(span_wires),
        reach_power=reach,
        certificates=tuple(certs),
        **base,
    )


def _ratio_image(P: Products) -> tuple[int, ...]:
    """D, the ratio image of A(1): built once per ``Products``, for both
    scans, and read off A's fibers when A(1) is A."""
    S = P.sym(1)
    return P.memo("ratio_image", lambda: ratio_image(P if S is P.A else S))


def _corner_span(P: Products, D) -> tuple:
    """X, the corners of A(4); F, the subfield D generates; Span_F(X) as
    wires: built once per ``Products``, for both scans."""

    def build():
        X = unipotent_corners(P.sym(4))
        F = subfield_generated_by(P.A.spec, D)
        return X, F, frozenset(span_over_subfield(X, F, cap=P.caps.max_set_elements))

    return P.memo("corner_span", build)


def _cert_dilated_sums_in_span(spec, X, D, span_wires, cap: int) -> Certificate:
    """x + d * x' stays in the span, for all corners x, x' and ratios d.

    True for any F-subspace containing X once D generates F; evaluated
    exhaustively anyway as a consistency check on the span computation.
    """
    check_pairs("dilated-sum certificate", len(X) * len(D), len(X), cap)
    for x1 in X:
        for d in D:
            for x2 in X:
                if spec.add(x1, spec.mul(d, x2)) not in span_wires:
                    return Certificate(
                        "dilated_sums_in_span",
                        False,
                        f"x={x1} d={d} x'={x2}",
                    )
    return Certificate("dilated_sums_in_span", True)


def _cert_span_reachable(P: Products, lifted: GroupSet, budget: int) -> Certificate:
    """The lifted span is inside some power of the working set.

    Reports the smallest exponent within the budget; this is the only
    certificate with genuine failure modes (budget too small, or the set
    does not actually generate the span).
    """
    last = None
    for k in range(1, budget + 1):
        cur = P.sym(k)
        if cur is last:  # the ladder has stopped growing
            break
        if lifted.subset_of(cur):
            return Certificate("span_reachable", True, str(k))
        last = cur
    return Certificate("span_reachable", False, f"not reached within budget {budget}")


def _cert_conjugation_stable(spec, D, span_wires, cap: int) -> Certificate:
    """Conjugating u(w) by any a in A scales the corner by the ratio of a,
    so stability of the span under D-dilation is what is checked."""
    check_pairs("conjugation certificate", len(D), len(span_wires), cap)
    for d in D:
        for w in span_wires:
            if spec.mul(d, w) not in span_wires:
                return Certificate("conjugation_stable", False, f"d={d} w={w}")
    return Certificate("conjugation_stable", True)


def _cert_commutators_in_span(work: GroupSet, span_wires, cap: int) -> Certificate:
    """Commutators of working-set elements land in the lifted span.

    [a, b] = (ba)^-1 (ab) = (1, (y_ab - y_ba) / (a0 b0), 1), where y_g is
    the corner of g: the corners and the diagonal a0 b0 are read off the
    packed keys of one ``pair_keys`` pass over W x W, whose key of ab sits
    at i n + j and of ba at j n + i.
    """
    spec = work.spec
    n = len(work)
    check_pairs("commutator certificate", n, n, cap)
    wires = work.wires
    keys = list(pair_keys(spec, T2, wires, wires))
    q, qq = spec.q, spec.q * spec.q
    for i, a in enumerate(wires):
        for j, b in enumerate(wires):
            ab, ba = keys[i * n + j], keys[j * n + i]
            if spec.div(spec.sub(ab // q % q, ba // q % q), ab // qq) not in span_wires:
                return Certificate("commutators_in_span", False, f"a={a} b={b}")
    return Certificate("commutators_in_span", True)


# -- additive expansion of the corner set -------------------------------------

class SumProductReport(NamedTuple):
    """The additive expansion of the corner set and both sides of its dichotomy."""

    corner_count: int
    ratio_class_count: int
    dilate_count: int
    sum_count: int
    expansion: Fraction
    subfield_size: int
    span_size: int
    dichotomy_low_expansion: bool
    dichotomy_spanning: bool
    containment_steps: int | None

    @property
    def dichotomy_holds(self) -> bool:
        return self.dichotomy_low_expansion or self.dichotomy_spanning


def sum_product_scan(A: GroupSet | Products) -> SumProductReport:
    """Expansion of X under X + DX, against the subfield alternative.

    X is the corner set of the fourth power of the working set and D the
    ratio image, as in the structure scan.  The dichotomy asserts that
    either the expansion ratio K' already detects D (K'^10 >= |D|) or X
    essentially fills its span (2 |X| K'^4 >= |Span_F(X)|).  The
    containment search looks for the least l <= 6 with the span inside
    the l-fold difference set of DX.
    """
    P = as_products(A)
    if P.A.group != T2:
        raise ParameterError("sum-product scan is defined for T2 sets")
    spec = P.A.spec
    cap = P.caps.max_pair_products
    D = _ratio_image(P)
    X, F, span_wires = _corner_span(P, D)

    check_pairs("dilate set", len(D), len(X), cap)
    DX = sorted({spec.mul(d, x) for d in D for x in X})
    check_pairs("sum set", len(X), len(DX), cap)
    sums = {spec.add(x, t) for x in X for t in DX}
    expansion = Fraction(len(sums), len(X))
    low = expansion**10 >= len(D)
    spanning = 2 * len(X) * expansion**4 >= len(span_wires)

    containment = None
    fold = set(DX)
    for steps in range(1, 7):
        if steps > 1:
            if len(fold) * len(DX) > cap:
                break
            fold = {spec.add(s, t) for s in fold for t in DX}
        if len(fold) ** 2 > cap:
            break
        diffs = {spec.sub(s, t) for s in fold for t in fold}
        if span_wires <= diffs:
            containment = steps
            break

    return SumProductReport(
        corner_count=len(X),
        ratio_class_count=len(D),
        dilate_count=len(DX),
        sum_count=len(sums),
        expansion=expansion,
        subfield_size=F.size,
        span_size=len(span_wires),
        dichotomy_low_expansion=low,
        dichotomy_spanning=spanning,
        containment_steps=containment,
    )
