"""Newton-polyhedron membership, integral closure, and dependence witnesses.

The Newton polyhedron of a nonzero proper monomial ideal is the convex hull
of its generators' exponent vectors plus the nonnegative orthant.  A
monomial lies in the integral closure exactly when its exponent vector is a
lattice point of the polyhedron, which reduces every question here to the
weighted-cover LP in ``simplex``:

    v in NP(I)   <=>   max{ sum(lam) : sum(lam_j a_j) <= v, lam >= 0 } >= 1.

Scaling gives powers for free: NP(I^k) = k NP(I), so membership in NP(I^k)
is the same LP with threshold k over the base generators, and an outside
separator for the base scales down by k.  Pure-power ideals skip the LP
entirely: their polyhedron is the single halfspace sum(v_i/alpha_i) >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import kernels
from .errors import DegenerateIdealError, GeneratorBudgetError
from .ideals import MonomialIdeal, _check_vector
from .simplex import max_weight_lp, warm_lp

INSIDE = "inside"
OUTSIDE = "outside"


@dataclass(frozen=True)
class MembershipVerdict:
    """Decision plus the exact certificate that proves it.

    Inside: ``inside_weights`` maps generator indices to rationals lam_j >= 0
    with sum(lam_j) = 1 and sum(lam_j a_j) <= v componentwise.
    Outside: ``outside_separator`` is a nonnegative rational vector c with
    c . a_j >= 1 for every generator and c . v < 1.
    """

    decision: str
    inside_weights: tuple[tuple[int, Fraction], ...] | None = None
    outside_separator: tuple[Fraction, ...] | None = None

    @property
    def is_inside(self) -> bool:
        return self.decision == INSIDE


@dataclass(frozen=True)
class DependenceWitness:
    """Data of an explicit integral-dependence equation for x^v over I.

    ``factors`` lists generator indices (with repetition) of size ``power``;
    the defining identity is  sum of those generators + slack = power * v,
    i.e. x^(power*v) = x^slack * (product of the factor monomials) in I^power.
    """

    power: int
    factors: tuple[int, ...]
    slack: tuple[int, ...]


def _require_proper(I: MonomialIdeal, op: str):
    if I.is_zero or I.is_unit:
        raise DegenerateIdealError(f"{op} is undefined for the zero or unit ideal")


def _require_budget(max_generators):
    # one meaning for every entry point: None, or a cap of at least 1
    if max_generators is not None and max_generators < 1:
        raise ValueError(f"max_generators must be at least 1, got {max_generators}")


def _halfspace_profile(gens, dim):
    """Integer form of NP(gens) when it is a single corner halfspace.

    Each pure-power generator a_i * e_i is a corner on axis i.  Given at
    least one corner, the corners and the orthant span the halfspace
    sum(v_i / a_i) >= 1 over the axes that have one, the others being free;
    if every generator lies in that halfspace, NP equals it.  Returns
    (nums, base, corner_index) with the halfspace written as
    sum(nums * v) >= base, an axis without a corner getting coefficient 0
    and corner index -1, or None when the shape is anything else: e.g.
    (x^2, y^2, x y z^5) gives ((1, 1, 0), 2, [2, 0, -1]).  Covers pure-power
    ideals and all of their integral closures.
    """
    alpha = [0] * dim
    corner = [-1] * dim
    for j, g in enumerate(gens):
        support = [i for i, c in enumerate(g) if c]
        if len(support) == 1:
            alpha[support[0]] = g[support[0]]
            corner[support[0]] = j
    if not any(alpha):
        return None
    base = lcm(*(a for a in alpha if a))
    nums = tuple(base // a if a else 0 for a in alpha)
    for g in gens:
        if sum(n * c for n, c in zip(nums, g)) < base:
            return None
    return nums, base, corner


def _scan_member(gens, dim, threshold):
    """Membership callback for box scans over NP(I) scaled by ``threshold``.

    Returns a callable v -> (True, None) or (False, separator), where the
    separator is integer-scaled as (nums, den): sum(nums * u) >= den for
    every region point u and < den for the rejected v.  Off a halfspace the
    callable is one warm LP oracle for the whole scan: its verdicts are
    exact, but which separator it returns depends on the points asked
    before, so a scan that must be repeated needs a fresh callable.
    """
    profile = _halfspace_profile(gens, dim)
    if profile is not None:
        nums, base, _ = profile
        den = threshold * base
        sep = (nums, den)

        def member(v):
            acc = 0
            for c, x in zip(nums, v):
                acc += c * x
            if acc >= den:
                return True, None
            return False, sep

        return member

    query = warm_lp(gens, threshold)

    def member(v):
        sep_frac = query(v)
        if sep_frac is None:
            return True, None
        scale = lcm(*(c.denominator for c in sep_frac))
        nums = tuple(int(c * scale) for c in sep_frac)
        return False, (nums, threshold * scale)

    return member


def np_member(I: MonomialIdeal, v) -> MembershipVerdict:
    """Exact Newton-polyhedron membership with a validating certificate."""
    _require_proper(I, "Newton-polyhedron membership")
    v = _check_vector(v, I.dim)
    profile = _halfspace_profile(I.generators, I.dim)
    if profile is not None:
        nums, base, corner = profile
        acc = sum(n * x for n, x in zip(nums, v))
        if acc < base:
            sep = tuple(Fraction(n, base) for n in nums)
            return MembershipVerdict(OUTSIDE, outside_separator=sep)
        # spread the mass over the corner columns: with T = sum(v_i/a_i),
        # the weights (v_i/a_i)/T are nonnegative, sum to one, and their
        # combination is v/T <= v
        weights = tuple(
            (corner[i], Fraction(nums[i] * v[i], acc))
            for i in range(I.dim)
            if nums[i] and v[i]
        )
        return MembershipVerdict(INSIDE, inside_weights=tuple(sorted(weights)))
    res = max_weight_lp(I.generators, v, 1)
    if res[0] == INSIDE:
        weights = tuple(sorted(res[1].items()))
        return MembershipVerdict(INSIDE, inside_weights=weights)
    return MembershipVerdict(OUTSIDE, outside_separator=res[1])


def pure_power_member(alpha, v) -> bool:
    """Whether sum(v_i / alpha_i) >= 1, in exact integer arithmetic.

    Agrees with np_member on the ideal (x_1^a1, ..., x_n^an); stated as the
    closed form because pure powers need no LP.
    """
    alpha = tuple(alpha)
    if any(a < 1 for a in alpha):
        raise ValueError("pure-power exponents must all be >= 1")
    v = _check_vector(v, len(alpha))
    base = lcm(*alpha)
    return sum((base // a) * x for a, x in zip(alpha, v)) >= base


def _missing_generators(seeds, base_gens, threshold, limit=None):
    """Minimal generators of ``threshold * NP(base_gens)`` that no seed divides.

    ``seeds`` generate an ideal K, minimally or not, and base_gens span
    NP(K) scaled down by threshold.  A lex-sorted list, empty exactly when
    K is integrally closed; with ``limit``, only the ``limit`` lex-least
    ones.  Scans the box of the seeds, seeded with them.
    """
    bounds = tuple(map(max, zip(*seeds)))
    member = _scan_member(base_gens, len(bounds), threshold)
    return kernels.box_closure_scan(bounds, seeds, member, limit)


def closure(I: MonomialIdeal, max_generators: int | None = None) -> MonomialIdeal:
    """Integral closure: the ideal of all lattice points of NP(I).

    Minimal closure generators live in the box bounded by the componentwise
    maximum of the generators (above it, subtracting 1 from an oversized
    coordinate stays in the polyhedron), so a pruned box scan finds them all.
    The finds are minimal and no generator of I divides one, so the closure
    keeps every find and the generators of I that no find divides.
    """
    _require_proper(I, "integral closure")
    _require_budget(max_generators)
    limit = None if max_generators is None else max_generators + 1
    found = _missing_generators(I.generators, I.generators, 1, limit)
    if len(found) == limit:
        raise GeneratorBudgetError(f"more than {limit - 1} new generators in box scan")
    keep = kernels._undominated(found, I.generators, 0)
    gens = sorted([g for g, ok in zip(I.generators, keep) if ok] + found)
    return MonomialIdeal._from_antichain(I.dim, gens)


def _witness_search(gens, v, k):
    """Multiset of exactly k generator indices with sum <= k*v, or None.

    Depth-first over generators in canonical order, trying high counts
    first; coordinate budgets prune infeasible branches immediately.
    """
    budget = [k * c for c in v]
    m = len(gens)
    counts = [0] * m

    def rec(j, slots):
        if slots == 0:
            return True
        if j == m:
            return False
        g = gens[j]
        cap = slots
        for i, c in enumerate(g):
            if c and budget[i] // c < cap:
                cap = budget[i] // c
        for take in range(cap, -1, -1):
            counts[j] = take
            if take:
                for i, c in enumerate(g):
                    budget[i] -= take * c
            if rec(j + 1, slots - take):
                return True
            if take:
                for i, c in enumerate(g):
                    budget[i] += take * c
        counts[j] = 0
        return False

    if rec(0, k):
        return list(counts)
    return None


def dependence_witness(I: MonomialIdeal, v) -> DependenceWitness:
    """Smallest-power explicit dependence equation for an inside point.

    The LP certificate bounds the search: at k = lcm of the weight
    denominators the weights themselves scale to an integer multiset, so
    some k at or below that always works and the minimal one is found.
    """
    return _dependence(I, v, np_member(I, v))


def _dependence(I, v, verdict):
    # dependence_witness for a caller that already holds np_member(I, v)
    if not verdict.is_inside:
        raise ValueError(f"{v} is outside the Newton polyhedron; no witness exists")
    v = tuple(v)
    k_max = lcm(*(w.denominator for _, w in verdict.inside_weights))
    for k in range(1, k_max + 1):
        counts = _witness_search(I.generators, v, k)
        if counts is not None:
            factors = []
            total = [0] * I.dim
            for j, c in enumerate(counts):
                factors.extend([j] * c)
                for i, x in enumerate(I.generators[j]):
                    total[i] += c * x
            slack = tuple(k * c - t for c, t in zip(v, total))
            return DependenceWitness(k, tuple(factors), slack)
    raise AssertionError("certificate bound must admit a witness")


def validate_certificate(I: MonomialIdeal, v, verdict: MembershipVerdict) -> bool:
    """Re-check every certificate inequality exactly; False on malformed input."""
    try:
        v = tuple(v)
        if len(v) != I.dim:
            return False
        gens = I.generators
        if verdict.decision == INSIDE:
            if verdict.inside_weights is None or verdict.outside_separator is not None:
                return False
            total = [Fraction(0)] * I.dim
            weight_sum = Fraction(0)
            for j, w in verdict.inside_weights:
                if not 0 <= j < len(gens) or w < 0:
                    return False
                weight_sum += w
                for i, c in enumerate(gens[j]):
                    total[i] += w * c
            return weight_sum == 1 and all(t <= x for t, x in zip(total, v))
        if verdict.decision == OUTSIDE:
            sep = verdict.outside_separator
            if sep is None or verdict.inside_weights is not None:
                return False
            if len(sep) != I.dim or any(c < 0 for c in sep):
                return False
            for g in gens:
                if sum(c * x for c, x in zip(sep, g)) < 1:
                    return False
            return sum(c * x for c, x in zip(sep, v)) < 1
        return False
    except (TypeError, ValueError, AttributeError):
        return False
