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
Box scans test each point against the facets of NP(I), found once per ideal
by double description, and ask the LP only about the points inside them.
Double description also reports the generators on each facet as a bitmask,
read off the tight sets of its rays, unless a cap on its work cut it short.
When it finished, the facets are the vertices of the LP's dual feasible
region, so every facet nearest such a point is an optimal dual.  One pass
over the facets finds the nearest ones and the generators on all of them,
and the LP runs over only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

from . import kernels
from .errors import DegenerateIdealError, GeneratorBudgetError
from .ideals import MonomialIdeal, _check_vector, _is_int, _require_count
from .simplex import max_weight_lp

INSIDE = "inside"
OUTSIDE = "outside"

# Most rays the adjacency tests of ``_facets`` scan in all before it stops
# with a partial facet list.  10**6 scans take about 0.2 s in pure Python
# 3.11 on a 2-vCPU guest; the largest run among the tests and the CI ideals
# (the 6-variable ideal with 62 facets) makes 3,865.  Each joined ray costs
# one test that scans every current ray, so this bounds the rays held too:
# over 270 random ideals in 4-12 variables, a stopped run held at most
# 1,448 rays, and holding about 5,000 takes 19-23 million scans.
DD_MAX_WORK = 10**6


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
    # one meaning for every entry point: None, or a count
    if max_generators is not None:
        _require_count("max_generators", max_generators)


def _require_exponents(alpha, what="pure-power exponents"):
    """``alpha`` as a nonempty tuple of ints >= 1; ``what`` names it in errors."""
    alpha = tuple(alpha)
    if not alpha:
        raise ValueError(f"{what} must not be empty")
    for a in alpha:
        _require_count(f"each of the {what}", a)
    return alpha


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


def _facets(gens, dim):
    """Facets of NP(gens) off the coordinate planes, as integer (nums, den).

    They are the vertices y = nums / den of the blocker Q = {y >= 0 :
    y . a_j >= 1} (Fulkerson, "Blocking polyhedra", 1970), so a point v >= 0
    lies in k NP(gens) exactly when nums . v >= k den for each of them.
    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996) of the
    cone {(y, t) >= 0 : a_j . y >= t}: start from its n + 1 unit rays and
    cut by one generator at a time, fewest nonzero coordinates first, then
    by degree, joining each positive/negative pair of rays that no third
    ray's tight set covers.  Rays stay gcd-reduced integers, each a
    nonnegative combination of the unit rays; a tight set is a bitmask with
    bit i for the i-th coordinate of (y, t) and bit n + 1 + j for
    ``gens[j]``.  A ray joined from p and q is positive on an earlier cut
    exactly where p or q is, so tight sets are exact.

    Returns the facets as sorted (nums, den, on) triples.  A finished run's
    rays meet every cut, so its facets are the rays with t > 0, and ``on``
    is the int bitmask of the generators on each (nums . a = den), bit j for
    ``gens[j]``: its ray's tight set shifted down by n + 1.  The run stops
    early once its adjacency tests have scanned more than ``DD_MAX_WORK``
    rays in all (each test scans every current ray, so a step costs up to
    plus * minus * rays even when few pairs are adjacent).  The list is
    then partial, possibly empty: it keeps only the rays with t > 0 and
    a_j . y >= t for every generator, each with ``on`` None, since its
    tight set has no bit for the generators not yet cut, and the scan
    oracle's LP decides what it misses.
    """
    d = dim + 1
    rays = [(tuple(int(i == k) for i in range(d)), ((1 << d) - 1) ^ (1 << k))
            for k in range(d)]
    # the generator indices in cut order: fewest nonzero coordinates first
    order = sorted(range(len(gens)), key=lambda j: (dim - gens[j].count(0), sum(gens[j])))
    work = 0  # rays scanned by the adjacency tests so far
    for j in order:
        a = gens[j]
        bit = 1 << (d + j)
        plus, minus, cut = [], [], []
        for r, z in rays:
            s = sum(map(mul, a, r)) - r[dim]
            if s > 0:
                plus.append((s, r, z))
                cut.append((r, z))
            elif s < 0:
                minus.append((s, r, z))
            else:
                cut.append((r, z | bit))
        for (sp, p, zp), (sq, q, zq) in product(plus, minus):
            if work > DD_MAX_WORK:
                break
            common = zp & zq
            if common.bit_count() < d - 2:
                continue
            work += len(rays)
            if any(z & common == common and z != zp and z != zq for _, z in rays):
                continue
            r = [sp * x - sq * y for x, y in zip(q, p)]
            g = gcd(*r)
            cut.append((tuple(x // g for x in r), common | bit))
        rays = cut
        if work > DD_MAX_WORK:
            return sorted(
                (r[:dim], r[dim], None)
                for r, _ in rays
                if r[dim] > 0 and all(sum(map(mul, a, r)) >= r[dim] for a in gens)
            )
    return sorted((r[:dim], r[dim], z >> d) for r, z in rays if r[dim] > 0)


def _scan_oracle(gens, dim):
    """Membership callbacks for box scans over NP(gens) scaled by a threshold.

    Finds NP(gens)'s facets once and returns threshold -> member.  member(v)
    is (True, None) or (False, separator), the separator integer-scaled as
    (nums, den): sum(nums * u) >= den for every region point u and < den for
    the rejected v.  One pass over the facets finds the facet nearest v
    (least nums . v / den, compared by cross-multiplying; the first of any
    tie) and ``shared``, the mask of the generators on every facet tied with
    it.  When v violates the nearest facet, it is the most violated facet
    and the separator.  A halfspace profile is its own single facet, so
    every other point is inside with no LP.

    Otherwise one ``max_weight_lp`` call confirms a point inside every
    facet.  When ``_facets`` finished, its masks are ints and the facets are
    the blocker's vertices, so every facet tied for nearest v is an optimal
    dual of v's LP, and by complementary slackness every optimal weight
    vector lives on the generators in ``shared`` (Schrijver, "Theory of
    Linear and Integer Programming", 1986): the LP over those columns alone
    reaches the threshold.  Should the columns be none or fall short, which
    a correct list never lets happen, the LP over every generator decides,
    as it does behind a list that ``_facets`` cut short, whose masks are
    None.  The member keeps no state, so its answers do not depend on the
    points asked before.
    """
    profile = _halfspace_profile(gens, dim)
    facets = _facets(gens, dim) if profile is None else [profile[:2] + (None,)]

    def at(threshold):
        scaled = [(nums, threshold * den, on) for nums, den, on in facets]

        def member(v):
            # ((), 0, None) stands for no facet: every facet is nearer;
            # shared is None behind a truncated list and stays 0 once no
            # generator lies on every tie
            near, low, shared = ((), 0, None), 1, None
            for f in scaled:
                acc = sum(map(mul, f[0], v))
                gap = acc * near[1] - low * f[1]
                if gap < 0:
                    near, low, shared = f, acc, f[2]
                elif gap == 0 and shared:
                    shared &= f[2]
            if low < near[1]:
                return False, near[:2]
            if profile is not None:
                return True, None
            if shared:
                columns = [a for j, a in enumerate(gens) if shared >> j & 1]
                if max_weight_lp(columns, v, threshold)[0] == INSIDE:
                    return True, None
            res = max_weight_lp(gens, v, threshold)
            if res[0] == INSIDE:
                return True, None
            scale = lcm(*(c.denominator for c in res[1]))
            return False, (tuple(int(c * scale) for c in res[1]), threshold * scale)

        return member

    return at


def np_member(I: MonomialIdeal, v) -> MembershipVerdict:
    """Exact Newton-polyhedron membership with a validating certificate.

    Halfspace profiles answer in closed form, every other ideal by one
    ``max_weight_lp`` call.  The last query's verdict is remembered, keyed by
    (dim, generators, v) after ``v`` is checked, so asking again about the
    same point of the same ideal, as ``dependence_witness`` does, solves
    nothing.  Verdicts are frozen, so the shared instance is safe.
    """
    _require_proper(I, "Newton-polyhedron membership")
    return _np_verdict(I.dim, I.generators, _check_vector(v, I.dim))


@lru_cache(maxsize=1)
def _np_verdict(dim, gens, v):
    profile = _halfspace_profile(gens, dim)
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
            for i in range(dim)
            if nums[i] and v[i]
        )
        return MembershipVerdict(INSIDE, inside_weights=tuple(sorted(weights)))
    res = max_weight_lp(gens, v, 1)
    if res[0] == INSIDE:
        weights = tuple(sorted(res[1].items()))
        return MembershipVerdict(INSIDE, inside_weights=weights)
    return MembershipVerdict(OUTSIDE, outside_separator=res[1])


def pure_power_member(alpha, v) -> bool:
    """Whether sum(v_i / alpha_i) >= 1, in exact integer arithmetic.

    Agrees with np_member on the ideal (x_1^a1, ..., x_n^an); stated as the
    closed form because pure powers need no LP.
    """
    alpha = _require_exponents(alpha)
    v = _check_vector(v, len(alpha))
    base = lcm(*alpha)
    return sum((base // a) * x for a, x in zip(alpha, v)) >= base


def _missing_generators(seeds, oracle, threshold, limit=None):
    """Minimal generators of a scaled Newton polyhedron that no seed divides.

    ``oracle`` is a ``_scan_oracle`` whose polyhedron, scaled by
    ``threshold``, is NP(K) for the ideal K that ``seeds`` generate,
    minimally or not.  A lex-sorted list, empty exactly when
    K is integrally closed; with ``limit``, only the ``limit`` lex-least
    ones.  Scans the box of the seeds, seeded with them.
    """
    bounds = tuple(map(max, zip(*seeds)))
    return kernels.box_closure_scan(bounds, seeds, oracle(threshold), limit)


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
    oracle = _scan_oracle(I.generators, I.dim)
    found = _missing_generators(I.generators, oracle, 1, limit)
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
    The certificate is ``np_member(I, v)``'s, which right after the same
    query returns its remembered verdict without a second solve.  Raises
    ``ValueError`` when v lies outside NP(I).
    """
    _require_proper(I, "Newton-polyhedron membership")
    v = _check_vector(v, I.dim)
    verdict = np_member(I, v)
    if not verdict.is_inside:
        raise ValueError(f"{v} is outside the Newton polyhedron; no witness exists")
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


def _is_rational(x) -> bool:
    return isinstance(x, Fraction) or _is_int(x)


def validate_certificate(I: MonomialIdeal, v, verdict: MembershipVerdict) -> bool:
    """Re-check every certificate inequality exactly; False on malformed input.

    Works in integers over one common denominator D of the certificate's
    entries.  Inside: the scaled weights W_j = D w_j must be nonnegative,
    sum to D, and give sum(W_j a_j) <= D v.  Outside: the scaled separator
    C = D c must be nonnegative with C . a_j >= D for every generator and
    C . v < D.  Every weight and separator entry must be an int or a
    ``Fraction`` and v a vector of nonnegative ints; a float, a bool or any
    other non-rational entry makes the certificate invalid, so no floating
    point rounding can pass a false claim.
    """
    try:
        v = _check_vector(v, I.dim)
        gens = I.generators
        if verdict.decision == INSIDE:
            if verdict.inside_weights is None or verdict.outside_separator is not None:
                return False
            weights = tuple(verdict.inside_weights)
            for j, w in weights:
                if not 0 <= j < len(gens) or not _is_rational(w) or w < 0:
                    return False
            den = lcm(*(w.denominator for _, w in weights))
            total = [0] * I.dim
            weight_sum = 0
            for j, w in weights:
                scaled = w.numerator * (den // w.denominator)
                weight_sum += scaled
                for i, c in enumerate(gens[j]):
                    total[i] += scaled * c
            return weight_sum == den and all(t <= den * x for t, x in zip(total, v))
        if verdict.decision == OUTSIDE:
            sep = verdict.outside_separator
            if sep is None or verdict.inside_weights is not None:
                return False
            if len(sep) != I.dim or not all(_is_rational(c) and c >= 0 for c in sep):
                return False
            den = lcm(*(c.denominator for c in sep))
            scaled = [c.numerator * (den // c.denominator) for c in sep]
            for g in gens:
                if sum(map(mul, scaled, g)) < den:
                    return False
            return sum(map(mul, scaled, v)) < den
        return False
    except (TypeError, ValueError, AttributeError):
        return False
