"""Newton polyhedron membership, integral closure, dependence witnesses."""

import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoclose import newton
from monoclose.errors import DegenerateIdealError
from monoclose.ideals import MonomialIdeal, contains_monomial
from monoclose.newton import (
    INSIDE,
    OUTSIDE,
    DependenceWitness,
    MembershipVerdict,
    _facets,
    _halfspace_profile,
    _missing_generators,
    _scan_oracle,
    closure,
    dependence_witness,
    np_member,
    pure_power_member,
    validate_certificate,
)
from monoclose.simplex import max_weight_lp
from test_acceptance import _solve_square
from test_completeness import CYCLIC_4, LP_MID_WALK


@st.composite
def proper_ideal(draw, max_dim=4, max_coord=9, max_gens=6):
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(0, max_coord)] * dim)
    gens = draw(
        st.lists(vec.filter(lambda v: any(v)), min_size=1, max_size=max_gens)
    )
    return MonomialIdeal(dim, tuple(gens))


@st.composite
def ideal_and_point(draw):
    I = draw(proper_ideal())
    v = tuple(draw(st.integers(0, 14)) for _ in range(I.dim))
    return I, v


def test_membership_known_values():
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    assert np_member(I, (0, 3, 3)).is_inside
    assert np_member(I, (2, 4, 5)).is_inside
    out = np_member(I, (0, 3, 2))
    assert not out.is_inside
    assert out.outside_separator == (
        Fraction(1, 4),
        Fraction(1, 5),
        Fraction(1, 7),
    )


def test_membership_rejects_degenerate():
    with pytest.raises(DegenerateIdealError):
        np_member(MonomialIdeal(2, ()), (1, 1))
    with pytest.raises(DegenerateIdealError):
        np_member(MonomialIdeal(2, ((0, 0),)), (1, 1))


def test_pure_power_member_halfspace():
    # sum of v_i/alpha_i >= 1, decided in integers
    assert pure_power_member((4, 5, 7), (0, 3, 3))
    assert not pure_power_member((4, 5, 7), (0, 3, 2))
    assert pure_power_member((2,), (2,))
    assert not pure_power_member((2,), (1,))
    with pytest.raises(ValueError):
        pure_power_member((4, 0, 7), (1, 1, 1))


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.data())
def test_pure_power_member_agrees_with_lp(alpha, data):
    alpha = tuple(alpha)
    v = tuple(data.draw(st.integers(0, 12)) for _ in alpha)
    diag = MonomialIdeal(
        len(alpha),
        tuple(
            tuple(a if i == j else 0 for j in range(len(alpha)))
            for i, a in enumerate(alpha)
        ),
    )
    assert pure_power_member(alpha, v) == np_member(diag, v).is_inside


def test_halfspace_with_a_cornerless_axis_agrees_with_lp():
    # no generator sits on the z axis: NP is x + y >= 2 with z free
    I = MonomialIdeal(3, ((2, 0, 0), (0, 2, 0), (1, 1, 5)))
    assert _halfspace_profile(I.generators, I.dim) == ((1, 1, 0), 2, [2, 0, -1])
    for v in itertools.product(range(3), range(3), range(6)):
        verdict = np_member(I, v)
        assert verdict.decision == max_weight_lp(I.generators, v, 1)[0]
        assert validate_certificate(I, v, verdict)


@given(ideal_and_point())
def test_membership_is_up_closed(case):
    I, v = case
    verdict = np_member(I, v)
    if verdict.is_inside:
        for i in range(I.dim):
            bumped = tuple(c + (j == i) for j, c in enumerate(v))
            assert np_member(I, bumped).is_inside
    else:
        shrunk = tuple(max(0, c - 1) for c in v)
        assert not np_member(I, shrunk).is_inside


@given(ideal_and_point())
def test_certificates_validate(case):
    I, v = case
    verdict = np_member(I, v)
    assert validate_certificate(I, v, verdict)


def test_tampered_certificates_fail():
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    good = np_member(I, (0, 3, 3))
    bad = type(good)(
        decision=good.decision,
        inside_weights=tuple(
            (j, w / 2) for j, w in good.inside_weights
        ),
    )
    assert not validate_certificate(I, (0, 3, 3), bad)
    out = np_member(I, (0, 3, 2))
    flipped = type(out)(decision="inside", inside_weights=out.outside_separator)
    assert not validate_certificate(I, (0, 3, 2), flipped)
    floats = MembershipVerdict(OUTSIDE, outside_separator=(0.25, 0.2, 1 / 7))
    assert not validate_certificate(I, (0, 3, 2), floats)
    # (2^59, 2^59) is outside (x^a, y^a) for a = 2^60 + 1, but float weights
    # of 1/2 would round its combination of the generators down onto it
    a = 2**60 + 1
    J = MonomialIdeal(2, ((a, 0), (0, a)))
    assert not np_member(J, (2**59, 2**59)).is_inside
    halves = MembershipVerdict(INSIDE, inside_weights=((0, 0.5), (1, 0.5)))
    assert not validate_certificate(J, (2**59, 2**59), halves)
    # and a float separator would round this inside point of (x^b, y^b),
    # b = 2^54 + 3, outside
    b = 2**54 + 3
    K = MonomialIdeal(2, ((b, 0), (0, b)))
    u = (2**53 + 1, 2**53 + 2)
    assert np_member(K, u).is_inside
    c = 1 / (2**54 + 4)
    assert not validate_certificate(K, u, MembershipVerdict(OUTSIDE, outside_separator=(c, c)))
    # bools are ints to Python but no weights, separators or exponents
    L = MonomialIdeal(2, ((1, 0), (0, 1)))
    assert validate_certificate(L, (1, 1), np_member(L, (1, 1)))
    assert not validate_certificate(L, (1, 1.0), np_member(L, (1, 1)))
    assert not validate_certificate(L, (1, True), np_member(L, (1, 1)))
    assert validate_certificate(L, (0, 1), MembershipVerdict(INSIDE, inside_weights=((0, 1),)))
    assert not validate_certificate(L, (0, 1), MembershipVerdict(INSIDE, inside_weights=((0, True),)))
    assert validate_certificate(L, (0, 0), MembershipVerdict(OUTSIDE, outside_separator=(1, 1)))
    assert not validate_certificate(L, (0, 0), MembershipVerdict(OUTSIDE, outside_separator=(True, True)))
    # each decision carries its own certificate and not the other's, and
    # no other decision validates
    weights, separator = ((0, 1),), (1, 1)
    for verdict, v in [
        (MembershipVerdict(INSIDE), (0, 1)),
        (MembershipVerdict(INSIDE, weights, separator), (0, 1)),
        (MembershipVerdict(OUTSIDE), (0, 0)),
        (MembershipVerdict(OUTSIDE, weights, separator), (0, 0)),
        (MembershipVerdict("unknown", weights), (0, 1)),
        (MembershipVerdict("unknown", outside_separator=separator), (0, 0)),
    ]:
        assert not validate_certificate(L, v, verdict)


def _fraction_validate(I, v, verdict):
    # the Fraction-arithmetic validator that validate_certificate replaced,
    # kept as the reference for int and Fraction certificates
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


def _tampered(I, v, verdict):
    # (point, certificate) pairs: the true one, then one change away from it
    yield v, verdict
    yield v + (0,), verdict
    yield v[:-1], verdict
    for i, x in enumerate(v):
        if x:
            yield v[:i] + (x - 1,) + v[i + 1:], verdict
    if verdict.is_inside:
        ws = verdict.inside_weights
        for k, (j, w) in enumerate(ws):
            for bad in ((j, w / 2), (j, -w), (len(I.generators), w), (-1, w)):
                yield v, MembershipVerdict(INSIDE, inside_weights=ws[:k] + (bad,) + ws[k + 1:])
        return
    sep = verdict.outside_separator
    yield v, MembershipVerdict(OUTSIDE, outside_separator=sep + (Fraction(0),))
    for i, c in enumerate(sep):
        for bad in (c / 2, -c, Fraction(-1)):
            yield v, MembershipVerdict(OUTSIDE, outside_separator=sep[:i] + (bad,) + sep[i + 1:])
        # lower c_i until the generator with the least margin on axis i fails
        margins = [(sum(map(mul, sep, g)) - 1, g[i]) for g in I.generators if g[i]]
        if margins:
            over, gi = min(margins, key=lambda m: m[0] / m[1])
            low = c - over / gi - Fraction(1, 2 * gi)
            yield v, MembershipVerdict(OUTSIDE, outside_separator=sep[:i] + (low,) + sep[i + 1:])


@settings(max_examples=200, deadline=None)
@given(ideal_and_point())
@example((CYCLIC_4, (1, 1, 2, 2)))
@example((CYCLIC_4, (1, 1, 1, 1)))
def test_integer_validator_matches_the_fraction_one(case):
    I, v = case
    verdict = np_member(I, v)
    assert validate_certificate(I, v, verdict)
    for u, cert in _tampered(I, v, verdict):
        assert validate_certificate(I, u, cert) == _fraction_validate(I, u, cert)


def test_closure_known_example():
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    C = closure(I)
    assert len(C.generators) == 19
    assert (0, 3, 3) in C.generators
    # (2,4,5) is a multiple of (0,3,3): contained but not minimal
    assert (2, 4, 5) not in C.generators
    assert contains_monomial(C, (2, 4, 5))


def test_closure_drops_only_the_generators_a_find_divides():
    # NP is x + y >= 4: the scan finds (1,3), (2,2), (3,1), and (2,2)
    # divides the generator (3,3), which leaves; (4,0) and (0,4) stay
    I = MonomialIdeal(2, ((4, 0), (0, 4), (3, 3)))
    oracle = _scan_oracle(I.generators, I.dim)
    assert _missing_generators(I.generators, oracle, 1) == [(1, 3), (2, 2), (3, 1)]
    assert closure(I).generators == ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0))


@given(proper_ideal(max_dim=3, max_coord=7, max_gens=4))
@settings(max_examples=60, deadline=None)
def test_closure_contains_and_is_idempotent(I):
    C = closure(I)
    for g in I.generators:
        assert contains_monomial(C, g)
    assert closure(C) == C
    # closure generators stay inside the bounding box of the original gens
    bounds = tuple(max(g[i] for g in I.generators) for i in range(I.dim))
    for g in C.generators:
        assert all(a <= b for a, b in zip(g, bounds))
    # and every closure generator is certified inside the polyhedron
    for g in C.generators:
        assert np_member(I, g).is_inside


def test_dependence_witness_known_case():
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    wit = dependence_witness(I, (0, 3, 3))
    assert wit.power == 5
    assert len(wit.factors) == 5
    total = [0, 0, 0]
    for j in wit.factors:
        for i, c in enumerate(I.generators[j]):
            total[i] += c
    lhs = tuple(5 * c for c in (0, 3, 3))
    assert tuple(t + s for t, s in zip(total, wit.slack)) == lhs
    assert all(s >= 0 for s in wit.slack)


def _counted_solves(monkeypatch):
    # the max_weight_lp calls np_member makes from here on, from an empty memo
    lp, solves = newton.max_weight_lp, []

    def counted(*args):
        solves.append(args)
        return lp(*args)

    monkeypatch.setattr(newton, "max_weight_lp", counted)
    newton._np_verdict.cache_clear()
    return solves


def test_a_witness_after_its_verdict_solves_once(monkeypatch):
    solves = _counted_solves(monkeypatch)
    v = (1, 1, 2, 2)
    verdict = np_member(CYCLIC_4, v)
    assert verdict.inside_weights == ((0, Fraction(7, 16)), (1, Fraction(1, 4)), (2, Fraction(5, 16)))
    # a list asks the same question as a tuple
    assert dependence_witness(CYCLIC_4, list(v)) == DependenceWitness(5, (0, 0, 1, 2, 2), (3, 1, 1, 0))
    assert len(solves) == 1
    # the same point of another ideal, where it is outside
    doubled = MonomialIdeal(4, tuple(tuple(2 * c for c in g) for g in CYCLIC_4.generators))
    assert not np_member(doubled, v).is_inside
    with pytest.raises(ValueError):
        dependence_witness(doubled, v)
    # another point of the same ideal, then the first point again
    assert not np_member(CYCLIC_4, (1, 1, 1, 1)).is_inside
    assert np_member(CYCLIC_4, v) == verdict
    assert solves == [
        (CYCLIC_4.generators, v, 1),
        (doubled.generators, v, 1),
        (CYCLIC_4.generators, (1, 1, 1, 1), 1),
        (CYCLIC_4.generators, v, 1),
    ]


def test_dependence_witness_takes_any_iterable():
    # the point is read once, so a one-shot iterator gives the same witness
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    want = dependence_witness(I, (0, 3, 3))
    assert want.power == 5
    assert dependence_witness(I, [0, 3, 3]) == want
    assert dependence_witness(I, iter((0, 3, 3))) == want


def test_dependence_witness_rejects_outside_points():
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    with pytest.raises(ValueError):
        dependence_witness(I, (0, 3, 2))


@given(ideal_and_point())
@settings(max_examples=60, deadline=None)
def test_dependence_witness_is_valid_and_minimal(case):
    I, v = case
    if not np_member(I, v).is_inside:
        return
    wit = dependence_witness(I, v)
    k = wit.power
    assert len(wit.factors) == k
    assert all(s >= 0 for s in wit.slack)
    total = [0] * I.dim
    for j in wit.factors:
        for i, c in enumerate(I.generators[j]):
            total[i] += c
    assert tuple(t + s for t, s in zip(total, wit.slack)) == tuple(k * c for c in v)
    # minimality: no multiset of size < k works (brute force for tiny k)
    if k <= 3:
        for smaller in range(1, k):
            assert not _exists_combo(I.generators, v, smaller)


def _exists_combo(gens, v, k):
    target = tuple(k * c for c in v)

    def rec(remaining, start, acc):
        if remaining == 0:
            return all(a <= t for a, t in zip(acc, target))
        for j in range(start, len(gens)):
            nxt = tuple(a + c for a, c in zip(acc, gens[j]))
            if all(a <= t for a, t in zip(nxt, target)):
                if rec(remaining - 1, j, nxt):
                    return True
        return False

    return rec(k, 0, (0,) * len(v))


def test_closure_unit_dimension_one():
    I = MonomialIdeal(1, ((5,),))
    assert closure(I) == I
    assert np_member(I, (5,)).is_inside
    assert not np_member(I, (4,)).is_inside


def brute_facets(gens, dim):
    """Vertices of Q = {y >= 0 : y . a_j >= 1} as reduced (nums, den).

    Every dim-subset of Q's constraints is made tight and solved; the
    feasible solutions are the vertices.
    """
    units = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    constraints = [(u, 0) for u in units] + [(a, 1) for a in gens]
    found = set()
    for subset in itertools.combinations(constraints, dim):
        rows = [[Fraction(x) for x in r] for r, _ in subset]
        y = _solve_square(rows, [Fraction(b) for _, b in subset])
        if y is None or any(c < 0 for c in y):
            continue
        if all(sum(c * x for c, x in zip(y, a)) >= 1 for a in gens):
            den = math.lcm(*(c.denominator for c in y))
            found.add((tuple(int(c * den) for c in y), den))
    return sorted(found)


@given(proper_ideal(max_dim=4, max_coord=6, max_gens=6))
@settings(max_examples=150, deadline=None)
# two rays whose common tight set passes the count test without their
# being adjacent: joining them would add a ray that is no vertex of Q
@example(MonomialIdeal(5, ((0, 1, 2, 3, 2), (0, 3, 2, 3, 0), (1, 2, 4, 0, 4), (2, 2, 1, 2, 2))))
def test_facets_match_a_brute_force_vertex_enumeration(I):
    facets = _facets(I.generators, I.dim)
    assert [(nums, den) for nums, den, _ in facets] == brute_facets(I.generators, I.dim)
    # the generators on each facet, read off its ray's tight set, are those
    # whose dot product with it is exactly its denominator: bit j of its
    # mask for generator j
    for nums, den, on in facets:
        on_facet = [sum(map(mul, nums, a)) == den for a in I.generators]
        assert on == sum(1 << j for j, ok in enumerate(on_facet) if ok)


@given(proper_ideal(max_dim=5, max_coord=5, max_gens=6))
@settings(max_examples=60, deadline=None)
def test_facets_are_valid_and_shared_with_the_closure(I):
    facets = _facets(I.generators, I.dim)
    assert facets
    for nums, den, on in facets:
        assert on is not None
        assert den > 0 and min(nums) >= 0
        assert math.gcd(*nums, den) == 1
        for a in I.generators:
            assert sum(map(mul, nums, a)) >= den
    C = closure(I)
    closed = _facets(C.generators, C.dim)
    assert all(on is not None for _, _, on in closed)
    assert [f[:2] for f in closed] == [f[:2] for f in facets]


def test_facets_stop_on_work_alone():
    # a random 10-variable ideal (27 vectors in 0..5, 26 minimal
    # generators) whose DD passes DD_MAX_WORK long before it finishes: the
    # list is partial, no facet is marked with its generators, and every
    # facet kept is valid
    rng = random.Random(0)
    I = MonomialIdeal(10, tuple(tuple(rng.randint(0, 5) for _ in range(10)) for _ in range(27)))
    assert len(I.generators) == 26
    facets = _facets(I.generators, I.dim)
    assert len(facets) == 594
    for nums, den, on in facets:
        assert on is None
        assert den > 0 and min(nums) >= 0
        assert all(sum(map(mul, nums, a)) >= den for a in I.generators)


@st.composite
def ideal_and_points(draw):
    I = draw(proper_ideal())
    vec = st.tuples(*[st.integers(0, 14)] * I.dim)
    return I, draw(st.lists(vec, min_size=1, max_size=8)), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(ideal_and_points())
@example((LP_MID_WALK, [(1, 2, 2), (1, 1, 1), (2, 3, 2), (0, 2, 6)], 2))
@example((CYCLIC_4, [(0, 2, 3, 1), (1, 1, 4, 4), (2, 2, 2, 2), (1, 1, 1, 1)], 1))
@example((CYCLIC_4, [(0, 2, 3, 1), (1, 1, 4, 4), (2, 2, 2, 2), (1, 1, 1, 1)], 2))
def test_scan_oracle_decides_as_max_weight_lp(case):
    # the facets decide each point outside them, with the most violated one
    # as a valid separator; the oracle keeps no state, so the order of the
    # points does not matter
    I, points, k = case
    member = _scan_oracle(I.generators, I.dim)(k)
    answers = [member(v) for v in points]
    for v, (inside, sep) in zip(points, answers):
        assert inside == (max_weight_lp(I.generators, v, k)[0] == "inside")
        if not inside:
            nums, den = sep
            assert min(nums) >= 0 and sum(map(mul, nums, v)) < den
            assert all(k * sum(map(mul, nums, a)) >= den for a in I.generators)
            facets = _facets(I.generators, I.dim)
            least = min(Fraction(sum(map(mul, n, v)), d) for n, d, _ in facets)
            assert Fraction(k * sum(map(mul, nums, v)), den) == least
    assert [member(v) for v in reversed(points)] == answers[::-1]
