"""Newton polyhedron membership, integral closure, dependence witnesses."""

import itertools
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoclose.errors import DegenerateIdealError
from monoclose.ideals import MonomialIdeal, contains_monomial
from monoclose.newton import (
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
    assert _facets(I.generators, I.dim) == brute_facets(I.generators, I.dim)


@given(proper_ideal(max_dim=5, max_coord=5, max_gens=6))
@settings(max_examples=60, deadline=None)
def test_facets_are_valid_and_shared_with_the_closure(I):
    facets = _facets(I.generators, I.dim)
    assert facets
    for nums, den in facets:
        assert den > 0 and min(nums) >= 0
        assert math.gcd(*nums, den) == 1
        for a in I.generators:
            assert sum(map(mul, nums, a)) >= den
    C = closure(I)
    assert _facets(C.generators, C.dim) == facets


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
            least = min(Fraction(sum(map(mul, n, v)), d) for n, d in _facets(I.generators, I.dim))
            assert Fraction(k * sum(map(mul, nums, v)), den) == least
    assert [member(v) for v in reversed(points)] == answers[::-1]
