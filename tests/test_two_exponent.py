"""The two-exponent family: lambda arithmetic, generator sets, identities."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoclose.errors import GeneratorBudgetError
from monoclose.ideals import MonomialIdeal, colon_by_maximal, power
from monoclose.newton import closure, pure_power_member
from monoclose.two_exponent import (
    TwoExponentSpec,
    check_lambda_inequality,
    generators_F,
    ideal_I,
    ideal_J,
    lambda_ceil,
    socle_generators,
    verify_all,
)


@given(st.integers(0, 400), st.integers(1, 30), st.integers(1, 40))
def test_lambda_ceil_is_exact_ceiling(a, s, l):
    assert lambda_ceil(a, s, l) == math.ceil(Fraction(a * l, s))


def test_lambda_ceil_rejects_bad_input():
    # integer arithmetic only: no float or bool passes for an int
    for args in ((-1, 2, 3), (1, 0, 3), (1.5, 2, 3), (2, 2.0, 3), (2, 2, 3.5), (True, 2, 3)):
        with pytest.raises(ValueError):
            lambda_ceil(*args)


@given(st.integers(1, 8), st.integers(1, 14), st.integers(0, 60), st.integers(0, 60))
def test_lambda_subadditive(s, l, a, b):
    assert lambda_ceil(a + b, s, l) <= lambda_ceil(a, s, l) + lambda_ceil(b, s, l)


@given(st.integers(1, 8), st.integers(1, 14), st.integers(1, 4), st.data())
def test_lambda_shift(s, l, k, data):
    # lambda_{ks + r} = k*l + lambda_r for 0 <= r <= s, both endpoints included
    r = data.draw(st.integers(0, s))
    assert lambda_ceil(k * s + r, s, l) == k * l + lambda_ceil(r, s, l)


@given(st.integers(1, 6), st.data(), st.integers(1, 4))
def test_lambda_inequality_holds(s, data, k):
    l = data.draw(st.integers(s, 12))
    witnesses = check_lambda_inequality(s, l, k)
    assert witnesses
    for w in witnesses:
        assert w.lhs >= w.rhs
        # the stated division identity behind each witness
        assert (k * s - 1) * l == w.t * s + w.r
        assert 1 <= w.r <= s


def figure_spec():
    return TwoExponentSpec(m=1, n=1, s=2, l=7, k=3)


def test_f3_matches_known_staircase():
    expected = [(0, 21), (1, 18), (2, 14), (3, 11), (4, 7), (5, 4), (6, 0)]
    assert generators_F(figure_spec()) == expected


def test_ideal_i_is_pure_powers():
    spec = figure_spec()
    assert set(ideal_I(spec).generators) == {(6, 0), (0, 21)}
    assert ideal_I(TwoExponentSpec(2, 2, 3, 5, 2)).generators == (
        (0, 0, 0, 10),
        (0, 0, 10, 0),
        (0, 6, 0, 0),
        (6, 0, 0, 0),
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        TwoExponentSpec(1, 1, 7, 2)
    with pytest.raises(ValueError, match="^requires l >= s$"):
        check_lambda_inequality(3, 2, 1)
    with pytest.raises(ValueError):
        TwoExponentSpec(0, 1, 2, 3)
    with pytest.raises(ValueError):
        TwoExponentSpec(1, 1, 2, 3, 0)


@pytest.mark.parametrize("args, name", [
    ((1, 1, 2, 7, True), "k"),
    ((1, 1, 2.5, 7), "s"),
])
def test_spec_refuses_non_integer_parameters(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        TwoExponentSpec(*args)


@pytest.mark.parametrize("args, name", [
    ((0, 3, 1), "s"),
    ((2, 3, 1.0), "k"),
])
def test_lambda_inequality_refuses_bad_parameters(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be (at least 1|an integer), got "):
        check_lambda_inequality(*args)


@st.composite
def small_spec(draw, max_k=3):
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    s = draw(st.integers(1, 4))
    l = draw(st.integers(s, 7))
    k = draw(st.integers(1, max_k))
    return TwoExponentSpec(m, n, s, l, k)


@given(small_spec())
@settings(max_examples=60, deadline=None)
def test_f_generators_structure(spec):
    gens = generators_F(spec)
    # one block of compositions per x-degree a = 0..ks
    ks = spec.k * spec.s
    seen_a = {sum(g[: spec.m]) for g in gens}
    assert seen_a == set(range(ks + 1))
    for g in gens:
        a = sum(g[: spec.m])
        assert sum(g[spec.m :]) == lambda_ceil(ks - a, spec.s, spec.l)
    # the set is already a minimal antichain
    assert MonomialIdeal(spec.dim, tuple(gens)).generators == tuple(gens)


@given(small_spec())
@settings(max_examples=40, deadline=None)
def test_power_identity(spec):
    base = TwoExponentSpec(spec.m, spec.n, spec.s, spec.l, 1)
    assert power(ideal_J(base), spec.k) == ideal_J(spec)


@given(small_spec(max_k=2))
@settings(max_examples=25, deadline=None)
def test_closure_identity(spec):
    assert closure(ideal_I(spec)) == ideal_J(spec)


@given(small_spec())
@settings(max_examples=40, deadline=None)
def test_generators_lie_on_the_boundary(spec):
    alpha = spec.alpha_vector()
    for g in generators_F(spec):
        assert pure_power_member(alpha, g)
        # dropping any positive coordinate exits the polyhedron: the
        # generators sit on the lower boundary
        for i, c in enumerate(g):
            if c:
                shrunk = tuple(x - (j == i) for j, x in enumerate(g))
                assert not pure_power_member(alpha, shrunk)


@given(small_spec())
@settings(max_examples=40, deadline=None)
def test_socle_vectors_are_outside(spec):
    alpha = spec.alpha_vector()
    for v in socle_generators(spec):
        assert not pure_power_member(alpha, v)


def test_socle_formula_matches_colon_route():
    # the closed-form socle vectors are exactly the new generators of (J : m)
    for m, n, (s, l), k in itertools.product(
        (1, 2), (1, 2), ((1, 1), (2, 3), (2, 7), (3, 5)), (1, 2)
    ):
        spec = TwoExponentSpec(m, n, s, l, k)
        J = ideal_J(spec)
        new = set(colon_by_maximal(J).generators) - set(J.generators)
        assert set(socle_generators(spec)) == new, spec


def test_verify_all_passes_on_figure():
    report = verify_all(figure_spec())
    assert report.all_passed
    assert [c.name for c in report.checks] == [
        "generators_integral",
        "power_identity",
        "closure_identity",
        "socle_outside",
        "normality",
    ]


def test_budget_guard():
    spec = TwoExponentSpec(m=6, n=6, s=5, l=7, k=3)
    with pytest.raises(GeneratorBudgetError, match="enumerate 31673523 generators"):
        generators_F(spec, budget=1000)
    with pytest.raises(GeneratorBudgetError, match="enumerate 21255933 generators"):
        socle_generators(spec, 1000)


def test_budget_below_one_is_refused():
    for enumerate_ in (generators_F, socle_generators):
        with pytest.raises(ValueError, match="max_generators must be at least 1"):
            enumerate_(figure_spec(), 0)
        for budget in (1.5, True):
            with pytest.raises(ValueError, match="max_generators must be an integer"):
                enumerate_(figure_spec(), budget)


def test_budget_none_is_no_cap():
    assert generators_F(figure_spec(), None) == generators_F(figure_spec())
    assert socle_generators(figure_spec(), None) == socle_generators(figure_spec())


def test_verify_all_enumerates_f_under_max_generators():
    # F_3 of the figure has 7 vectors
    assert verify_all(figure_spec(), max_generators=7).all_passed
    with pytest.raises(GeneratorBudgetError, match="enumerate 7 generators"):
        verify_all(figure_spec(), max_generators=6)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="max_generators must be at least 1"):
            verify_all(figure_spec(), max_generators=budget)
    for budget in (1.5, True):
        with pytest.raises(ValueError, match="max_generators must be an integer"):
            verify_all(figure_spec(), max_generators=budget)


def test_degenerate_s_equals_l():
    # s == l collapses to a single exponent; everything still holds
    report = verify_all(TwoExponentSpec(1, 2, 3, 3, 2))
    assert report.all_passed
