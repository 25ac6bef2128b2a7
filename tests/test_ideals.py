"""Monomial ideal construction and arithmetic."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoclose import kernels
from monoclose.errors import DimensionMismatchError, GeneratorBudgetError
from monoclose.ideals import (
    POWER_MAX_K,
    MonomialIdeal,
    colon_by_maximal,
    colon_by_monomial,
    contains_monomial,
    intersect,
    minimalize,
    power,
    product,
)
from monoclose.newton import closure
from test_kernels import naive_minimal


@st.composite
def ideal_and_dim(draw, max_dim=4, max_coord=9, max_gens=7):
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(0, max_coord)] * dim)
    gens = draw(st.lists(vec, min_size=0, max_size=max_gens))
    return MonomialIdeal(dim, tuple(gens)), dim


@st.composite
def two_ideals(draw, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(0, 9)] * dim)
    gens = st.lists(vec, min_size=0, max_size=6)
    return (
        MonomialIdeal(dim, tuple(draw(gens))),
        MonomialIdeal(dim, tuple(draw(gens))),
        dim,
    )


def test_constructor_canonicalizes():
    I = MonomialIdeal(2, ((3, 1), (1, 2), (3, 1), (4, 4), (1, 2)))
    assert I.generators == ((1, 2), (3, 1))


def test_zero_and_unit():
    Z = MonomialIdeal(3, ())
    U = MonomialIdeal(3, ((0, 0, 0), (1, 2, 3)))
    assert Z.is_zero and not Z.is_unit and Z.is_proper
    assert U.is_unit and not U.is_zero and not U.is_proper
    I = MonomialIdeal(3, ((1, 0, 0),))
    assert I.is_proper and not I.is_zero


def test_constructor_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        MonomialIdeal(2, ((1, 2, 3),))
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, -2),))
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, True),))
    with pytest.raises(ValueError):
        MonomialIdeal(2, ((1, 2.0),))
    # nor do ideals of two dimensions combine
    I, J = MonomialIdeal(2, ((1, 2),)), MonomialIdeal(3, ((1, 2, 3),))
    for combine in (product, intersect):
        with pytest.raises(DimensionMismatchError):
            combine(I, J)


def test_constructor_refuses_a_non_integer_dimension():
    with pytest.raises(ValueError, match=r"^ambient dimension must be an integer, got 2\.0$"):
        MonomialIdeal(2.0, ((2, 0), (0, 3)))


@given(ideal_and_dim())
def test_minimalize_idempotent(pair):
    I, dim = pair
    assert minimalize(I.generators, dim) == I
    assert MonomialIdeal(dim, I.generators).generators == I.generators


@given(ideal_and_dim())
def test_generators_form_antichain(pair):
    I, _ = pair
    gens = I.generators
    assert list(gens) == sorted(set(gens))
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            assert not all(a <= b for a, b in zip(g, h))
            assert not all(b <= a for a, b in zip(g, h))


def test_contains_monomial():
    I = MonomialIdeal(2, ((2, 0), (0, 3)))
    assert contains_monomial(I, (2, 5))
    assert contains_monomial(I, (0, 3))
    assert not contains_monomial(I, (1, 2))
    assert not contains_monomial(MonomialIdeal(2, ()), (0, 0))
    assert contains_monomial(MonomialIdeal(2, ((0, 0),)), (0, 0))


@given(two_ideals())
def test_product_commutes(triple):
    I, J, _ = triple
    assert product(I, J) == product(J, I)


@given(two_ideals())
def test_product_membership(triple):
    I, J, _ = triple
    P = product(I, J)
    for g in I.generators:
        for h in J.generators:
            assert contains_monomial(P, tuple(a + b for a, b in zip(g, h)))


def test_product_zero_absorbs():
    Z = MonomialIdeal(2, ())
    I = MonomialIdeal(2, ((1, 1),))
    assert product(Z, I).is_zero
    assert product(I, Z).is_zero


@given(ideal_and_dim(max_coord=5, max_gens=4), st.integers(1, 3), st.integers(1, 3))
def test_power_splits_as_product(pair, a, b):
    I, _ = pair
    assert power(I, a + b) == product(power(I, a), power(I, b))


@given(ideal_and_dim(max_coord=6, max_gens=5), st.integers(1, 4))
@example((MonomialIdeal(3, ()), 3), 3)
@example((MonomialIdeal(2, ((0, 0),)), 2), 4)
@example((MonomialIdeal(4, ((1, 0, 2, 3),)), 4), 4)
def test_power_is_the_minimal_k_fold_sums(pair, k):
    # the zero, unit and a principal ideal, then random ones in 1-D to 4-D
    I, _ = pair
    sums = [tuple(map(sum, zip(*c))) for c in combinations_with_replacement(I.generators, k)]
    assert list(power(I, k).generators) == naive_minimal(sums)


def test_power_minimalizes_once(monkeypatch):
    # one kernel call forms the k-fold sums without minimalizing them, then
    # one minimal-elements pass: J^2 of closure(3,4,4,5) has 143 sums and
    # 141 minimal generators
    calls = []
    for name in ("power_sums_antichain", "pair_sums_antichain", "minimal_antichain"):
        def spy(*args, _real=getattr(kernels, name), _name=name):
            out = _real(*args)
            calls.append((_name, len(out)))
            return out

        monkeypatch.setattr(kernels, name, spy)
    I = MonomialIdeal(4, ((3, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 5)))
    J = closure(I)
    calls.clear()
    assert len(power(J, 2).generators) == 141
    assert calls == [("power_sums_antichain", 143), ("minimal_antichain", 141)]
    calls.clear()
    power(J, 4)
    assert [name for name, _ in calls] == ["power_sums_antichain", "minimal_antichain"]
    # in 2-D the swept sums are already the minimal generators: no pass
    K = closure(MonomialIdeal(2, ((30, 0), (0, 31))))
    calls.clear()
    cube = power(K, 3)
    assert calls == [("power_sums_antichain", 91)]
    calls.clear()
    assert cube == product(product(K, K), K)
    assert calls == [("pair_sums_antichain", 61), ("pair_sums_antichain", 91)]
    # and so does a 2-D product of two different ideals
    L = closure(MonomialIdeal(2, ((7, 0), (0, 11))))
    calls.clear()
    KL = product(K, L)
    assert [name for name, _ in calls] == ["pair_sums_antichain"]
    sums = [tuple(a + b for a, b in zip(g, h)) for g in K.generators for h in L.generators]
    assert list(KL.generators) == naive_minimal(sums)


def test_power_requires_positive_exponent():
    I = MonomialIdeal(2, ((1, 0),))
    with pytest.raises(ValueError):
        power(I, 0)


@pytest.mark.parametrize("k", [True, 2.5])
def test_power_refuses_a_non_integer_exponent(k):
    with pytest.raises(ValueError, match="^k must be an integer, got "):
        power(MonomialIdeal(2, ((2, 0), (0, 3))), k)


@pytest.mark.parametrize("gens", [((2, 0), (0, 3)), ((1, 1),)], ids=["binomial", "principal"])
def test_power_refuses_k_over_the_cap(monkeypatch, gens):
    # both ideals take k - 1 steps, so a huge k must fail before the first
    def no_pair_sums(*args):
        raise AssertionError("power formed a pair sum")

    monkeypatch.setattr(kernels, "power_sums_antichain", no_pair_sums)
    I = MonomialIdeal(2, gens)
    for k in (POWER_MAX_K + 1, 99999999999):
        with pytest.raises(GeneratorBudgetError, match=f"^power {k} is over the cap"):
            power(I, k)


@given(two_ideals())
def test_intersect_membership(triple):
    I, J, dim = triple
    M = intersect(I, J)
    for g in M.generators:
        assert contains_monomial(I, g) and contains_monomial(J, g)
    for g in I.generators:
        for h in J.generators:
            v = tuple(max(a, b) for a, b in zip(g, h))
            assert contains_monomial(M, v)


@given(ideal_and_dim(max_coord=6, max_gens=5))
def test_colon_adjunction(pair):
    # w in (I : f) iff w + f in I, checked on a small grid around the gens
    I, dim = pair
    if I.is_zero:
        return
    f = I.generators[0]
    Q = colon_by_monomial(I, f)
    probe = set(Q.generators) | set(I.generators)
    probe |= {tuple(max(0, c - 1) for c in g) for g in I.generators}
    for w in probe:
        shifted = tuple(a + b for a, b in zip(w, f))
        assert contains_monomial(Q, w) == contains_monomial(I, shifted)


def test_colon_by_maximal_hand():
    I = MonomialIdeal(2, ((2, 0), (0, 2)))
    assert colon_by_maximal(I).generators == ((0, 2), (1, 1), (2, 0))
    # the unit ideal is stable
    U = MonomialIdeal(2, ((0, 0),))
    assert colon_by_maximal(U) == U


def test_equality_is_generator_equality():
    a = MonomialIdeal(2, ((1, 2), (2, 1)))
    b = MonomialIdeal(2, ((2, 1), (1, 2), (3, 3)))
    assert a == b
    assert hash(a) == hash(b)


@settings(max_examples=40)
@given(two_ideals(), ideal_and_dim())
def test_product_associates(triple, pair):
    I, J, dim = triple
    K, kdim = pair
    if kdim != dim:
        K = MonomialIdeal(dim, tuple(g[:dim] + (0,) * (dim - len(g[:dim])) for g in K.generators))
    assert product(product(I, J), K) == product(I, product(J, K))
