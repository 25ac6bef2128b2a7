"""Integral closedness, normality (with and without shortcuts), quasinormality."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoclose import kernels, normality
from monoclose.errors import GeneratorBudgetError
from monoclose.ideals import MonomialIdeal, colon_by_maximal, power
from monoclose.newton import _scan_oracle, closure, pure_power_member
from monoclose.normality import (
    COUNTEREXAMPLE_FOUND,
    NORMAL,
    NOT_NORMAL,
    QUASINORMAL_UP_TO_BOUND,
    is_integrally_closed,
    is_normal,
    pure_power_normality,
    quasinormality_check,
)


def is_m_primary(I: MonomialIdeal) -> bool:
    """Whether every variable has a pure-power generator (support of size one)."""
    covered = set()
    for g in I.generators:
        support = [i for i, c in enumerate(g) if c]
        if len(support) == 1:
            covered.add(support[0])
    return len(covered) == I.dim


def socle_criterion_check(I: MonomialIdeal) -> bool:
    """Closedness via the socle route: no colon generator outside I is in NP(I).

    The reference that criterion 7 and ``test_socle_route_agrees`` hold
    ``is_integrally_closed`` to.  Sound for m-primary ideals: any element of
    (I : m) not in I must be one of its minimal generators (a proper
    multiple of a colon element already lands in I), and a minimal generator
    of (I : m) in I is one of I's own.
    """
    if not is_m_primary(I):
        raise ValueError("socle criterion requires an m-primary ideal")
    own = set(I.generators)
    member = _scan_oracle(I.generators, I.dim)(1)
    for v in colon_by_maximal(I).generators:
        if v in own:
            continue
        if member(v)[0]:
            return False
    return True


def test_is_m_primary():
    assert is_m_primary(MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7))))
    assert not is_m_primary(MonomialIdeal(3, ((4, 0, 0), (0, 5, 0))))
    assert not is_m_primary(MonomialIdeal(2, ((1, 1),)))
    assert not is_m_primary(MonomialIdeal(2, ()))


def test_closedness_known_values():
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    closed, witness = is_integrally_closed(I)
    assert not closed
    # the witness is the lex-least closure generator missing from I
    assert witness == (0, 1, 6)
    C = closure(I)
    closed, witness = is_integrally_closed(C)
    assert closed and witness is None


@st.composite
def proper_ideal(draw, max_dim=3, max_coord=7, max_gens=5):
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(0, max_coord)] * dim)
    gens = draw(
        st.lists(vec.filter(lambda v: any(v)), min_size=1, max_size=max_gens)
    )
    return MonomialIdeal(dim, tuple(gens))


@given(proper_ideal())
@settings(max_examples=60, deadline=None)
def test_closure_is_closed_and_witness_is_sound(I):
    closed, witness = is_integrally_closed(I)
    if closed:
        assert closure(I) == I
    else:
        assert witness in closure(I).generators
        assert witness not in I.generators


@st.composite
def m_primary_ideal(draw, max_dim=3, max_coord=6):
    dim = draw(st.integers(1, max_dim))
    corners = [
        tuple(draw(st.integers(1, max_coord)) if j == i else 0 for j in range(dim))
        for i in range(dim)
    ]
    vec = st.tuples(*[st.integers(0, max_coord)] * dim)
    extra = draw(st.lists(vec.filter(lambda v: any(v)), max_size=3))
    return MonomialIdeal(dim, tuple(corners + extra))


@given(m_primary_ideal())
@settings(max_examples=80, deadline=None)
def test_socle_route_agrees(I):
    assert is_m_primary(I)
    assert socle_criterion_check(I) == is_integrally_closed(I)[0]


def test_socle_requires_m_primary():
    with pytest.raises(ValueError):
        socle_criterion_check(MonomialIdeal(2, ((1, 1),)))


def test_is_normal_counterexample():
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    J = closure(I)
    report = is_normal(J)
    assert report.verdict == NOT_NORMAL
    assert not report.is_normal
    assert report.failing_power == 2
    assert report.failing_witness == (2, 4, 5)
    assert report.checked_powers == ((1, True), (2, False))


def test_is_normal_stops_at_first_failure():
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    report = is_normal(I)
    assert report.failing_power == 1
    assert report.checked_powers == ((1, False),)


def test_library_budgets_below_one_are_refused():
    # the same rule whatever the ideal: a closed one (J), one whose scan
    # finds generators (I), a two-variable ideal and a settled shortcut
    I = MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7)))
    J = closure(I)
    calls = [
        lambda b: closure(J, b),
        lambda b: closure(I, b),
        lambda b: is_normal(J, b),
        lambda b: is_normal(MonomialIdeal(2, ((4, 0), (0, 6))), b),
        lambda b: pure_power_normality((4, 5, 7), max_generators=b),
        lambda b: pure_power_normality((2, 3), max_generators=b),
    ]
    for call in calls:
        for budget in (0, -1):
            with pytest.raises(ValueError, match="max_generators must be at least 1"):
                call(budget)
        # a fractional cap never equals a find count, and True is no count
        for budget in (1.5, True):
            with pytest.raises(ValueError, match="max_generators must be an integer"):
                call(budget)
        call(None)
        call(1000)


@pytest.mark.parametrize("alpha", [(2, 3.5), (True, 3)])
def test_pure_power_normality_refuses_non_integer_exponents(alpha):
    # both have two distinct values, which the two-exponent shortcut settles
    # when nothing checks the type first
    for shortcuts in (True, False):
        with pytest.raises(
            ValueError, match="^each of the pure-power exponents must be an integer, got "
        ):
            pure_power_normality(alpha, use_shortcuts=shortcuts)


def test_pure_power_entry_points_refuse_no_exponents():
    with pytest.raises(ValueError, match="^exponents must not be empty$"):
        quasinormality_check((), 1)
    with pytest.raises(ValueError, match="^pure-power exponents must not be empty$"):
        pure_power_member((), ())
    with pytest.raises(ValueError, match="^pure-power exponents must not be empty$"):
        pure_power_normality(())
    # exponents below 1 keep the texts the CLI prints
    with pytest.raises(ValueError, match="^each of the exponents must be at least 1, got 0$"):
        quasinormality_check((0, 3), 1)
    with pytest.raises(
        ValueError, match="^each of the pure-power exponents must be at least 1, got 0$"
    ):
        pure_power_normality((0, 3))


def test_is_normal_forms_no_power_past_the_last_checked(monkeypatch):
    # J = closure(4,4,5,5) is normal: J^2 and J^3 are formed, J^4 is not,
    # so a budget that only J^4 would exceed does not trip
    J = closure(normality._diag_ideal((4, 4, 5, 5)))
    budget = max(len(power(J, k).generators) for k in (2, 3))
    assert len(power(J, 4).generators) > budget
    real = kernels.pair_sums_antichain
    calls = []

    def spy(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(kernels, "pair_sums_antichain", spy)
    report = is_normal(J, budget)
    assert report.verdict == NORMAL
    assert [k for k, _ in report.checked_powers] == [1, 2, 3]
    assert len(calls) == J.dim - 2
    calls.clear()
    assert is_normal(J) == report
    assert len(calls) == J.dim - 2


def test_direct_route_walks_each_power_up_to_the_first_failure(monkeypatch):
    real = normality._first_outside_power
    walked = []

    def spy(weights, base, k, max_generators):
        walked.append(k)
        return real(weights, base, k, max_generators)

    monkeypatch.setattr(normality, "_first_outside_power", spy)
    # normal: every power k = 2..n-1, then no walk of J^n
    assert pure_power_normality((3, 3, 3, 5, 5, 5), False).verdict == NORMAL
    assert walked == [2, 3, 4, 5]
    walked.clear()
    # fails at J^2: no walk after it
    assert pure_power_normality((5, 6, 7, 8, 9, 11), False).failing_power == 2
    assert walked == [2]
    walked.clear()
    # one and two variables: J itself is closed, nothing is walked
    for alpha in ((7,), (4, 5)):
        assert pure_power_normality(alpha, False).checked_powers == ((1, True),)
    assert walked == []


def test_one_variable_is_always_normal():
    report = is_normal(MonomialIdeal(1, ((6,),)))
    assert report.verdict == NORMAL
    assert report.checked_powers == ((1, True),)
    assert report.failing_power is None


@given(st.lists(st.integers(1, 6), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_normal_ideal_has_closed_small_powers(alpha):
    report = pure_power_normality(tuple(alpha), use_shortcuts=False)
    if report.verdict == NORMAL:
        n = len(alpha)
        diag = MonomialIdeal(
            n, tuple(tuple(a if i == j else 0 for j in range(n)) for i, a in enumerate(alpha))
        )
        J = closure(diag)
        for k in range(1, n):
            assert is_integrally_closed(power(J, k))[0]


def test_pure_power_route_does_not_rescan_the_closure(monkeypatch):
    # the pure-power route decides J = closure(diag) from the exponents and
    # scans nothing; is_normal knows nothing of J and scans every power
    real = normality._missing_generators
    thresholds = []

    def spy(seeds, base_gens, threshold, limit=None):
        thresholds.append(threshold)
        return real(seeds, base_gens, threshold, limit)

    monkeypatch.setattr(normality, "_missing_generators", spy)
    grid = [(3,), (2, 5), (4, 5, 7), (2, 3, 4, 5)] + list(
        itertools.product(range(2, 6), repeat=3)
    )
    for alpha in grid:
        thresholds.clear()
        report = pure_power_normality(alpha, use_shortcuts=False)
        assert thresholds == []
        diag = normality._diag_ideal(alpha)
        direct = is_normal(closure(diag))
        assert thresholds == [k for k, _ in direct.checked_powers]
        assert (report.verdict, report.checked_powers, report.failing_witness,
                report.shortcuts, report.representative) == (
            direct.verdict, direct.checked_powers, direct.failing_witness,
            direct.shortcuts, direct.representative)


@st.composite
def pure_power_alpha(draw):
    # block-constant tuples too: a few values, each repeated; and sorted
    # 4-tuples with two entries in 8..20, the shape of every tuple known to
    # have a row with last coordinate 0 whose excess reaches N_n, where the
    # runs of the full comb would overlap
    kind = draw(st.sampled_from(("any", "blocks", "wide")))
    if kind == "wide":
        small = [draw(st.integers(1, 7)) for _ in range(2)]
        return tuple(sorted(small + [draw(st.integers(8, 20)) for _ in range(2)]))
    n = draw(st.integers(1, 5))
    top = (9, 9, 7, 5, 4)[n - 1]
    if kind == "any":
        return tuple(draw(st.integers(1, top)) for _ in range(n))
    values = draw(st.lists(st.integers(1, top), min_size=1, max_size=2))
    return tuple(sorted(draw(st.sampled_from(values)) for _ in range(n)))


@given(pure_power_alpha())
@settings(max_examples=80, deadline=None)
@example((4, 5, 7))
@example((3, 4, 4, 5))
@example((7, 8, 9, 10, 11))
@example((5, 6, 7, 8, 9, 11))
# J^2 fails at a row whose prefix alone reaches 2L, so its last coordinate
# is 0: (2, 3, 3, 0) and (1, 2, 6, 0)
@example((3, 4, 5, 6))
@example((2, 3, 7, 4))
# rows with last coordinate 0 whose excess reaches N_n, where runs of the
# full comb would overlap: (1, 2, 10, 0) is in J^2 of the normal
# (2, 3, 11, 14), and (1, 6, 7, 0) lies after the witness (2, 5, 5, 0)
@example((2, 3, 11, 14))
@example((3, 7, 8, 18))
@example((2, 3, 11, 16))
@example((2, 5, 13, 16))
def test_pure_power_route_matches_is_normal_on_the_closure(alpha):
    report = pure_power_normality(alpha, use_shortcuts=False)
    direct = is_normal(closure(normality._diag_ideal(alpha)))
    assert (report.checked_powers, report.failing_witness) == (
        direct.checked_powers, direct.failing_witness)


def test_pure_power_budget_bounds_the_generators_of_each_power():
    # with every power closed, the budget is the largest generator count of
    # J^2 .. J^(n-1); a non-normal tuple counts the generators met before
    # its witness (114 of J^2 for this one).  Descending tuples have a
    # prefix weight below the last one, where a row's least point can
    # still be non-minimal.
    for alpha in ((2, 3, 3, 5), (5, 3, 3, 2), (3, 3, 4, 4, 4), (4, 4, 4, 3, 3)):
        J = closure(normality._diag_ideal(alpha))
        sizes = [len(power(J, k).generators) for k in range(2, len(alpha))]
        top = max(sizes)
        assert pure_power_normality(alpha, False, top).verdict == NORMAL
        k = 2 + next(i for i, m in enumerate(sizes) if m == top)
        with pytest.raises(GeneratorBudgetError,
                           match=f"^power {k} has more than {top - 1} generators$"):
            pure_power_normality(alpha, False, top - 1)
    alpha = (5, 6, 7, 8, 9, 11)
    assert pure_power_normality(alpha, False, 114).failing_witness == (0, 0, 0, 7, 2, 10)
    with pytest.raises(GeneratorBudgetError, match="^power 2 has more than 113"):
        pure_power_normality(alpha, False, 113)


def test_shortcut_routing():
    # two equal exponent values: settled without any closure scan
    r = pure_power_normality((6, 9, 9))
    assert r.verdict == NORMAL
    assert r.shortcuts == ("two_exponent",)

    # gcd larger than n - 2
    r = pure_power_normality((6, 9, 15))
    assert r.verdict == NORMAL
    assert r.shortcuts == ("gcd",)

    # divisibility chain: values {2, 6} divide into the tail 12
    r = pure_power_normality((2, 6, 6, 12))
    assert r.verdict == NORMAL
    assert "divisibility_chain" in r.shortcuts

    # with shortcuts off the same inputs go the direct route
    r = pure_power_normality((6, 9, 9), use_shortcuts=False)
    assert r.verdict == NORMAL
    assert r.shortcuts == ("none",)


def test_lcm_shift_reduction():
    # 13 >= 2 * lcm(2, 3), so it drops to 6 + 13 % 6 = 7
    r = pure_power_normality((2, 3, 13))
    assert r.shortcuts[0] == "lcm_shift"
    assert r.representative == (2, 3, 7)
    direct = pure_power_normality((2, 3, 13), use_shortcuts=False)
    assert r.verdict == direct.verdict == NOT_NORMAL
    # the shifted report keeps its subject and carries the representative's
    # direct-route data
    reduced = pure_power_normality((2, 3, 7), use_shortcuts=False)
    assert r.subject == (2, 3, 13)
    assert reduced.subject == (2, 3, 7)
    assert r.checked_powers == reduced.checked_powers
    assert r.failing_witness == reduced.failing_witness


@given(st.permutations([4, 5, 7]))
def test_verdict_is_permutation_invariant(alpha):
    r = pure_power_normality(tuple(alpha))
    assert r.verdict == NOT_NORMAL
    assert r.failing_power == 2


@given(st.lists(st.integers(1, 7), min_size=2, max_size=3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_shortcut_and_direct_agree(alpha, shortcuts):
    alpha = tuple(alpha)
    a = pure_power_normality(alpha, use_shortcuts=shortcuts)
    b = pure_power_normality(alpha, use_shortcuts=False)
    assert a.verdict == b.verdict


def test_quasinormality_known_values():
    v = quasinormality_check((4, 5, 7), 20)
    assert v.verdict == COUNTEREXAMPLE_FOUND
    x, p = v.witness
    assert x == Fraction(281, 140)
    assert p == 2

    v = quasinormality_check((2, 3), 10)
    assert v.verdict == QUASINORMAL_UP_TO_BOUND
    assert v.witness is None


def test_quasinormality_witness_is_genuine():
    # the witness x lies in Lambda with x >= p, yet x has no decomposition
    # into p elements of Lambda that are each >= 1
    alpha = (4, 5, 7)
    v = quasinormality_check(alpha, 20)
    x, p = v.witness
    L = 140
    t = x * L
    assert t.denominator == 1
    t = int(t)
    units = [L // a for a in alpha]

    @lru_cache(maxsize=None)
    def reachable(n):
        if n == 0:
            return True
        return any(n >= u and reachable(n - u) for u in units)

    assert reachable(t)
    assert t >= p * L

    def split(n, parts):
        if parts == 1:
            return n >= L and reachable(n)
        return any(
            split(n - m, parts - 1)
            for m in range(L, n - L * (parts - 1) + 1)
            if reachable(m)
        )

    assert not split(t, p)


def test_quasinormality_requires_coprime():
    with pytest.raises(ValueError):
        quasinormality_check((4, 6), 5)


def _reference_part_sums(one_part, bound, mask):
    # the sumset loop shifting by every element of one_part
    parts = [0, one_part]
    while len(parts) <= bound:
        grown = 0
        for b in normality._iter_bits(one_part):
            grown |= parts[-1] << b
        parts.append(grown & mask)
    return parts


def _reference_witness(reach, parts, base):
    # every semigroup numerator t in order, every p <= t / base
    for t in normality._iter_bits(reach):
        for p in range(1, t // base + 1):
            if not (parts[p] >> t) & 1:
                return Fraction(t, base), p
    return None


def _pairwise_coprime(alpha):
    return all(math.gcd(a, b) == 1 for a, b in itertools.combinations(alpha, 2))


def test_quasinormality_matches_the_full_sumset_scan():
    tuples = [
        alpha
        for n in (1, 2, 3)
        for alpha in itertools.combinations_with_replacement(range(1, 10), n)
        if _pairwise_coprime(alpha) and max(alpha) > 1
    ]
    found = 0
    for alpha in tuples:
        base = math.lcm(*alpha)
        gens = [base // a for a in alpha]
        bound = max(2, 400 // base)
        limit = bound * base
        mask = (1 << (limit + 1)) - 1
        reach = normality._semigroup_bits(gens, limit)
        one_part = reach & ~((1 << base) - 1)
        parts = _reference_part_sums(one_part, bound, mask)
        assert normality._part_sums(one_part, base, max(gens), bound, mask) == parts, alpha
        witness = _reference_witness(reach, parts, base)
        assert quasinormality_check(alpha, bound).witness == witness, alpha
        found += witness is not None
    assert found


def _refuse_to_allocate(gens, limit):
    raise AssertionError("the bitmasks were built")


def test_quasinormality_refuses_oversized_bitmasks(monkeypatch):
    monkeypatch.setattr(normality, "_semigroup_bits", _refuse_to_allocate)
    # 1001 bitmasks of 97 * 101 * 103 * 1000 + 1 bits: about 118 GiB
    with pytest.raises(GeneratorBudgetError, match="^quasinormality scan needs .* bits"):
        quasinormality_check((97, 101, 103), 1000)


@pytest.mark.parametrize("bound", [True, 1.5])
def test_quasinormality_refuses_a_non_integer_bound(bound):
    with pytest.raises(ValueError, match="^bound must be an integer, got "):
        quasinormality_check((4, 5, 7), bound)


def test_quasinormality_size_limit_counts_every_bit(monkeypatch):
    # (4, 5, 7) up to 20: 21 bitmasks of 20 * 140 + 1 bits
    monkeypatch.setattr(normality, "QUASINORMAL_MAX_BITS", 21 * 2801)
    assert quasinormality_check((4, 5, 7), 20).verdict == COUNTEREXAMPLE_FOUND
    monkeypatch.setattr(normality, "QUASINORMAL_MAX_BITS", 21 * 2801 - 1)
    monkeypatch.setattr(normality, "_semigroup_bits", _refuse_to_allocate)
    with pytest.raises(GeneratorBudgetError):
        quasinormality_check((4, 5, 7), 20)
