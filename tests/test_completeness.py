"""Closure completeness against a brute-force reference.

The reference enumerates every lattice point of the generator box, decides
each one with ``np_member`` and keeps the minimal inside points.  Closure
generators live in that box, so the reference misses nothing; comparing it
with the scan-based routes catches a generator the scan skips, which
containment and idempotence checks cannot.

The scan itself is also compared with a plain lexicographic reference that
records which points reach the oracle: the optimized scan must ask about
exactly the same points, in the same order, and trip its budget at the same
found count.
"""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monoclose import _kernels_py
from monoclose.errors import GeneratorBudgetError
from monoclose.ideals import MonomialIdeal, power
from monoclose.newton import _scan_member, closure, closure_of_power, np_member
from monoclose.normality import NORMAL, is_integrally_closed, is_normal
from test_kernels import naive_minimal

MAX_BOX = 700


def box(bounds):
    return itertools.product(*(range(b + 1) for b in bounds))


def generator_box(gens):
    return tuple(max(g[i] for g in gens) for i in range(len(gens[0])))


def brute_closure(I):
    """Minimal generators of closure(I): every box point, decided one by one."""
    inside = [v for v in box(generator_box(I.generators)) if np_member(I, v).is_inside]
    return naive_minimal(inside)


def reference_scan(bounds, seeds, member, budget=None, log=None):
    """The box scan's contract in its plainest form.

    Visits the box in lex order and asks ``member`` about a point exactly
    when no seed or earlier find divides it and no separator returned so
    far excludes it.
    """
    found, seps = [], []
    for v in box(bounds):
        if any(all(a <= b for a, b in zip(g, v)) for g in itertools.chain(seeds, found)):
            continue
        if any(sum(c * x for c, x in zip(nums, v)) < den for nums, den in seps):
            continue
        if log is not None:
            log.append(v)
        inside, sep = member(v)
        if inside:
            found.append(v)
            if budget is not None and len(found) > budget:
                raise GeneratorBudgetError(f"more than {budget} new generators")
        elif sep is not None:
            seps.append(sep)
    return found


def logged(member, log):
    def wrapped(v):
        log.append(v)
        return member(v)

    return wrapped


@st.composite
def halfspace_ideal(draw, max_dim=4):
    """Pure powers plus extra generators inside their halfspace."""
    dim = draw(st.integers(1, max_dim))
    alpha = [draw(st.integers(1, 7 - dim)) for _ in range(dim)]
    base = math.lcm(*alpha)
    corners = [tuple(a if i == j else 0 for j in range(dim)) for i, a in enumerate(alpha)]
    vec = st.tuples(*[st.integers(0, a) for a in alpha])
    extra = draw(st.lists(vec, max_size=3))
    extra = [v for v in extra if sum(base // a * x for a, x in zip(alpha, v)) >= base]
    return MonomialIdeal(dim, tuple(corners + extra))


@st.composite
def general_ideal(draw, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(0, 6 - dim)] * dim).map(
        lambda v: v if any(v) else (1,) + v[1:]
    )
    return MonomialIdeal(dim, tuple(draw(st.lists(vec, min_size=1, max_size=5))))


any_ideal = st.one_of(halfspace_ideal(), general_ideal())


def small_power(I, k):
    K = power(I, k)
    assume(math.prod(b + 1 for b in generator_box(K.generators)) <= MAX_BOX)
    return K


@settings(max_examples=60, deadline=None)
@given(any_ideal, st.integers(1, 3))
def test_closure_routes_match_brute_force(I, k):
    K = small_power(I, k)
    expected = brute_closure(K)
    assert list(closure(K).generators) == expected
    assert list(closure_of_power(I, k).generators) == expected
    basis = brute_closure(I)
    assert list(closure_of_power(I, k, np_basis=basis).generators) == expected


@settings(max_examples=60, deadline=None)
@given(any_ideal, st.integers(1, 3))
def test_box_scan_matches_brute_force_with_and_without_seeds(I, k):
    K = small_power(I, k)
    expected = brute_closure(K)
    bounds = generator_box(K.generators)
    bare = _kernels_py.box_closure_scan(bounds, [], _scan_member(I.generators, I.dim, k))
    assert bare == expected
    seeded = _kernels_py.box_closure_scan(
        bounds, K.generators, _scan_member(I.generators, I.dim, k)
    )
    seeds = set(K.generators)
    assert seeded == [g for g in expected if g not in seeds]


@settings(max_examples=60, deadline=None)
@given(any_ideal, st.integers(1, 3), st.booleans())
def test_box_scan_asks_the_oracle_about_the_reference_points(I, k, seeded):
    K = small_power(I, k)
    bounds = generator_box(K.generators)
    seeds = list(K.generators) if seeded else []
    member = _scan_member(I.generators, I.dim, k)
    want_log, got_log = [], []
    want = reference_scan(bounds, seeds, member, log=want_log)
    got = _kernels_py.box_closure_scan(bounds, seeds, logged(member, got_log))
    assert got == sorted(want)
    assert got_log == want_log


@settings(max_examples=40, deadline=None)
@given(any_ideal, st.integers(1, 2))
def test_box_scan_budget_trips_at_the_reference_count(I, k):
    K = small_power(I, k)
    bounds = generator_box(K.generators)
    member = _scan_member(I.generators, I.dim, k)
    total = len(reference_scan(bounds, [], member))
    assume(total >= 1)
    budget = total - 1
    want_log, got_log = [], []
    with pytest.raises(GeneratorBudgetError):
        reference_scan(bounds, [], member, budget, log=want_log)
    with pytest.raises(GeneratorBudgetError):
        _kernels_py.box_closure_scan(bounds, [], logged(member, got_log), budget)
    assert got_log == want_log
    assert len(_kernels_py.box_closure_scan(bounds, [], member, total)) == total


@settings(max_examples=60, deadline=None)
@given(any_ideal)
def test_closedness_witness_is_lex_least_missing_generator(I):
    small_power(I, 1)
    missing = [g for g in brute_closure(I) if g not in set(I.generators)]
    closed, witness = is_integrally_closed(I)
    assert closed == (not missing)
    assert witness == (missing[0] if missing else None)


@settings(max_examples=30, deadline=None)
@given(any_ideal)
def test_normality_witness_is_lex_least_missing_generator(I):
    ks = range(1, max(I.dim, 2))
    powers = [small_power(I, k) for k in ks]
    report = is_normal(I)
    for k, K in zip(ks, powers):
        missing = [g for g in brute_closure(K) if g not in set(K.generators)]
        if missing:
            assert report.failing_power == k
            assert report.failing_witness == missing[0]
            assert report.checked_powers[-1] == (k, False)
            return
    assert report.verdict == NORMAL
    assert report.failing_witness is None
