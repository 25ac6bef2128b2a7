"""Closure completeness against a brute-force reference.

The reference enumerates every lattice point of the generator box, decides
each one with ``np_member`` and keeps the minimal inside points.  Closure
generators live in that box, so the reference misses nothing; comparing it
with the scan-based routes catches a generator the scan skips, which
containment and idempotence checks cannot.

The scan itself is also compared with a plain lexicographic reference that
records which points reach the oracle: the optimized scan must ask about
exactly the same points, in the same order, and stop at its limit after the
same find.  ``is_normal``, which scans unminimalized pair sums, is compared
with scans of each power's minimal generators, and the sums it scans must
generate each power exactly; the pure-power route, which scans nothing, is
compared with the same reference.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monoclose import kernels, newton, normality
from monoclose.errors import GeneratorBudgetError
from monoclose.ideals import MonomialIdeal, minimalize, power
from monoclose.newton import (
    INSIDE,
    OUTSIDE,
    _missing_generators,
    _scan_oracle,
    closure,
    np_member,
)
from monoclose.normality import (
    NORMAL,
    _diag_ideal,
    is_integrally_closed,
    is_normal,
    pure_power_normality,
)
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


def reference_scan(bounds, seeds, member, limit=None, log=None):
    """The box scan's contract in its plainest form.

    Visits the box in lex order and asks ``member`` about a point exactly
    when no seed or earlier find divides it and no separator returned so
    far excludes it; returns right after the ``limit``-th find.
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
            if len(found) == limit:
                break
        else:
            seps.append(sep)
    return found


def logged(member, log):
    def wrapped(v):
        log.append(v)
        return member(v)

    return wrapped


def scan_oracle(I, k):
    """The scan oracle for k NP(I).

    It keeps no state, so two scans compared point by point can share it.
    """
    return _scan_oracle(I.generators, I.dim)(k)


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
# only at 5 variables does the scan's height slab have three axes
any_ideal_up_to_5 = st.one_of(halfspace_ideal(max_dim=5), general_ideal(max_dim=5))


def small_power(I, k):
    K = power(I, k)
    assume(math.prod(b + 1 for b in generator_box(K.generators)) <= MAX_BOX)
    return K


# a general ideal: the oracle returns its four facets as separators in the
# middle of the walk, after the prefix has moved on from where the first
# one arrived
LP_MID_WALK = MonomialIdeal(3, ((0, 1, 3), (1, 3, 0), (2, 0, 1)))
# four variables, no halfspace: some facets exclude whole prefixes of rows,
# which the walk enters all the same
CYCLIC_4 = MonomialIdeal(4, ((4, 1, 0, 0), (0, 4, 1, 0), (0, 0, 4, 1), (1, 0, 0, 4)))
# closed, so the normality routes scan its square with the facet oracle
# at threshold 2, where they find 1,1,4,4
CYCLIC_4_CLOSURE = closure(CYCLIC_4)


@settings(max_examples=60, deadline=None)
@given(any_ideal, st.integers(1, 3))
# the facet oracle on a general ideal's square
@example(LP_MID_WALK, 2)
def test_closure_routes_match_brute_force(I, k):
    K = small_power(I, k)
    expected = brute_closure(K)
    assert list(closure(K).generators) == expected


def minimal_inside(I):
    """Minimal lattice points of NP(I) in its generator box, by enumeration."""
    inside = {v for v in box(generator_box(I.generators)) if np_member(I, v).is_inside}
    # the region is up-closed, so v is minimal when no v - e_i is inside
    return sorted(
        v for v in inside
        if not any(
            v[i] and v[:i] + (v[i] - 1,) + v[i + 1:] in inside for i in range(I.dim)
        )
    )


def test_closure_above_the_bitset_cap_matches_brute_force(monkeypatch):
    # 132 finds above a 32-point cap: the generators of I that no find
    # divides are picked by the coordinate split, from I's generator tuple
    monkeypatch.setattr(kernels, "_BITSET_POINTS", 32)
    I = _diag_ideal((6, 7, 8, 9))
    expected = minimal_inside(I)
    assert len(expected) == 132
    assert list(closure(I).generators) == expected


@pytest.mark.parametrize(
    "I, count",
    [
        # 100 finds against 3 generators: the split on the first coordinate
        # leaves sides small enough for the double loop
        pytest.param(_diag_ideal((12, 13, 14)), 103, id="diag"),
        # 105 finds against 10 generators: one side of the split still
        # passes both limits, and it ends in the two-coordinate sweep
        pytest.param(power(_diag_ideal((4, 5, 6)), 3), 115, id="cube"),
    ],
)
def test_closure_above_the_bitset_cap_in_three_variables_matches_brute_force(
    I, count, monkeypatch
):
    # at a 32-point cap the generators of I that no find divides are picked
    # by the 3-D coordinate split
    monkeypatch.setattr(kernels, "_BITSET_POINTS", 32)
    expected = minimal_inside(I)
    assert len(expected) == count
    assert list(closure(I).generators) == expected


@settings(max_examples=60, deadline=None)
@given(any_ideal_up_to_5, st.integers(1, 3))
def test_box_scan_matches_brute_force_with_and_without_seeds(I, k):
    K = small_power(I, k)
    expected = brute_closure(K)
    bounds = generator_box(K.generators)
    bare = kernels.box_closure_scan(bounds, [], scan_oracle(I, k))
    assert bare == expected
    seeded = kernels.box_closure_scan(
        bounds, K.generators, scan_oracle(I, k)
    )
    seeds = set(K.generators)
    assert seeded == [g for g in expected if g not in seeds]


@settings(max_examples=60, deadline=None)
@given(any_ideal_up_to_5, st.integers(1, 3), st.booleans())
@example(LP_MID_WALK, 1, False)
@example(LP_MID_WALK, 2, True)
@example(CYCLIC_4, 1, False)
@example(CYCLIC_4, 1, True)
def test_box_scan_asks_the_oracle_about_the_reference_points(I, k, seeded):
    K = small_power(I, k)
    bounds = generator_box(K.generators)
    seeds = list(K.generators) if seeded else []
    member = scan_oracle(I, k)
    want_log, got_log = [], []
    want = reference_scan(bounds, seeds, member, log=want_log)
    got = kernels.box_closure_scan(bounds, seeds, logged(member, got_log))
    assert got == sorted(want)
    assert got_log == want_log


def check_limit(bounds, seeds, member, limit):
    """The scan and the reference stop after the same find, asking the same."""
    full = reference_scan(bounds, seeds, member)
    want_log, got_log = [], []
    want = reference_scan(bounds, seeds, member, limit, log=want_log)
    got = kernels.box_closure_scan(bounds, seeds, logged(member, got_log), limit)
    assert got == want == full[:limit]
    assert got_log == want_log
    if want:  # it asked nothing after the last find
        assert got_log[-1] == want[-1]


@settings(max_examples=60, deadline=None)
@given(any_ideal_up_to_5, st.integers(1, 3), st.booleans())
@example(LP_MID_WALK, 2, False)
def test_box_scan_stops_at_its_first_find_when_the_oracle_says_so(I, k, seeded):
    # limit 1, as the normality routes scan: the oracle answers membership
    # only, and the scan ends at the first point it answers True for
    K = small_power(I, k)
    bounds = generator_box(K.generators)
    seeds = list(K.generators) if seeded else []
    member = scan_oracle(I, k)
    check_limit(bounds, seeds, member, 1)
    assert all(member(v) == (True, None) for v in reference_scan(bounds, seeds, member))


@settings(max_examples=60, deadline=None)
@given(any_ideal_up_to_5, st.integers(1, 3), st.booleans())
def test_box_scan_budget_trips_at_the_reference_count(I, k, seeded):
    # a closure budget of one find short of all of them stops the scan at
    # the reference's count; a limit of exactly all of them changes nothing
    K = small_power(I, k)
    bounds = generator_box(K.generators)
    seeds = list(K.generators) if seeded else []
    member = scan_oracle(I, k)
    total = len(reference_scan(bounds, seeds, member))
    assume(total >= 1)
    for limit in sorted({max(total - 1, 1), total}):
        check_limit(bounds, seeds, member, limit)


@settings(max_examples=60, deadline=None)
@given(any_ideal_up_to_5, st.integers(1, 3), st.randoms(use_true_random=False))
def test_box_scan_takes_any_generating_set_as_seeds(I, k, rng):
    # redundant seeds (multiples of generators, repeats) in any order ask
    # the oracle about the same points as the minimal generators
    K = small_power(I, k)
    bounds = generator_box(K.generators)
    member = scan_oracle(I, k)
    seeds = list(K.generators)
    for g in K.generators:
        i = rng.randrange(I.dim)
        seeds += [g, g[:i] + (g[i] + rng.randint(0, 2),) + g[i + 1:]]
    rng.shuffle(seeds)
    want_log, got_log = [], []
    want = kernels.box_closure_scan(bounds, K.generators, logged(member, want_log))
    assert kernels.box_closure_scan(bounds, seeds, logged(member, got_log)) == want
    assert got_log == want_log


@settings(max_examples=60, deadline=None)
@given(any_ideal)
@example(MonomialIdeal(3, ((4, 0, 0), (0, 5, 0), (0, 0, 7))))
@example(power(LP_MID_WALK, 2))
def test_closure_budget_trips_one_find_past_it(I):
    # closure stops its scan one find past max_generators and raises there
    small_power(I, 1)
    f = len(_missing_generators(I.generators, _scan_oracle(I.generators, I.dim), 1))
    if f >= 2:  # a budget below 1 is refused before any scan
        message = f"^more than {f - 1} new generators in box scan$"
        with pytest.raises(GeneratorBudgetError, match=message):
            closure(I, max_generators=f - 1)
    assert closure(I, max_generators=max(f, 1)) == closure(I)


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


def minimal_power(I, k):
    """Minimal generators of I^k from a plain product, without pair sums."""
    K = I.generators
    for _ in range(k - 1):
        sums = [tuple(a + b for a, b in zip(g, h)) for g in K for h in I.generators]
        K = minimalize(sums, I.dim).generators
    return K


def reference_check_powers(I, base_gens, closed=False):
    """The direct route on minimal powers: (k, closed?) pairs and witness.

    Scans all of each power's missing generators; the first is the witness.
    """
    checked = []
    for k in range(1, max(I.dim, 2)):
        if k == 1 and closed:
            checked.append((1, True))
            continue
        K = minimal_power(I, k)
        member = _scan_oracle(base_gens, I.dim)(k)
        missing = kernels.box_closure_scan(generator_box(K), K, member)
        checked.append((k, not missing))
        if missing:
            return tuple(checked), missing[0]
    return tuple(checked), None


@settings(max_examples=50, deadline=None)
@given(any_ideal_up_to_5)
# closed ideals, whose square the routes scan with the facet oracle at
# threshold 2: LP_MID_WALK's closure is normal, CYCLIC_4's is not
@example(closure(LP_MID_WALK))
@example(CYCLIC_4_CLOSURE)
def test_is_normal_matches_a_scan_of_minimal_powers(I):
    # non-m-primary ideals too, whose powers' boxes may grow with the
    # redundant sums that the route scans instead of minimal generators;
    # CYCLIC_4's closure fails at its first find, early in a large box
    top = max(I.dim - 1, 1)
    assume(
        I == CYCLIC_4_CLOSURE
        or math.prod(top * b + 1 for b in generator_box(I.generators)) <= 5000
    )
    report = is_normal(I)
    want = reference_check_powers(I, I.generators)
    assert (report.checked_powers, report.failing_witness) == want


def test_is_normal_finds_the_facets_once(monkeypatch):
    # the edge ideal of the 4-cycle is normal and no halfspace, so all three
    # powers are scanned, each against the same facet list
    calls = []
    real = newton._facets

    def spy(gens, dim):
        calls.append(gens)
        return real(gens, dim)

    monkeypatch.setattr(newton, "_facets", spy)
    I = MonomialIdeal(4, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)))
    assert is_normal(I).checked_powers == ((1, True), (2, True), (3, True))
    assert calls == [I.generators]


@pytest.mark.parametrize(
    "I, cap, kept, solves",
    [(LP_MID_WALK, 0, 0, 6), (LP_MID_WALK, 8, 1, 5), (CYCLIC_4, 0, 0, 19), (CYCLIC_4, 83, 6, 13)],
    ids=["lp-mid-walk-none", "lp-mid-walk-some", "cyclic-4-none", "cyclic-4-some"],
)
def test_closure_from_a_capped_facet_list_matches_brute_force(
    I, cap, kept, solves, monkeypatch
):
    # DD stops with none or only some of the facets, none of them marked
    # with its generators; the LP over every generator decides each point
    # they pass, and its "outside" separators join the scan's cache
    check_closure_from_a_truncated_facet_list(I, cap, kept, solves, monkeypatch)


@pytest.mark.parametrize(
    "I, cap, kept, solves",
    [(LP_MID_WALK, 20, 2, 4), (CYCLIC_4, 40, 2, 17)],
    ids=["lp-mid-walk", "cyclic-4"],
)
def test_closure_from_a_facet_list_cut_short_by_work_matches_brute_force(
    I, cap, kept, solves, monkeypatch
):
    # DD stops once its adjacency tests have scanned more than DD_MAX_WORK
    # rays, with a handful of rays
    check_closure_from_a_truncated_facet_list(I, cap, kept, solves, monkeypatch)


def check_closure_from_a_truncated_facet_list(I, cap, kept, solves, monkeypatch):
    """Closure and normality with DD_MAX_WORK at ``cap``.

    DD keeps ``kept`` facets, all unmarked, and the scan asks the LP over
    every generator ``solves`` times.
    """
    full = newton._facets(I.generators, I.dim)
    assert all(on is not None for _, _, on in full)
    normal = is_normal(closure(I))
    monkeypatch.setattr(newton, "DD_MAX_WORK", cap)
    facets = newton._facets(I.generators, I.dim)
    assert len(facets) == kept < len(full)
    assert all(on is None for _, _, on in facets)
    calls = lp_calls(monkeypatch)
    C = closure(I)
    assert len(calls) == solves
    assert all(columns == I.generators for columns, _, _ in calls)
    assert list(C.generators) == brute_closure(I)
    assert is_normal(closure(I)) == normal


def lp_calls(monkeypatch):
    """Every ``max_weight_lp`` call through ``newton`` from here on.

    Each entry is the call's columns, as a tuple, its point and its
    decision.
    """
    real, calls = newton.max_weight_lp, []

    def spy(columns, v, threshold=1):
        res = real(columns, v, threshold)
        calls.append((tuple(columns), v, res[0]))
        return res

    monkeypatch.setattr(newton, "max_weight_lp", spy)
    return calls


@pytest.mark.parametrize("I", [LP_MID_WALK, CYCLIC_4], ids=["lp-mid-walk", "cyclic-4"])
def test_closure_from_a_wrong_facet_list_matches_brute_force(I, monkeypatch):
    # a list marked complete that misses one facet: a point outside NP(I)
    # can pass every facet listed, its nearest one's generators then fall
    # short of it, and the LP over every generator decides
    want, normal = brute_closure(I), is_normal(closure(I))
    real = newton._facets
    calls = lp_calls(monkeypatch)
    for drop in range(len(real(I.generators, I.dim))):

        def wrong(gens, dim, drop=drop):
            facets = real(gens, dim)
            return facets[:drop] + facets[drop + 1:]

        monkeypatch.setattr(newton, "_facets", wrong)
        assert list(closure(I).generators) == want
        assert is_normal(closure(I)) == normal
    # some dropped facet let an outside point reach the LP
    assert any(decision == OUTSIDE for _, _, decision in calls)


def confirming_call(I, v):
    """The one LP call that confirms a find v of any k NP(I), and its decision.

    Its columns are the generators on every facet tied for nearest v, in
    canonical order, over every coordinate, and its target is v.  Decided
    here by dot products alone.
    """
    facets = [f[:2] for f in newton._facets(I.generators, I.dim)]
    least = min(Fraction(sum(map(mul, nums, v)), den) for nums, den in facets)
    nearest = [f for f in facets if Fraction(sum(map(mul, f[0], v)), f[1]) == least]
    shared = [
        a for a in I.generators
        if all(sum(map(mul, nums, a)) == den for nums, den in nearest)
    ]
    return tuple(shared), v, INSIDE


@settings(max_examples=100, deadline=None)
@given(any_ideal_up_to_5)
@example(CYCLIC_4)
# (2, 2, 2): two facets tie, and only two of the nearest one's three
# generators lie on both
@example(MonomialIdeal(3, ((0, 1, 3), (2, 0, 4), (4, 3, 1))))
# (2, 3, 2, 2): three facets tie
@example(MonomialIdeal(4, ((1, 4, 3, 2), (3, 2, 1, 2), (4, 2, 0, 2))))
def test_each_find_costs_one_lp_call_over_its_nearest_facet(I):
    # a complete facet list decides every outside point, and one LP over
    # the generators on all the facets nearest a find confirms it at once
    assume(newton._halfspace_profile(I.generators, I.dim) is None)
    assert all(on is not None for _, _, on in newton._facets(I.generators, I.dim))
    with pytest.MonkeyPatch.context() as mp:
        calls = lp_calls(mp)
        C = closure(I)
    found = sorted(set(C.generators) - set(I.generators))
    assert calls == [confirming_call(I, v) for v in found]


@pytest.mark.parametrize(
    "I", [closure(LP_MID_WALK), CYCLIC_4_CLOSURE], ids=["lp-mid-walk", "cyclic-4"]
)
def test_a_find_at_threshold_2_costs_one_lp_call_over_its_nearest_facets(I, monkeypatch):
    # is_normal scans the square at threshold 2: LP_MID_WALK's closure is
    # normal, so its square has no find and asks no LP; CYCLIC_4's closure
    # fails there at its first find, confirmed by one LP
    calls = lp_calls(monkeypatch)
    report = is_normal(I)
    if report.failing_witness is None:
        assert calls == []
    else:
        assert calls == [confirming_call(I, report.failing_witness)]


@st.composite
def small_alpha(draw):
    n = draw(st.integers(1, 5))
    top = (8, 8, 6, 4, 3)[n - 1]
    return tuple(draw(st.integers(1, top)) for _ in range(n))


@settings(max_examples=50, deadline=None)
@given(small_alpha())
# J^2 fails at a row whose prefix alone reaches 2L, so its last coordinate
# is 0: (2, 3, 3, 0) and (1, 2, 6, 0)
@example((3, 4, 5, 6))
@example((2, 3, 7, 4))
# a row with last coordinate 0 whose excess reaches N_n, where runs of the
# full comb would overlap: (1, 2, 10, 0) is in J^2 of the normal
# (2, 3, 11, 14)
@example((2, 3, 11, 14))
def test_pure_power_route_matches_a_scan_of_minimal_powers(alpha):
    report = pure_power_normality(alpha, use_shortcuts=False)
    diag = _diag_ideal(alpha)
    J = MonomialIdeal(len(alpha), tuple(brute_closure(diag)))
    want = reference_check_powers(J, diag.generators, closed=True)
    assert (report.checked_powers, report.failing_witness) == want


def scanned_seeds(route, *args):
    """Run a normality route; the seeds it scans, by power."""
    seeds_at = {}
    real = normality._missing_generators

    def spy(seeds, base_gens, threshold, limit=None):
        seeds_at[threshold] = list(seeds)
        return real(seeds, base_gens, threshold, limit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normality, "_missing_generators", spy)
        route(*args)
    return seeds_at


# The scan box comes from the seeds, so seeds that miss a generator of the
# power (an axis point, say) can shrink the box and hide a missing point
# without changing any verdict; each power's seeds must generate it exactly.
@settings(max_examples=50, deadline=None)
@given(any_ideal_up_to_5)
def test_is_normal_scans_seeds_that_generate_each_power(I):
    top = max(I.dim - 1, 1)
    assume(math.prod(top * b + 1 for b in generator_box(I.generators)) <= 5000)
    for k, seeds in scanned_seeds(is_normal, I).items():
        want = power(I, k).generators
        assert tuple(kernels.minimal_antichain(seeds)) == want == minimal_power(I, k)
