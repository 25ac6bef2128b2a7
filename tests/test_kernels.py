"""The kernels against brute-force references and hand-computed values."""

import random
from itertools import combinations_with_replacement
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import monoclose
from monoclose import kernels
from monoclose.errors import GeneratorBudgetError
from monoclose.ideals import MonomialIdeal, contains_monomial, power


def vectors_strategy(dim, max_coord=12, max_len=40):
    vec = st.tuples(*[st.integers(0, max_coord)] * dim)
    return st.lists(vec, min_size=0, max_size=max_len)


@st.composite
def vector_family(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    return dim, draw(vectors_strategy(dim))


def naive_minimal(vectors):
    distinct = sorted(set(vectors))
    out = []
    for v in distinct:
        if not any(
            g != v and all(a <= b for a, b in zip(g, v)) for g in distinct
        ):
            out.append(v)
    return out


@given(st.data())
def test_minimal_antichain_matches_naive(data):
    # every dimension branch of the kernel: the 1-D and 2-D sweeps and,
    # 3-D to 5-D, the double loop and the bitsets
    for dim in range(1, 6):
        vecs = data.draw(vectors_strategy(dim, max_len=80), label=f"dim {dim}")
        assert kernels.minimal_antichain(vecs) == naive_minimal(vecs)


# At the default cap the 3-D to 5-D inputs take one bitset pass; with the
# cap at 32 points they also reach the halving, the coordinate split (from
# 4-D) and the two-coordinate sweep.  1-D and 2-D never use the cap.
@pytest.mark.parametrize(
    "dim, cap",
    [pytest.param(dim, None, id=str(dim)) for dim in range(1, 6)]
    + [pytest.param(dim, 32, id=f"{dim}-cap32") for dim in (3, 4, 5)],
)
def test_minimal_antichain_matches_naive_on_large_inputs(dim, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(kernels, "_BITSET_POINTS", cap)
    rng = random.Random(dim)
    for size, top in ((300, 6), (600, 40), (400, 1000)):
        vecs = [tuple(rng.randint(0, top) for _ in range(dim)) for _ in range(size)]
        # points on a hyperplane form an antichain: every distinct one is kept
        total = top * (dim - 1)
        stair = [v[1:] + (total - sum(v[1:]),) for v in vecs if sum(v[1:]) <= total]
        # a constant coordinate gives ties across a whole split
        slab = [v[:1] + (top,) + v[2:] for v in vecs]
        for case in (vecs, stair, slab):
            assert kernels.minimal_antichain(case) == naive_minimal(case)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_minimal_antichain_splits_above_the_bitset_cap(dim, monkeypatch):
    # distinct points on a hyperplane are all minimal, and a point raised
    # from one of them is not; the answer is known without a quadratic check
    rng = random.Random(dim)
    # a 3-D plane needs a larger total to hold enough distinct points
    total = 200 if dim == 3 else 40
    stair = []
    while len(stair) < 4000:
        head = [rng.randint(0, total) for _ in range(dim - 1)]
        if sum(head) <= total:
            stair.append(tuple(head) + (total - sum(head),))
    raised = []
    for v in rng.sample(stair, 1200):
        i = rng.randrange(dim)
        raised.append(v[:i] + (v[i] + rng.randint(1, 3),) + v[i + 1:])
    vecs = stair + raised
    assert len(set(vecs)) > 2 * kernels._BITSET_POINTS
    split = kernels.minimal_antichain(vecs)
    assert split == sorted(set(stair))
    monkeypatch.setattr(kernels, "_BITSET_POINTS", len(vecs))
    assert kernels.minimal_antichain(vecs) == split


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_bitset_minima_leave_coordinate_0_to_lex_order(dim):
    # the bitset tier compares coordinates 1.. only: of two points equal
    # there, the one with the larger coordinate 0 goes, and a point whose
    # tail lies below an earlier point's tail stays, its coordinate 0
    # being larger
    pad = (3,) * (dim - 3)
    equal_tails = [(1, 5, 5) + pad, (3, 5, 5) + pad]
    lower_tail = [(2, 7, 1) + pad, (4, 6, 0) + pad]
    # a hyperplane far above them, which they may divide but not the reverse
    rng = random.Random(dim)
    plane = set()
    while len(plane) < 40:
        head = [rng.randint(0, 20) for _ in range(dim - 1)]
        plane.add(tuple(head) + (60 - sum(head),))
    points = sorted(plane.union(equal_tails, lower_tail))
    assert kernels._NAIVE_POINTS < len(points) <= kernels._BITSET_POINTS
    got = kernels._minima(points)
    assert got == naive_minimal(points)
    assert equal_tails[0] in got and equal_tails[1] not in got
    assert lower_tail[0] in got and lower_tail[1] in got


BIG, HUGE = 1 << 40, 1 << 70


@st.composite
def below_case(draw):
    # small values repeat; some columns hold a single value, some entries
    # are too wide for a machine word
    dim = draw(st.integers(3, 6))
    c = draw(st.integers(0, dim - 3))
    value = st.one_of(st.integers(0, 3), st.sampled_from([HUGE, HUGE + 1]))
    flat = draw(st.dictionaries(st.integers(0, dim - 1), value, max_size=dim))
    point = st.tuples(*[st.just(flat[i]) if i in flat else value for i in range(dim)])
    A = draw(st.lists(point, max_size=40))
    B = draw(st.lists(point, min_size=1, max_size=40))
    return A, B, c


@given(below_case())
def test_below_matches_brute_force(case):
    A, B, c = case
    expected = [
        sum(1 << j for j, a in enumerate(A) if all(x <= y for x, y in zip(a[c:], b[c:])))
        for b in B
    ]
    assert kernels._below(A, B, c) == expected


@given(st.integers(1, 5).flatmap(lambda d: st.tuples(vectors_strategy(d, max_len=12), vectors_strategy(d, max_len=12))))
# the packed kernel makes its fields w bits wide, w the bit length of the
# largest left plus the largest right coordinate: all zeros; sums landing
# on 2**4 - 1 with w = 4 and on 2**4 with w = 5; huge coordinates beside
# small ones; an empty factor
@example(([(0,)], [(0,), (0,)]))
@example(([(0, 0, 0)], [(0, 0, 0)]))
@example(([(0, 0, 0), (0, 0, 0)], [(0, 0, 0), (0, 0, 0)]))
@example(([(8, 0), (0, 7), (3, 3)], [(7, 0), (0, 7), (1, 2)]))
@example(([(8, 0, 1), (0, 8, 0), (0, 0, 8), (3, 3, 3)], [(0, 0, 7), (7, 0, 0), (1, 7, 0)]))
@example(([(0, 8), (8, 0), (7, 7)], [(0, 7), (8, 0), (0, 8)]))
@example(([(8, 0, 8), (0, 8, 0), (7, 7, 7)], [(8, 8, 0), (0, 0, 8), (1, 1, 1)]))
@example(([(0, 0, 8, 0), (0, 16, 0, 0), (4, 4, 4, 4)], [(0, 0, 8, 0), (0, 0, 0, 16), (0, 1, 0, 0)]))
@example(([(BIG, 3, 0), (2, HUGE, 5), (0, 0, HUGE)], [(0, 1, HUGE), (7, 0, 0), (BIG, BIG, 1)]))
@example(([(HUGE, 0), (1, 1), (0, BIG)], [(HUGE, HUGE), (0, 2), (3, 0)]))
@example(([], [(1, 2)]))
@example(([(1, 2, 3)], []))
def test_pair_sums_antichain_matches_naive(pair):
    left, right = pair
    sums = [tuple(a + b for a, b in zip(g, h)) for g in left for h in right]
    got = kernels.pair_sums_antichain(left, right)
    assert kernels.minimal_antichain(got) == naive_minimal(sums)


@given(st.integers(1, 5).flatmap(lambda d: st.tuples(vectors_strategy(d, max_len=12), vectors_strategy(d, max_len=12))))
@example(([(0, 2, 1), (1, 0, 0)], [(0, 0, 2), (1, 1, 0)]))
def test_pair_sums_without_minimalizing_keep_the_swept_least_sums(pair):
    # the least sum per prefix, less those that another such sum with the
    # same first n - 2 coordinates divides: minimal within each such group
    left, right = pair
    sums = {tuple(a + b for a, b in zip(g, h)) for g in left for h in right}
    least = {}
    for v in sorted(sums, reverse=True):
        least[v[:-1]] = v
    groups = {}
    for v in least.values():
        groups.setdefault(v[:-2], []).append(v)
    expected = sorted(v for group in groups.values() for v in naive_minimal(group))
    got = kernels.pair_sums_antichain(left, right)
    assert got == expected
    assert kernels.minimal_antichain(got) == naive_minimal(sums)
    if left and len(left[0]) <= 2:
        assert got == naive_minimal(sums)


@given(st.integers(1, 5).flatmap(lambda d: vectors_strategy(d, max_len=20)))
@example([(0, 0, 1), (0, 1, 0), (1, 0, 0)])
def test_squares_form_the_same_sums_as_products(vecs):
    # a square forms each unordered pair once, a product every ordered pair
    assert kernels.pair_sums_antichain(vecs, vecs) == kernels.pair_sums_antichain(
        vecs, list(reversed(vecs))
    )


@given(st.integers(2, 5).flatmap(lambda d: st.tuples(vectors_strategy(d), vectors_strategy(d))))
def test_undominated_matches_naive(pair):
    A, B = pair
    assert kernels._undominated(A, B, 0) == naive_undominated(A, B)


def naive_undominated(A, B):
    return [not any(all(x <= y for x, y in zip(a, b)) for a in A) for b in B]


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_undominated_splits_a_tuple_above_the_bitset_cap(dim, monkeypatch):
    # closure passes an ideal's generator tuple as B; above the cap the
    # coordinate split and the two-coordinate sweep must take it as they
    # take a list
    monkeypatch.setattr(kernels, "_BITSET_POINTS", 32)
    rng = random.Random(dim)
    for top in (6, 40):
        A = [tuple(rng.randint(0, top) for _ in range(dim)) for _ in range(120)]
        B = tuple(tuple(rng.randint(0, top) for _ in range(dim)) for _ in range(150))
        assert kernels._undominated(A, B, 0) == naive_undominated(A, B)


@given(vector_family())
def test_minimal_antichain_is_antichain_and_covers(family):
    _, vecs = family
    out = kernels.minimal_antichain(vecs)
    assert out == sorted(out)
    for i, g in enumerate(out):
        for h in out[i + 1 :]:
            assert not all(a <= b for a, b in zip(g, h))
            assert not all(b <= a for a, b in zip(g, h))
    # every input is a multiple of something kept
    for v in vecs:
        assert any(all(map(le, g, v)) for g in out)
    # idempotent
    assert kernels.minimal_antichain(out) == out


@given(vector_family())
def test_minimal_antichain_order_insensitive(family):
    _, vecs = family
    assert kernels.minimal_antichain(vecs) == kernels.minimal_antichain(
        list(reversed(vecs))
    )


def test_pair_sums_leaves_the_public_antichain_name_alone(monkeypatch):
    # a wrapper on a public kernel, such as the benchmark's tracer, must see
    # only calls from outside the module: pair sums minimalize nothing
    def wrapped(vectors):
        raise AssertionError("pair sums called the public minimal_antichain")

    monkeypatch.setattr(kernels, "minimal_antichain", wrapped)
    assert kernels.pair_sums_antichain([(1, 0), (0, 1)], [(1, 0)]) == [(1, 1), (2, 0)]
    # in 3-D the sum (2, 1, 1), a multiple of (1, 0, 0), stays
    got = kernels.pair_sums_antichain([(0, 0, 0), (1, 1, 1)], [(1, 0, 0)])
    assert got == [(1, 0, 0), (2, 1, 1)]


def halfspace_member(nums, den):
    def member(v):
        if sum(c * x for c, x in zip(nums, v)) >= den:
            return True, None
        return False, (nums, den)

    return member


@st.composite
def halfspace_case(draw):
    dim = draw(st.integers(1, 4))
    bounds = tuple(draw(st.integers(0, 8)) for _ in range(dim))
    nums = tuple(draw(st.integers(0, 5)) for _ in range(dim))
    den = draw(st.integers(1, 25))
    return bounds, nums, den


@settings(deadline=None)
@given(halfspace_case())
def test_box_scan_finds_minimal_halfspace_points(case):
    bounds, nums, den = case
    found = kernels.box_closure_scan(bounds, [], halfspace_member(nums, den))
    def inside(v):
        return sum(c * x for c, x in zip(nums, v)) >= den
    # brute-force the minimal inside points of the box
    expected = []
    grid = [()]
    for b in bounds:
        grid = [g + (t,) for g in grid for t in range(b + 1)]
    ins = [v for v in grid if inside(v)]
    for v in ins:
        if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in ins):
            expected.append(v)
    assert found == sorted(expected)


def test_box_scan_with_seeds_and_a_separator_per_point():
    # two halfspaces, x + y >= 3 and x + 2y >= 4; each outside point gets
    # the first one it violates, and the seed (0, 3) is neither found
    # again nor are its multiples asked about
    halves = [((1, 1), 3), ((1, 2), 4)]
    asked = []

    def member(v):
        asked.append(v)
        for nums, den in halves:
            if sum(c * x for c, x in zip(nums, v)) < den:
                return False, (nums, den)
        return True, None

    found = kernels.box_closure_scan((6, 6), [(0, 3)], member)
    assert found == [(1, 2), (2, 1), (4, 0)]
    assert not any(v[1] >= 3 for v in asked)


def test_box_scan_budget():
    # a limit stops the scan at that many finds, the lex-least ones, and
    # raises nothing; four minimal points in all
    member = halfspace_member((1, 1), 3)
    everything = [(0, 3), (1, 2), (2, 1), (3, 0)]
    for limit in (1, 3, 4, 5, None):
        assert kernels.box_closure_scan((5, 5), [], member, limit) == everything[:limit]


def test_box_scan_ignores_seeds_outside_the_box():
    # (0, 0, 3, 0) divides no box point, though its third coordinate would
    # land it on the height cell of the rows at (p0, 1, 0)
    member = halfspace_member((1, 1, 1, 1), 2)
    bounds = (1, 2, 2, 3)
    bare = kernels.box_closure_scan(bounds, [], member)
    assert (0, 1, 0, 1) in bare
    assert kernels.box_closure_scan(bounds, [(0, 0, 3, 0)], member) == bare


def test_box_scan_refuses_an_oversized_slab_before_scanning():
    def member(v):
        raise AssertionError("the oracle was asked")

    assert 5001 * 5001 > kernels.SCAN_MAX_CELLS
    with pytest.raises(GeneratorBudgetError):
        kernels.box_closure_scan((1, 5000, 5000, 1), [], member)


def test_box_scan_caches_huge_separators_exactly():
    huge = 1 << 70

    def member(v):
        if v[0] + v[1] >= 4:
            return True, None
        return False, ((huge, huge), 4 * huge)

    assert kernels.box_closure_scan((4, 4), [], member) == [
        (0, 4), (1, 3), (2, 2), (3, 1), (4, 0)
    ]


def test_kernels_are_exact_on_huge_coordinates():
    big = 1 << 40
    vecs = [(big, 0), (0, big), (big, big), (3, 4)]
    assert kernels.minimal_antichain(vecs) == naive_minimal(vecs)
    I = MonomialIdeal(2, tuple(vecs))
    assert contains_monomial(I, (big, big))
    assert not contains_monomial(I, (big - 1, 3))
    sums = [(a + 1, b + 1) for a, b in vecs]
    assert kernels.pair_sums_antichain(vecs, [(1, 1)]) == naive_minimal(sums)
    # three times 3 << 39 needs one bit more than twice it, so a field
    # sized for a single pair sum would carry in the cube
    odd = 3 << 39
    J = MonomialIdeal(3, ((odd, 0, 1), (0, odd, 0), (1, 1, odd)))
    cubes = [tuple(map(sum, zip(*c))) for c in combinations_with_replacement(J.generators, 3)]
    assert list(power(J, 3).generators) == naive_minimal(cubes)


def test_backend_name():
    assert monoclose.backend_name() == "python"
