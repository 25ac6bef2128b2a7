"""Backend parity: the compiled kernels must match the pure ones exactly."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoclose import _kernels_py, kernels
from monoclose.errors import GeneratorBudgetError

try:
    from monoclose import _speedups
except ImportError:
    _speedups = None

needs_c = pytest.mark.skipif(_speedups is None, reason="compiled backend not built")

BACKENDS = [_kernels_py] + ([_speedups] if _speedups is not None else [])


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
    # every dimension branch of the kernel, 1-D sweep through 5-D recursion
    for dim in range(1, 6):
        vecs = data.draw(vectors_strategy(dim, max_len=80), label=f"dim {dim}")
        assert _kernels_py.minimal_antichain(vecs) == naive_minimal(vecs)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_minimal_antichain_matches_naive_on_large_inputs(dim):
    rng = random.Random(dim)
    for size, top in ((300, 6), (600, 40), (400, 1000)):
        vecs = [tuple(rng.randint(0, top) for _ in range(dim)) for _ in range(size)]
        # points on a hyperplane form an antichain: every distinct one is kept
        total = top * (dim - 1)
        stair = [v[1:] + (total - sum(v[1:]),) for v in vecs if sum(v[1:]) <= total]
        # a constant coordinate gives ties across a whole split
        slab = [v[:1] + (top,) + v[2:] for v in vecs]
        for case in (vecs, stair, slab):
            assert _kernels_py.minimal_antichain(case) == naive_minimal(case)


@given(st.integers(1, 5).flatmap(lambda d: st.tuples(vectors_strategy(d, max_len=12), vectors_strategy(d, max_len=12))))
def test_pair_sums_antichain_matches_naive(pair):
    left, right = pair
    sums = [tuple(a + b for a, b in zip(g, h)) for g in left for h in right]
    assert _kernels_py.pair_sums_antichain(left, right) == naive_minimal(sums)


@given(vector_family())
def test_minimal_antichain_is_antichain_and_covers(family):
    _, vecs = family
    out = _kernels_py.minimal_antichain(vecs)
    assert out == sorted(out)
    for i, g in enumerate(out):
        for h in out[i + 1 :]:
            assert not all(a <= b for a, b in zip(g, h))
            assert not all(b <= a for a, b in zip(g, h))
    # every input is a multiple of something kept
    for v in vecs:
        assert _kernels_py.dominates_any(out, v)
    # idempotent
    assert _kernels_py.minimal_antichain(out) == out


@given(vector_family())
def test_minimal_antichain_order_insensitive(family):
    _, vecs = family
    assert _kernels_py.minimal_antichain(vecs) == _kernels_py.minimal_antichain(
        list(reversed(vecs))
    )


@needs_c
@given(vector_family())
def test_minimal_antichain_backend_parity(family):
    _, vecs = family
    assert _speedups.minimal_antichain(vecs) == _kernels_py.minimal_antichain(vecs)


@needs_c
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(vectors_strategy(d, max_len=12), vectors_strategy(d, max_len=12))))
def test_pair_sums_backend_parity(pair):
    left, right = pair
    assert _speedups.pair_sums_antichain(left, right) == _kernels_py.pair_sums_antichain(
        left, right
    )


@needs_c
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(vectors_strategy(d), st.tuples(*[st.integers(0, 12)] * d))))
def test_dominates_any_backend_parity(case):
    gens, v = case
    expected = any(all(a <= b for a, b in zip(g, v)) for g in gens)
    assert _kernels_py.dominates_any(gens, v) is expected
    assert _speedups.dominates_any(gens, v) == expected


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
    found = _kernels_py.box_closure_scan(bounds, [], halfspace_member(nums, den))
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


@needs_c
@settings(deadline=None)
@given(halfspace_case())
def test_box_scan_backend_parity(case):
    bounds, nums, den = case
    a = _kernels_py.box_closure_scan(bounds, [], halfspace_member(nums, den))
    b = _speedups.box_closure_scan(bounds, [], halfspace_member(nums, den))
    assert a == b


@needs_c
def test_box_scan_parity_with_seeds_and_no_separator():
    # dominance-region oracle that never certifies: exercises the
    # sep-is-None branch and the seed skipping
    gens = [(0, 3), (2, 1), (4, 0)]

    def member(v):
        return (any(all(a <= b for a, b in zip(g, v)) for g in gens), None)

    args = ((6, 6), [(0, 3)], member)
    assert _kernels_py.box_closure_scan(*args) == _speedups.box_closure_scan(*args)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.BACKEND_NAME)
def test_box_scan_budget(impl):
    member = halfspace_member((1, 1), 3)
    with pytest.raises(GeneratorBudgetError):
        impl.box_closure_scan((5, 5), [], member, budget=3)
    # exactly at the cap is fine: four minimal points
    out = impl.box_closure_scan((5, 5), [], member, budget=4)
    assert out == [(0, 3), (1, 2), (2, 1), (3, 0)]


@needs_c
def test_box_scan_declines_oversized_separator():
    # a separator too large to cache in int64 must not change results
    huge = 1 << 70

    def member(v):
        if v[0] + v[1] >= 4:
            return True, None
        return False, ((huge, huge), 4 * huge)

    a = _kernels_py.box_closure_scan((4, 4), [], member)
    b = _speedups.box_closure_scan((4, 4), [], member)
    assert a == b == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]


def test_dispatch_routes_oversized_inputs_to_pure():
    big = 1 << 40
    vecs = [(big, 0), (0, big), (big, big), (3, 4)]
    assert kernels.minimal_antichain(vecs) == _kernels_py.minimal_antichain(vecs)
    assert kernels.dominates_any(vecs, (big, big))
    assert kernels.pair_sums_antichain(vecs, [(1, 1)]) == _kernels_py.pair_sums_antichain(
        vecs, [(1, 1)]
    )


def test_backend_env_forcing():
    code = "from monoclose import kernels; print(kernels.backend_name())"
    env = dict(os.environ, MONOCLOSE_BACKEND="python")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "python"
    env["MONOCLOSE_BACKEND"] = "nonsense"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode != 0
    assert "MONOCLOSE_BACKEND" in out.stderr


def test_backend_name_reports_active():
    assert kernels.backend_name() in ("c", "python")
    assert "python" in kernels.available_backends()
