"""Exact rational LP for membership certificates.

Soundness is self-certifying.  An "inside" answer carries weights that must
be nonnegative and sum to the threshold while staying under the target
componentwise; an "outside" answer carries a separating functional y with
y >= 0, y . a_j >= 1 for every column and y . target equal to the optimum,
which is below the threshold.  By weak duality either certificate is a
complete proof, so the property tests just re-check the arithmetic.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoclose.simplex import max_weight_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


def check_inside(columns, target, threshold, weights):
    total = sum(weights.values())
    assert total == threshold
    combo = [Fraction(0)] * len(target)
    for j, w in weights.items():
        assert w > 0
        for i, c in enumerate(columns[j]):
            combo[i] += w * c
    for got, cap in zip(combo, target):
        assert got <= cap


def check_outside(columns, target, threshold, separator):
    """Check the separator and return the optimum it certifies, y . target."""
    optimum = sum(y * t for y, t in zip(separator, target))
    assert optimum < threshold
    for y in separator:
        assert y >= 0
    for col in columns:
        assert sum(y * c for y, c in zip(separator, col)) >= 1
    return optimum


def test_known_inside_case():
    columns = [(0, 0, 7), (0, 5, 0), (4, 0, 0)]
    decision, weights = max_weight_lp(columns, (0, 3, 3))
    assert decision == "inside"
    check_inside(columns, (0, 3, 3), 1, weights)


def test_known_outside_case():
    columns = [(4, 0, 0), (0, 5, 0), (0, 0, 7)]
    decision, separator = max_weight_lp(columns, (0, 3, 2))
    assert decision == "outside"
    assert separator == (Fraction(1, 4), Fraction(1, 5), Fraction(1, 7))
    assert check_outside(columns, (0, 3, 2), 1, separator) == Fraction(31, 35)


def test_generator_is_inside_with_unit_weight():
    columns = [(4, 0), (0, 5)]
    decision, weights = max_weight_lp(columns, (4, 0))
    assert decision == "inside"
    assert weights == {0: Fraction(1)}


def test_zero_target_is_outside():
    columns = [(2, 1), (1, 3)]
    decision, separator = max_weight_lp(columns, (0, 0))
    assert decision == "outside"
    assert check_outside(columns, (0, 0), 1, separator) == 0


def test_threshold_two():
    columns = [(4, 0, 0), (0, 5, 0), (0, 0, 7)]
    decision, weights = max_weight_lp(columns, (4, 5, 0), threshold=2)
    assert decision == "inside"
    check_inside(columns, (4, 5, 0), 2, weights)
    decision, separator = max_weight_lp(columns, (4, 5, 0), threshold=3)
    assert decision == "outside"
    check_outside(columns, (4, 5, 0), 3, separator)


def test_unbounded_counts_as_inside():
    # a zero column lets the objective grow without bound
    decision, weights = max_weight_lp([(0, 0), (5, 5)], (1, 1))
    assert decision == "inside"
    check_inside([(0, 0), (5, 5)], (1, 1), 1, weights)


@st.composite
def lp_case(draw):
    dim = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 6))
    col = st.tuples(*[st.integers(0, 10)] * dim)
    columns = [draw(col.filter(lambda c: any(c))) for _ in range(ncols)]
    target = tuple(draw(st.integers(0, 15)) for _ in range(dim))
    threshold = draw(st.integers(1, 3))
    return columns, target, threshold


@settings(max_examples=300)
@given(lp_case())
def test_certificates_are_sound(case):
    columns, target, threshold = case
    result = max_weight_lp(columns, target, threshold)
    if result[0] == "inside":
        check_inside(columns, target, threshold, result[1])
    else:
        check_outside(columns, target, threshold, result[1])


@given(lp_case())
def test_deterministic(case):
    columns, target, threshold = case
    assert max_weight_lp(columns, target, threshold) == max_weight_lp(
        columns, target, threshold
    )


@given(lp_case())
def test_scaling_target_by_threshold(case):
    # v in k*NP(columns) iff the threshold-k problem at v is feasible,
    # which matches the threshold-1 problem at v/k over scaled columns.
    columns, target, threshold = case
    scaled_cols = [tuple(Fraction(c) * threshold for c in col) for col in columns]
    a = max_weight_lp(columns, target, threshold)[0]
    b = max_weight_lp(scaled_cols, target, 1)[0]
    assert a == b


# The solver as it was before the tableau carried the objective row, kept
# verbatim as the reference: it rebuilds the reduced costs and the objective
# on every iteration and reads the dual off the slack columns at the end.
def reference_max_weight_lp(columns, target, threshold=1):
    """Decide whether max{sum(mu) : A mu <= target, mu >= 0} >= threshold.

    Returns ``("inside", weights)`` with ``weights`` a dict {column index:
    positive Fraction} summing to exactly ``threshold``, or
    ``("outside", separator, optimum)`` with ``separator`` a tuple of
    nonnegative Fractions.
    """
    n = len(target)
    ngens = len(columns)
    thr = Fraction(threshold)
    if thr <= 0:
        return "inside", {}

    ncols = ngens + n
    tab = []
    for i in range(n):
        row = [Fraction(columns[j][i]) for j in range(ngens)]
        row.extend(_ONE if t == i else _ZERO for t in range(n))
        tab.append(row)
    rhs = [Fraction(c) for c in target]
    basis = list(range(ngens, ngens + n))
    in_basis = [False] * ngens + [True] * n
    obj = _ZERO

    while True:
        # Entering column: smallest index with negative reduced cost (Bland).
        enter = -1
        enter_red = _ZERO
        for j in range(ncols):
            if in_basis[j]:
                continue
            red = _ZERO
            for i in range(n):
                if basis[i] < ngens:
                    red += tab[i][j]
            if j < ngens:
                red -= _ONE
            if red < 0:
                enter, enter_red = j, red
                break
        if enter < 0:
            # Optimal below threshold; read the dual off the slack columns.
            sep = []
            for i in range(n):
                y = _ZERO
                for t in range(n):
                    if basis[t] < ngens:
                        y += tab[t][ngens + i]
                sep.append(y)
            return "outside", tuple(sep), obj

        direction = [tab[i][enter] for i in range(n)]
        piv_row = -1
        theta_max = None
        for i in range(n):
            if direction[i] > 0:
                ratio = rhs[i] / direction[i]
                if (
                    theta_max is None
                    or ratio < theta_max
                    or (ratio == theta_max and basis[i] < basis[piv_row])
                ):
                    theta_max = ratio
                    piv_row = i

        # The objective climbs at rate -enter_red; if the threshold falls
        # within this step (always true when the column is unbounded), stop
        # at it exactly instead of pivoting through.
        theta_need = (thr - obj) / -enter_red
        if theta_max is None or theta_need <= theta_max:
            weights = {}
            for i in range(n):
                if basis[i] < ngens:
                    w = rhs[i] - theta_need * direction[i]
                    if w:
                        weights[basis[i]] = w
            if enter < ngens and theta_need:
                weights[enter] = weights.get(enter, _ZERO) + theta_need
            return "inside", weights

        pd = tab[piv_row][enter]
        prow = [x / pd for x in tab[piv_row]]
        tab[piv_row] = prow
        rhs[piv_row] /= pd
        prhs = rhs[piv_row]
        for i in range(n):
            if i == piv_row:
                continue
            f = tab[i][enter]
            if f:
                row = tab[i]
                tab[i] = [a - f * b for a, b in zip(row, prow)]
                rhs[i] -= f * prhs
        in_basis[basis[piv_row]] = False
        in_basis[enter] = True
        basis[piv_row] = enter
        obj = _ZERO
        for i in range(n):
            if basis[i] < ngens:
                obj += rhs[i]


@settings(max_examples=600)
@given(lp_case())
# a ratio-test tie that the basis index breaks, not the row index
@example(([(0, 2), (2, 1)], (2, 1), 2))
# the partial step lands exactly on theta_max, after one full pivot
@example(([(1, 0), (0, 1)], (1, 1), 2))
# Bland's first negative reduced cost, not the most negative one
@example(([(1, 2), (0, 1), (3, 0)], (1, 1), 1))
# an unbounded zero column
@example(([(0, 0), (5, 5)], (1, 1), 1))
@example(([(2, 1), (1, 3)], (0, 0), 1))
@example(([(4, 0, 0), (0, 5, 0), (0, 0, 7)], (4, 5, 0), 2))
@example(([(4, 0, 0), (0, 5, 0), (0, 0, 7)], (4, 5, 0), 3))
# a slack leaves the basis and enters again: Bland picks slack 2 on an
# outside case, and slack 3 for the partial step of an inside case
@example(([(1, 3), (0, 1)], (0, 1), 2))
@example(([(3, 4), (2, 0)], (2, 1), 1))
# the ratio and threshold tests cross-multiply numerators by denominators
# after a pivot: each of these fails once the ratio test's left side drops
# d.denominator (the first), or the threshold test's right side drops
# pd.denominator (the second); the first also fails if the ratio test drops
# b.numerator or pb.denominator on the left, or pd.denominator on the right
@example(([(1, 5, 1), (1, 2, 1)], (1, 1, 1), 1))
@example(([(2,), (1,)], (1,), 1))
# non-unit denominators before any pivot; fails under either drop above
@example(([(Fraction(2, 3), Fraction(2, 3)), (3, 0), (1, 0), (0, Fraction(1, 2))], (1, 1), 2))
# near 10^30 the tests' products pass 2^53: comparing either test's
# products as floats turns this outside case inside
@example(([(0, 10**30 + 1), (10**30 + 1, 10**30)], (10**30, 10**30), 1))
def test_matches_the_reference_solver(case):
    # same decision, weights and separator, Fraction for Fraction; the
    # reference also returns the optimum, which the separator gives as y . v
    result = max_weight_lp(*case)
    reference = reference_max_weight_lp(*case)
    assert result == reference[:2]
    # == lets an int through: the tableau starts from ints, and the partial
    # step's theta is built from ints
    if result[0] == "inside":
        numbers = list(result[1].values())
    else:
        numbers = list(result[1])
        target = case[1]
        assert sum(y * t for y, t in zip(result[1], target)) == reference[2]
    assert all(type(x) is Fraction for x in numbers)

