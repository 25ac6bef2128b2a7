"""Exact primal simplex for the weighted-cover LP behind polyhedron membership.

The only LP this package ever needs is

    maximize    sum(mu_j)
    subject to  sum_j mu_j * a_j <= v   componentwise
                mu >= 0

over nonnegative integer columns ``a_j`` and target ``v``, and the only
question asked of it is whether the optimum reaches a given threshold.  It
has one entry point, ``max_weight_lp``, which answers each query from
scratch with a certificate either way.  The slack basis is feasible from
the start (no phase one), Bland's smallest-index rule rules out cycling,
and all arithmetic is exact.

The tableau is condensed (the dictionary form of Chvatal, "Linear
Programming", 1983): one row per basic variable and one column per nonbasic
variable, then the right-hand side, with no identity block for the basis.
Variables 0..len(columns)-1 are the columns, and len(columns) + i is the
slack of row i; two label lists say which variable each row and each column
holds, and a pivot swaps the labels of the entering and leaving variables.
The objective is one more row, last: the reduced costs of the nonbasic
variables, then the objective value.  Each pivot eliminates it like the
others, so Bland's entering variable is the nonbasic one of least label
with a negative entry there, the threshold step reads its rate and the
current objective off it, and at the optimum the dual y_i is the entry of
slack i's column (0 while slack i is basic).

The tableau starts from the data as given, usually ints, and only a pivot
divides, by multiplying with the inverse of the pivot as a ``Fraction``.
Every decision reads ints: an entry is an int or a ``Fraction``, and both
have ``.numerator`` and ``.denominator`` (the latter positive).  So the
entering scan and the ratio test take signs off numerators, and the ratio
and threshold tests compare quotients by cross-multiplying numerators and
denominators, building no ``Fraction`` to throw away.  Only the pivots, the
final partial step and the returned weights and separator form
``Fraction``s.  Integer-preserving pivots (Bareiss, Math. Comp. 22, 1968)
would keep every entry an int, but they wait on the benchmark's memory
growth with the pass count (ROADMAP).

Two refinements matter to callers:

* the solver stops the moment the objective crosses the threshold, taking a
  partial step on the final pivot so the returned weights sum to the
  threshold exactly (this keeps their denominators small, which downstream
  dependence-witness search relies on);
* when the optimum stays below the threshold, the terminal dual vector is
  returned, and the optimum only through it: y is nonnegative, satisfies
  y . a_j >= 1 for every column and y . v = optimum, i.e. it is an exact
  separating functional.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def max_weight_lp(columns, target, threshold=1):
    """Decide whether max{sum(mu) : A mu <= target, mu >= 0} >= threshold.

    ``threshold`` is positive; every caller passes a power k >= 1.  Returns
    ``("inside", weights)`` with ``weights`` a dict {column index: positive
    Fraction} summing to exactly ``threshold``, or ``("outside", separator)``
    with ``separator`` a tuple of nonnegative Fractions whose dot product
    with ``target`` is the optimum, below ``threshold``.
    """
    n = len(target)
    ngens = len(columns)

    # Rows 0..n-1 are [A | target] at the slack basis; row n is the
    # objective row.  Column ngens holds the right-hand side.
    tab = [[a[i] for a in columns] + [target[i]] for i in range(n)]
    cost = [-1] * ngens + [0]
    tab.append(cost)
    basis = list(range(ngens, ngens + n))
    nonbasic = list(range(ngens))

    while True:
        # Entering column: least variable with negative reduced cost (Bland).
        enter = -1
        for j in range(ngens):
            if cost[j].numerator < 0 and (enter < 0 or nonbasic[j] < nonbasic[enter]):
                enter = j
        if enter < 0:
            # Optimal below threshold: the slack columns hold the dual.  A
            # pivot put each of them there, so their entries are Fractions.
            sep = [_ZERO] * n
            for j, var in enumerate(nonbasic):
                if var >= ngens:
                    sep[var - ngens] = cost[j]
            return "outside", tuple(sep)

        # Ratio test: least rhs / d over d > 0, ties to the least basic
        # variable; (pb, pd) is the pivot row's pair.  b / d < pb / pd
        # cross-multiplied by all four (positive) denominators.
        piv = -1
        for i in range(n):
            d = tab[i][enter]
            if d.numerator > 0:
                b = tab[i][ngens]
                if piv < 0:
                    piv, pb, pd = i, b, d
                    continue
                lo = b.numerator * d.denominator * pd.numerator * pb.denominator
                hi = pb.numerator * pd.denominator * d.numerator * b.denominator
                if lo < hi or (lo == hi and basis[i] < basis[piv]):
                    piv, pb, pd = i, b, d

        # The objective z = cost[ngens] climbs at rate rn / rd =
        # -cost[enter]; if the threshold falls within this step (always
        # true when the column is unbounded), stop at it exactly instead of
        # pivoting through.  The gap to it is gn / z.denominator, positive
        # since z stays below the threshold, and the test
        # gap * pd <= pb * rate is cross-multiplied like the ratio test.
        rn, rd = -cost[enter].numerator, cost[enter].denominator
        z = cost[ngens]
        gn = threshold * z.denominator - z.numerator
        if piv < 0 or (
            gn * pd.numerator * pb.denominator * rd
            <= pb.numerator * rn * z.denominator * pd.denominator
        ):
            theta = Fraction(gn * rd, z.denominator * rn)
            weights = {}
            for i in range(n):
                if basis[i] < ngens:
                    w = tab[i][ngens] - theta * tab[i][enter]
                    if w:
                        weights[basis[i]] = w
            if nonbasic[enter] < ngens and theta:
                weights[nonbasic[enter]] = theta
            return "inside", weights

        # Pivot, touching only the pivot row's nonzero entries.
        prow = tab[piv]
        inv = _ONE / pd
        nonzero = [j for j, x in enumerate(prow) if x and j != enter]
        for j in nonzero:
            prow[j] = inv * prow[j]
        prow[enter] = inv
        for i, row in enumerate(tab):
            f = row[enter]
            if f and i != piv:
                for j in nonzero:
                    row[j] -= prow[j] * f
                row[enter] = inv * -f
        basis[piv], nonbasic[enter] = nonbasic[enter], basis[piv]
