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
and all arithmetic is on ``Fraction``.

The tableau carries the objective as one more row: the reduced costs of
every column, then the objective value.  Each pivot eliminates that row
like the others, so nothing is recomputed per iteration: Bland's entering
column is the row's first negative entry (basic columns read exactly 0),
the threshold step reads its rate and the current objective off it, and at
the optimum its slack block is the dual.  The pivot touches only the
nonzero entries of the pivot row, which the slack block makes sparse.

Two refinements matter to callers:

* the solver stops the moment the objective crosses the threshold, taking a
  partial step on the final pivot so the returned weights sum to the
  threshold exactly (this keeps their denominators small, which downstream
  dependence-witness search relies on);
* when the optimum stays below the threshold, the terminal dual vector is
  returned.  It is nonnegative, satisfies y . a_j >= 1 for every column and
  y . v = optimum, i.e. it is an exact separating functional.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def max_weight_lp(columns, target, threshold=1):
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
    # Rows 0..n-1 are [A | I | target]; row n is the objective row: the
    # reduced costs, then the objective value.
    tab = []
    for i in range(n):
        row = [Fraction(columns[j][i]) for j in range(ngens)]
        row.extend(_ONE if t == i else _ZERO for t in range(n))
        row.append(Fraction(target[i]))
        tab.append(row)
    cost = [-_ONE] * ngens + [_ZERO] * (n + 1)
    tab.append(cost)
    basis = list(range(ngens, ncols))

    while True:
        # Entering column: smallest index with negative reduced cost (Bland).
        for enter in range(ncols):
            if cost[enter] < 0:
                break
        else:
            # Optimal below threshold: the slack block is the dual.
            return "outside", tuple(cost[ngens:ncols]), cost[ncols]

        piv_row = -1
        theta_max = None
        for i in range(n):
            d = tab[i][enter]
            if d > 0:
                ratio = tab[i][ncols] / d
                if (
                    theta_max is None
                    or ratio < theta_max
                    or (ratio == theta_max and basis[i] < basis[piv_row])
                ):
                    theta_max = ratio
                    piv_row = i

        # The objective climbs at rate -cost[enter]; if the threshold falls
        # within this step (always true when the column is unbounded), stop
        # at it exactly instead of pivoting through.
        theta_need = (thr - cost[ncols]) / -cost[enter]
        if theta_max is None or theta_need <= theta_max:
            weights = {}
            for i in range(n):
                if basis[i] < ngens:
                    w = tab[i][ncols] - theta_need * tab[i][enter]
                    if w:
                        weights[basis[i]] = w
            if enter < ngens and theta_need:
                weights[enter] = weights.get(enter, _ZERO) + theta_need
            return "inside", weights

        # the slack block leaves most pivot-row entries zero
        prow = tab[piv_row]
        nonzero = [j for j, x in enumerate(prow) if x]
        pd = prow[enter]
        for j in nonzero:
            prow[j] /= pd
        for i, row in enumerate(tab):
            f = row[enter]
            if f and i != piv_row:
                for j in nonzero:
                    row[j] -= f * prow[j]
        basis[piv_row] = enter
