"""Exact simplex for the weighted-cover LP behind polyhedron membership.

The only LP this package ever needs is

    maximize    sum(mu_j)
    subject to  sum_j mu_j * a_j <= v   componentwise
                mu >= 0

over nonnegative integer columns ``a_j`` and target ``v``, and the only
question asked of it is whether the optimum reaches a given threshold.  All
arithmetic is on ``Fraction``.  There are two entry points:

* ``max_weight_lp`` answers one query from scratch, with a certificate
  either way: primal simplex from the slack basis, which is feasible from
  the start (no phase one), under Bland's smallest-index rule;
* ``warm_lp`` answers a stream of queries over fixed columns and threshold,
  as a box scan asks them, with a separator for the outside ones.  Its
  first query, and any asked before it holds a dual-feasible tableau, is
  a ``max_weight_lp`` call, whose final tableau it keeps when the optimum
  stays below the threshold.  Only the right-hand side depends on the
  target, so every later query starts from the last tableau with that
  column recomputed and runs dual simplex under the dual Bland rule, which
  rules out cycling as the primal one does: the leaving row is the
  negative right-hand side whose basic index is smallest, the entering
  column the least ``cost[j] / -a[r][j]`` over the row's negative entries,
  the smallest j on ties (Applegate, Cook, Dash and Espinoza, "Exact
  solutions to linear programming problems", Oper. Res. Lett. 35, 2007).
  Dual feasibility keeps the objective an upper bound on the optimum, so
  the query is outside as soon as it falls below the threshold, and inside
  once no right-hand side is negative.  Either way the final tableau is
  kept for the next query.

The tableau carries the objective as one more row: the reduced costs of
every column, then the objective value.  Each pivot eliminates that row
like the others, so nothing is recomputed per iteration: Bland's entering
column is the row's first negative entry (basic columns read exactly 0),
the threshold step reads its rate and the current objective off it, and
its slack block is the dual y.  The pivot, one routine for both loops,
touches only the nonzero entries of the pivot row, which the slack block
makes sparse.  The slack block of the other rows is the basis inverse, so
a new target's right-hand side is that block times the target, and its
objective is y times the target.

Two refinements of the primal loop matter to callers:

* the solver stops the moment the objective crosses the threshold, taking a
  partial step on the final pivot so the returned weights sum to the
  threshold exactly (this keeps their denominators small, which downstream
  dependence-witness search relies on);
* when the optimum stays below the threshold, the terminal dual vector is
  returned.  It is nonnegative, satisfies y . a_j >= 1 for every column and
  y . v = optimum, i.e. it is an exact separating functional.  The dual
  loop's separator is the same functional of a dual-feasible tableau, with
  y . v below the threshold.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _tableau(columns, target):
    # Rows 0..n-1 are [A | I | target]; row n is the objective row: the
    # reduced costs, then the objective value.  Returns (tableau, basis).
    n = len(target)
    ngens = len(columns)
    tab = []
    for i in range(n):
        row = [Fraction(columns[j][i]) for j in range(ngens)]
        row.extend(_ONE if t == i else _ZERO for t in range(n))
        row.append(Fraction(target[i]))
        tab.append(row)
    tab.append([-_ONE] * ngens + [_ZERO] * (n + 1))
    return tab, list(range(ngens, ngens + n))


def _pivot(tab, basis, piv_row, enter):
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


def _primal(tab, basis, ngens, thr):
    # max_weight_lp's loop on a feasible tableau, which it leaves at the
    # optimum when it returns "outside"
    n = len(basis)
    ncols = ngens + n
    cost = tab[n]
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

        _pivot(tab, basis, piv_row, enter)


def _dual(tab, basis, ngens, target, thr):
    # dual simplex from a dual-feasible tableau, its right-hand side and
    # objective recomputed for target; None when inside, else the separator
    n = len(basis)
    ncols = ngens + n
    cost = tab[n]
    terms = [(ngens + t, x) for t, x in enumerate(target) if x]
    for row in tab:
        acc = _ZERO
        for j, x in terms:
            if row[j]:
                acc += row[j] * x
        row[ncols] = acc
    while cost[ncols] >= thr:
        piv_row = -1
        for i in range(n):
            if tab[i][ncols] < 0 and (piv_row < 0 or basis[i] < basis[piv_row]):
                piv_row = i
        if piv_row < 0:
            return None
        # mu = 0 is feasible, so the leaving row has a negative entry
        row = tab[piv_row]
        enter = -1
        for j in range(ncols):
            if row[j] < 0:
                ratio = cost[j] / -row[j]
                if enter < 0 or ratio < best:
                    enter, best = j, ratio
        _pivot(tab, basis, piv_row, enter)
    return tuple(cost[ngens:ncols])


def max_weight_lp(columns, target, threshold=1, *, keep=None):
    """Decide whether max{sum(mu) : A mu <= target, mu >= 0} >= threshold.

    Returns ``("inside", weights)`` with ``weights`` a dict {column index:
    positive Fraction} summing to exactly ``threshold``, or
    ``("outside", separator, optimum)`` with ``separator`` a tuple of
    nonnegative Fractions.  ``keep``: a list to which an outside answer
    appends its final (tableau, basis), the dual-feasible start that
    ``warm_lp`` continues from.
    """
    thr = Fraction(threshold)
    if thr <= 0:
        return "inside", {}
    tab, basis = _tableau(columns, target)
    res = _primal(tab, basis, len(columns), thr)
    if keep is not None and res[0] == "outside":
        keep.append((tab, basis))
    return res


def warm_lp(columns, threshold=1):
    """A membership oracle for many targets over the same columns.

    Returns a callable target -> None when max{sum(mu) : A mu <= target,
    mu >= 0} >= threshold, else a separator: a tuple y of nonnegative
    Fractions with y . a_j >= 1 for every column and y . target below the
    threshold.  The decisions are max_weight_lp's; the separators depend
    on the targets asked before, through the tableau the oracle keeps.
    """
    ngens = len(columns)
    thr = Fraction(threshold)
    held = []  # the dual-feasible (tableau, basis), once there is one

    def query(target):
        if held:
            return _dual(*held[0], ngens, target, thr)
        res = max_weight_lp(columns, target, threshold, keep=held)
        return None if res[0] == "inside" else res[1]

    return query
