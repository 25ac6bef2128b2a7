"""Pure-Python implementations of the combinatorial hot loops.

These functions mirror the compiled versions in ``monoclose._speedups``.
They are the reference implementation: the compiled module must produce
identical output on every input it accepts.  All arithmetic here is on
native Python integers, so there is no overflow anywhere on this path.

Vectors are plain tuples of nonnegative ints; antichains are lists of such
tuples.  Output order is always lexicographic so results are canonical.

Minimal elements are found after one lexicographic sort, which puts every
dominator of a point before it, so only earlier points need asking.  The
work per dimension, for m distinct vectors:

* 1-D and 2-D: a sweep with a running minimum, O(m log m);
* 3-D: a prefix-minimum Fenwick tree over the second coordinate,
  O(m log m);
* 4-D and up: divide and conquer on the sorted list; the upper half is
  filtered against the lower half's minima in one dimension less, which
  again splits on a coordinate until three remain (Kung, Luccio and
  Preparata, J. ACM 22(4), 1975), O(m log^(d-2) m).

Below a few dozen points, 3-D and up, each point is simply checked against
the minimal points kept before it.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add, itemgetter, le

from .errors import GeneratorBudgetError

BACKEND_NAME = "python"

# Below these sizes plain double loops are cheaper than a sweep structure.
_NAIVE_POINTS = 24
_NAIVE_PAIRS = 256


def minimal_antichain(vectors):
    """Return the componentwise-minimal elements of ``vectors``, lex-sorted.

    Duplicates are dropped.
    """
    points = sorted(set(vectors))
    if len(points) < 2:
        return points
    dim = len(points[0])
    if dim == 1:
        return points[:1]
    if dim == 2:
        out = []
        low = None
        for v in points:
            if low is None or v[1] < low:
                out.append(v)
                low = v[1]
        return out
    if dim == 3 and len(points) > _NAIVE_POINTS:
        keep = _undominated_3d(points, points, 0, online=True)
        return [v for v, ok in zip(points, keep) if ok]
    return _minima(points)


def _minima(points):
    """Minimal elements of lex-sorted distinct ``points``, 3-D and up.

    A few points are checked directly; more (only 4-D and up get here with
    more) are split into halves.
    """
    if len(points) <= _NAIVE_POINTS:
        out = []
        for v in points:
            if not any(all(map(le, u, v)) for u in out):
                out.append(v)
        return out
    mid = len(points) // 2
    low = _minima(points[:mid])
    high = _minima(points[mid:])
    # no upper-half point dominates a lower-half one, and every lower-half
    # first coordinate is at most every upper-half one
    keep = _undominated(low, high, 1)
    return low + [v for v, ok in zip(high, keep) if ok]


def _undominated(A, B, c):
    """For each b in B: True when no a in A satisfies a <= b componentwise.

    Every pair already satisfies ``a[:c] <= b[:c]``, so only coordinates
    from ``c`` on decide; at least three of them remain.
    """
    if not A or not B:
        return [True] * len(B)
    if len(A) * len(B) <= _NAIVE_PAIRS:
        return [not any(all(map(le, a, b)) for a in A) for b in B]
    k = len(B[0]) - c
    if k == 3:
        return _undominated_3d(A, B, c)
    # split on coordinate c: an a below the pivot can dominate a b above
    # it only through the later coordinates, one above never one below
    firsts = sorted(v[c] for v in A + B)
    pivot = firsts[len(firsts) // 2]
    if pivot == firsts[0] == firsts[-1]:
        return _undominated(A, B, c + 1)
    if pivot == firsts[-1]:
        def is_low(v):
            return v[c] < pivot
    else:
        def is_low(v):
            return v[c] <= pivot
    A_low = [a for a in A if is_low(a)]
    A_high = [a for a in A if not is_low(a)]
    lows = [j for j, b in enumerate(B) if is_low(b)]
    highs = [j for j, b in enumerate(B) if not is_low(b)]
    keep = [True] * len(B)
    for j, ok in zip(lows, _undominated(A_low, [B[j] for j in lows], c)):
        keep[j] = ok
    B_high = [B[j] for j in highs]
    same = _undominated(A_high, B_high, c)
    below = _undominated(A_low, B_high, c + 1)
    for j, ok, ok2 in zip(highs, same, below):
        keep[j] = ok and ok2
    return keep


def _undominated_3d(A, B, c, online=False):
    """``_undominated`` on coordinates c, c+1, c+2, by a Fenwick tree.

    Sweeps coordinate c, A before B on ties; the tree maps a rank of
    coordinate c+1 to the least coordinate c+2 seen at or below it.
    ``online``: A and B are the same lex-sorted list (c = 0) and a point is
    only compared with the kept points before it; each point's dominators
    all come earlier, and dominance is transitive.
    """
    ys = sorted({a[c + 1] for a in A})
    size = len(ys)
    tree = [None] * (size + 1)

    def insert(a):
        i = bisect_right(ys, a[c + 1])
        z = a[c + 2]
        while i <= size:
            if tree[i] is None or z < tree[i]:
                tree[i] = z
            i += i & -i

    def dominated(b):
        i = bisect_right(ys, b[c + 1])
        z = b[c + 2]
        while i:
            if tree[i] is not None and tree[i] <= z:
                return True
            i -= i & -i
        return False

    keep = [True] * len(B)
    if online:
        for j, b in enumerate(B):
            if dominated(b):
                keep[j] = False
            else:
                insert(b)
        return keep
    x = itemgetter(c)
    A = sorted(A, key=x)
    i = 0
    for j in sorted(range(len(B)), key=lambda j: x(B[j])):
        b = B[j]
        while i < len(A) and x(A[i]) <= x(b):
            insert(A[i])
            i += 1
        keep[j] = not dominated(b)
    return keep


def pair_sums_antichain(left, right):
    """Minimal antichain of all pairwise sums ``a + b``."""
    sums = {tuple(map(add, a, b)) for a in left for b in right}
    return minimal_antichain(sums)


def dominates_any(gens, v):
    """True if some g in gens satisfies g <= v componentwise."""
    for g in gens:
        ok = True
        for a, b in zip(g, v):
            if a > b:
                ok = False
                break
        if ok:
            return True
    return False


def box_closure_scan(bounds, seeds, member, budget=None):
    """Find the minimal lattice points of an up-closed region inside a box.

    ``bounds``: inclusive upper corner of the box.
    ``seeds``: points already known to be in the region (their multiples are
    skipped without consulting ``member``).
    ``member(v)``: exact membership oracle.  Returns ``(True, None)`` or
    ``(False, sep)`` where ``sep`` is either ``None`` or an integer-scaled
    separating functional ``(nums, den)`` proving ``sum(nums*u) < den`` for
    u = v and ``>= den`` for every point of the region (so ``nums >= 0``,
    the region being up-closed).  Separators are cached and reused so the
    oracle is only consulted when no cached separator excludes the point.
    ``budget``: optional cap on the number of found points; exceeding it
    raises GeneratorBudgetError instead of grinding on.

    Returns the list of newly found minimal region points, in lex order.
    The union of ``seeds`` and the result generates region ∩ N^n; points
    returned are exactly the minimal region points not dominated by a seed.

    The scan walks the box in lexicographic depth-first order, which visits
    every divisor of a point before the point itself; a point that reaches
    the oracle and is inside is therefore a minimal region point.  The
    oracle sees exactly the points, in lex order, that no seed or earlier
    find divides and no separator returned so far excludes; the skips below
    only leave out points that one of those two rules excludes.

    * Dominators are filtered by prefix down the walk: at depth d only the
      seeds and finds with ``g[:d] <= prefix`` are kept, sorted by ``g[d]``
      and activated as ``t`` grows.  A find joins every level at once.
      One level above the rows, the least last coordinate of the active
      dominators is each row's first dominated ``t``, kept as a running
      minimum.
    * A separator with ``nums >= 0`` excludes, for a fixed prefix, exactly
      the ``t`` below ``ceil(rest / nums[d])``; so each level starts at the
      largest such bound and jumps again when a new separator arrives.
    """
    n = len(bounds)
    if n == 0:
        return []
    found = []
    seps = []  # (nums, den, suf): suf[d] = max of sum(nums[d:] * u[d:]) in the box
    prefix = [0] * n
    path = []  # the active dominators of each level above the rows

    def first_open(d, t, new_seps):
        # least t' >= t at depth d whose subtree the separators leave open
        for nums, den, suf in new_seps:
            rest = den - suf[d + 1]
            for i in range(d):
                rest -= nums[i] * prefix[i]
            if rest > 0:
                if not nums[d]:
                    return bounds[d] + 1
                t = max(t, -(-rest // nums[d]))
        return t

    def scan_row(end):
        # the row at the current prefix, up to (not including) t = end;
        # returns the t found inside, or None
        last = n - 1
        t = first_open(last, 0, seps)
        while t < end:
            prefix[last] = t
            v = tuple(prefix)
            inside, sep = member(v)
            if inside:
                found.append(v)
                if budget is not None and len(found) > budget:
                    raise GeneratorBudgetError(
                        f"more than {budget} new generators in box scan"
                    )
                for active in path:
                    active.append(v)
                return t
            if sep is None:
                t += 1
            else:
                nums, den = sep
                suf = [0] * (n + 1)
                for i in range(last, -1, -1):
                    suf[i] = suf[i + 1] + nums[i] * bounds[i]
                entry = (tuple(nums), den, suf)
                seps.append(entry)
                t = first_open(last, t + 1, (entry,))
        return None

    def walk_rows(cands):
        # depth n-2: one row per t
        d = n - 2
        pending = sorted(cands, key=itemgetter(d))
        i = 0
        first_dom = bounds[-1] + 1
        t = first_open(d, 0, seps)
        while t <= bounds[d]:
            while i < len(pending) and pending[i][d] <= t:
                if pending[i][-1] < first_dom:
                    first_dom = pending[i][-1]
                i += 1
            if first_dom == 0:
                return  # this row and every later one are dominated
            prefix[d] = t
            known = len(seps)
            hit = scan_row(first_dom)
            if hit is not None:
                first_dom = hit
            t += 1
            if len(seps) > known:
                t = first_open(d, t, seps[known:])

    def walk(d, cands):
        if d == n - 2:
            walk_rows(cands)
            return
        pending = sorted(cands, key=itemgetter(d))
        i = 0
        active = []
        path.append(active)
        t = first_open(d, 0, seps)
        while t <= bounds[d]:
            while i < len(pending) and pending[i][d] <= t:
                active.append(pending[i])
                i += 1
            prefix[d] = t
            known = len(seps)
            walk(d + 1, active)
            t += 1
            if len(seps) > known:
                t = first_open(d, t, seps[known:])
        path.pop()

    seeds = [tuple(s) for s in seeds]
    if n == 1:
        scan_row(min([s[0] for s in seeds], default=bounds[0] + 1))
    else:
        walk(0, seeds)
    return found
