"""The combinatorial hot loops: antichains, pair and power sums, the box scan.

All arithmetic here is on native Python integers, so coordinates and
separator functionals of any size are exact.

Vectors are plain tuples of nonnegative ints; antichains are lists of such
tuples.  Output order is always lexicographic so results are canonical.

Minimal elements are found after one lexicographic sort, which puts every
dominator of a point before it, so only earlier points need asking.  The
work per dimension, for m distinct vectors:

* 1-D and 2-D: a sweep with a running minimum, O(m log m);
* 3-D and up, below a few dozen points: each point is simply checked
  against the minimal points kept before it; on a handful of points that
  is about three times cheaper than building bitsets;
* 3-D and up, up to ``_BITSET_POINTS`` (2048): bitsets.  Per coordinate
  but the first, the indices of the points are ORed into one int per value
  and prefix-ORed over the sorted values; a point's lookups, ANDed, hold
  the points at or below it there, of which only earlier ones dominate it.
  That is (d - 1) * m^2 / 30 steps over CPython's 30-bit digits; each list
  of such ints holds at most 2048^2 bits (512 KB);
* 3-D and up, more points: divide and conquer on the sorted list; the upper
  half is filtered against the lower half's minima in one dimension less,
  which again splits on a coordinate until two remain and ends in the
  running-minimum sweep (Kung, Luccio and Preparata, J. ACM 22(4), 1975),
  O(m log^(d-1) m).  The halves, and the filtering once both of its sides
  are within the cap, go to bitsets, so only inputs with more than 2048
  points a side pay the logs.

Ideal products go through ``pair_sums_antichain``, which packs each vector
into one int: coordinate 0 in the most significant field, every field w
bits wide, w being the bit length of the largest possible coordinate sum.
Adding two keys then adds the vectors field by field without a carry, and
comparing keys compares the vectors lexicographically, exactly at any size.
The pairwise sums are int additions; of the sums sharing all but the last
coordinate (the prefix ``s >> w``) only the least can be minimal, so one
is kept per prefix.  A square forms each unordered pair once.  The
survivors are swept as keys over their last two coordinates, anew for each
run of keys that share the coordinates before those.  They generate the
product: in 1-D and 2-D they are exactly its minimal generators, and in
3-D and up most of the other sums are gone.  A scan or a further product
takes them as they are; a caller that needs the minimal generators passes
them through ``minimal_antichain``.  Keys are built and decoded a
coordinate column at a time: a shift-or over each column to pack, one
list of ``s >> i & mask`` per field, zipped into tuples, to decode.

Ideal powers go through ``power_sums_antichain``, which chains those steps
on the keys themselves: one width for all of them, the bit length of k
times the largest coordinate, bounds every coordinate of a k-fold sum, so
the generators are packed once, each step's swept keys are the next
step's operand, and only the k-th power's keys are decoded.

The box scan accepts any generating set as seeds, minimal or not, and
stops once it has as many finds as its caller's ``limit``.  It tests its
cached separators only where it would ask the oracle: once at the start of
each row, and again on the one separator that arrives within the row.  The
row test stops at the first separator that closes the row and moves that
separator to the front of the cache, where the next rows, its neighbours,
meet it first.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain
from math import prod
from operator import and_, itemgetter, le, mul

from .errors import GeneratorBudgetError

# Below these sizes plain double loops are cheaper than a sweep structure.
_NAIVE_POINTS = 24
_NAIVE_PAIRS = 256
# Up to this many points a side, 3-D and up, dominance is read off bitsets.
_BITSET_POINTS = 2048
# Most height cells a box scan may allocate (a list of 8-byte slots, 32 MB).
SCAN_MAX_CELLS = 2**22


def backend_name() -> str:
    """Name of the kernel implementation, stamped on benchmark records."""
    return "python"


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
    return _minima(points)


def _minima(points):
    """Minimal elements of lex-sorted distinct ``points``, 3-D and up.

    A few points are checked directly; more go through one bitset pass
    (``_below`` from coordinate 1) up to ``_BITSET_POINTS``, and are split
    into halves above that.
    """
    if len(points) <= _NAIVE_POINTS:
        out = []
        for v in points:
            if not any(all(map(le, u, v)) for u in out):
                out.append(v)
        return out
    if len(points) <= _BITSET_POINTS:
        # every dominator of points[j] comes before it, so it is minimal
        # when no earlier point lies at or below it on coordinates 1..
        below = _below(points, points, 1)
        return [v for j, v in enumerate(points) if not below[j] & ((1 << j) - 1)]
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
    from ``c`` on decide; at least two of them remain.  Past the naive and
    bitset sizes, three or more are split on coordinate ``c`` and the last
    two are swept with a running minimum.
    """
    if not A or not B:
        return [True] * len(B)
    if len(A) * len(B) <= _NAIVE_PAIRS:
        return [not any(all(map(le, a, b)) for a in A) for b in B]
    if len(A) <= _BITSET_POINTS and len(B) <= _BITSET_POINTS:
        return [not m for m in _below(A, B, c)]
    if len(B[0]) - c == 2:
        # A sorted on coordinate c; least[r]: the least coordinate c + 1
        # among its r + 1 first points
        A = sorted(A, key=itemgetter(c))
        firsts = [a[c] for a in A]
        least = list(accumulate((a[c + 1] for a in A), min))
        keep = []
        for b in B:
            r = bisect_right(firsts, b[c])
            keep.append(not r or least[r - 1] > b[c + 1])
        return keep
    # split on coordinate c: an a below the pivot can dominate a b above
    # it only through the later coordinates, one above never one below
    firsts = sorted(v[c] for v in chain(A, B))  # either may be a tuple
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


def _below(A, B, c):
    """For each b in B, the bitset of the indices j with A[j][c:] <= b[c:].

    One coordinate at a time: the indices of A are ORed into one int per
    value, prefix-ORed over the sorted values, looked up for each b and
    ANDed across the coordinates.
    """
    masks = None
    for i in range(c, len(B[0])):
        bits = {}
        for j, a in enumerate(A):
            bits[a[i]] = bits.get(a[i], 0) | 1 << j
        values = sorted(bits)
        upto = [0]  # upto[r]: the indices whose value is among the r least
        for x in values:
            upto.append(upto[-1] | bits[x])
        col = [upto[bisect_right(values, b[i])] for b in B]
        masks = col if masks is None else list(map(and_, masks, col))
    return masks


def pair_sums_antichain(left, right):
    """Pairwise sums ``a + b`` that generate the product, lex-sorted.

    The least sum per prefix, swept over the last two coordinates on packed
    keys (see the module docstring): exactly the minimal sums in 1-D and
    2-D, possibly a few more from 3-D up.
    """
    if not left or not right:
        return []
    # every coordinate sum is below 2**w, so no field carries into the next
    w = (max(map(max, left)) + max(map(max, right))).bit_length() or 1
    keys = _pack(right, w)
    if left == right:
        sums = _square(keys)
    else:
        sums = {a + b for a in _pack(left, w) for b in keys}
    return _unpack(_sweep(sums, w), w, len(left[0]))


def power_sums_antichain(generators, k):
    """The k-fold sums of ``generators`` that generate the k-th power.

    ``generators`` squared, then k - 2 times summed with ``generators``, each
    step swept as in ``pair_sums_antichain`` and the next one taking its
    sums as they are, all on packed keys of one width; k = 1 returns the
    generators.  Exactly the minimal sums in 1-D and 2-D, possibly a few
    more from 3-D up.
    """
    if not generators:
        return []
    # every coordinate of a k-fold sum is below 2**w
    w = (k * max(map(max, generators))).bit_length() or 1
    base = _pack(generators, w)
    keys = _sweep(_square(base), w) if k > 1 else base
    for _ in range(k - 2):
        keys = _sweep({a + b for a in keys for b in base}, w)
    return _unpack(keys, w, len(generators[0]))


def _square(keys):
    # the sums of the keys' unordered pairs, each formed once
    return {a + b for i, a in enumerate(keys) for b in keys[i:]}


def _sweep(sums, w):
    """The kept keys among the packed ``sums``, ascending (module docstring)."""
    sums = sorted(sums, reverse=True)
    # walked in descending order, each prefix s >> w is last written with
    # its least sum, i.e. its least last coordinate
    keys = list({s >> w: s for s in sums}.values())
    keys.reverse()
    # a 2-D sweep over the last two coordinates, begun anew wherever the
    # coordinates before them (s >> 2w) change: a sum is dropped when an
    # earlier one with the same first n - 2 coordinates divides it
    mask = (1 << w) - 1
    kept = []
    group = low = None
    for s in keys:
        if s >> 2 * w != group:
            group, low = s >> 2 * w, mask + 1
        if s & mask < low:
            low = s & mask
            kept.append(s)
    return kept


def _pack(vectors, w):
    # one int per vector, coordinate 0 in the most significant w-bit field,
    # built a coordinate column at a time
    columns = zip(*vectors)
    keys = list(next(columns))
    for column in columns:
        keys = [key << w | c for key, c in zip(keys, column)]
    return keys


def _unpack(keys, w, dim):
    # the vectors of the keys, decoded a coordinate column at a time
    mask = (1 << w) - 1
    shifts = range(w * (dim - 1), -1, -w)
    return list(zip(*[[s >> i & mask for s in keys] for i in shifts]))


def box_closure_scan(bounds, seeds, member, limit=None):
    """Find the minimal lattice points of an up-closed region inside a box.

    ``bounds``: inclusive upper corner of the box.
    ``seeds``: points already known to be in the region (their multiples are
    skipped without consulting ``member``), in any order; they need not be
    an antichain, and only the ideal they generate matters.
    ``member(v)``: exact membership oracle.  Returns ``(True, None)`` for a
    region point and ``(False, sep)`` for any other, where every ``sep`` is
    an integer-scaled separating functional ``(nums, den)`` proving
    ``sum(nums*u) < den`` for u = v and ``>= den`` for every point of the
    region (so ``nums >= 0``, the region being up-closed).  Separators are
    cached and reused so the oracle is only consulted when no cached
    separator excludes the point.  The finds do not depend on which
    separators the oracle returns, only on its exact verdicts.
    ``limit``: optional positive number of finds after which the scan
    stops, asking the oracle nothing further; None scans the whole box.
    The find that reaches it ends its row, and the walk returns from every
    level above.

    Returns the minimal region points not dominated by a seed, in lex
    order, or only the ``limit`` lex-least of them; with no limit, the
    union of ``seeds`` and the result generates region ∩ N^n.

    The scan walks the box in lexicographic depth-first order, which visits
    every divisor of a point before the point itself; a point that reaches
    the oracle and is inside is therefore a minimal region point.  The
    oracle sees exactly the points, in lex order, that no seed or earlier
    find divides and no separator returned so far excludes; the skips below
    only leave out points that one of those two rules excludes.

    * Each row (a prefix p of all coordinates but the last) is scanned up
      to its staircase height h(p): the least last coordinate of a seed or
      find g with ``g[:-1] <= p``.  It satisfies
      h(p) = min(own(p), min_i h(p - e_i)), own(p) being the least last
      coordinate of a seed at p, and a find at (p, t) sets h(p) = t.  The
      heights live in one slab of prod(bounds[1:-1] + 1) cells, indexed by
      ``p[1:]``, that the walk overwrites in place: a cell holds h(p - e_0),
      lowered by own(p) as the walk enters p[0], until the walk reaches p.
      A row of height 0 ends its run of rows, whose cells are all set to 0.
      A slab of more than ``SCAN_MAX_CELLS`` cells raises
      GeneratorBudgetError before the scan.
    * A separator with ``nums >= 0`` excludes, in the row at prefix p,
      exactly the ``t`` below ``ceil(rest / nums[-1])``, where
      rest = den - sum(nums[:-1] * p); with rest > 0 and nums[-1] = 0 it
      excludes the whole row.  So each row starts at the largest such bound
      over the cached separators, and jumps again on a new separator alone.
      The test stops at the first separator whose bound reaches the row's
      height, which closes the row, and moves that separator to the front
      of the cache; the rows that ask nothing do not depend on the cache's
      order, so neither do the oracle's points.  The walk itself tests no
      separator: a prefix they exclude holds no region point, hence no seed
      or find, and its rows ask nothing.
    """
    n = len(bounds)
    last = n - 1
    free = bounds[last] + 1  # the height of a row that nothing dominates
    # the slab cell of a row prefix p is sum(p[i] * stride[i]): p[1:] in
    # mixed radix, while p[0] (stride 0) rolls the slab over
    radix = [b + 1 for b in bounds[:last]]
    stride = [0] + [prod(radix[i + 1:]) for i in range(1, last)]
    cells = prod(radix[1:])
    if cells > SCAN_MAX_CELLS:
        raise GeneratorBudgetError(f"box scan needs {cells} height cells, over the cap")
    height = [free] * cells
    # the seeds on the box's rows, by first coordinate: (cell, last coordinate)
    layers = {}
    for g in seeds:
        if all(map(le, g[:last], bounds)):
            layers.setdefault(g[0], []).append((sum(map(mul, g, stride)), g[last]))
    found = []
    seps = []  # (nums[:last], nums[last], den) per cached separator
    prefix = [0] * n

    def first_open(t, end, these):
        # least t' >= t in the current row that the separators in these
        # leave open; at the first one that leaves nothing open below end,
        # some t' >= end, and that separator moves to the front of these.
        # head has `last` entries, so prefix[last] is not read
        for sep in these:
            head, tail, den = sep
            rest = den - sum(map(mul, head, prefix))
            if rest > 0:
                t = max(t, -(-rest // tail)) if tail else free
                if t >= end:
                    if sep is not these[0]:
                        these.remove(sep)
                        these.insert(0, sep)
                    return t
        return t

    def scan_row(end):
        # the row at the current prefix, up to (not including) t = end;
        # returns the t found inside, or None
        t = first_open(0, end, seps)
        while t < end:
            prefix[last] = t
            v = tuple(prefix)
            inside, sep = member(v)
            if inside:
                found.append(v)
                return t
            nums, den = sep
            entry = (nums[:last], nums[last], den)
            seps.append(entry)
            t = first_open(t + 1, end, (entry,))
        return None

    def walk(d, base):
        # the subtree below prefix[:d], whose slab index so far is base;
        # returns True once the finds reach the limit
        for t in range(bounds[d] + 1):
            prefix[d] = t
            cell = base + t * stride[d]
            if d == 0:  # own(p) joins h(p - e_0) in the cells of this layer
                for c, h in layers.get(t, ()):
                    height[c] = min(height[c], h)
            if d < last - 1:
                if walk(d + 1, cell):
                    return True
            else:
                # h(p) = min(own(p), h(p - e_0), h(p - e_i) for i >= 1), the
                # first two in this cell, the rest walked earlier in this layer
                h = height[cell]
                for i in range(1, d + 1):
                    if prefix[i] and height[cell - stride[i]] < h:
                        h = height[cell - stride[i]]
                if h == 0:
                    # h never grows along a prefix coordinate, so the later
                    # rows of this run are 0 too, and later rows read them
                    end = cell + (bounds[d] - t) * stride[d] + 1
                    height[cell:end] = [0] * (end - cell)
                    return
                hit = scan_row(h)
                height[cell] = h if hit is None else hit
                if hit is not None and len(found) == limit:
                    return True

    if n == 1:
        scan_row(min([free] + [g[0] for g in seeds]))
    else:
        walk(0, 0)
    return found
