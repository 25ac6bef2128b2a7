"""Integral-closedness and normality decisions with auditable reports.

An ideal is integrally closed when it equals its integral closure, and
normal when every power is.  In n variables it suffices to check the first
n-1 powers (Reid, Roberts and Vitulli, Comm. Algebra 31 (2003)), which keeps
everything finite.  ``is_normal`` decides any ideal by box-scanning each
power against its Newton polyhedron.

For pure-power families J = closure((x_1^a1, ..., x_n^an)) the question is
one about the exponents and NP(J) alone.  With L = lcm(alpha) and
N_i = L / a_i, J is the set {v : N.v >= L}.  If J^(k-1) is closed, v lies in
J^k = J * J^(k-1) exactly when some integer b with 0 <= b <= v has
L <= N.b <= N.v - (k-1)L (take b in J and v - b in J^(k-1)).  Checking
k = 2, ..., n-1 in order keeps that premise true, so the direct route tests
this on the lattice points of k*NP(J) and forms no power at all.  A few
shortcut criteria decide normality outright or shrink the exponents first;
each fired shortcut is recorded so a report can be audited, and every
shortcut has a direct-route cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from . import kernels
from .errors import GeneratorBudgetError
from .ideals import MonomialIdeal, _require_count
from .newton import (
    _missing_generators,
    _require_budget,
    _require_exponents,
    _require_proper,
    _scan_oracle,
)

NORMAL = "normal"
NOT_NORMAL = "not_normal"

QUASINORMAL_UP_TO_BOUND = "quasinormal_up_to_bound"
COUNTEREXAMPLE_FOUND = "counterexample_found"

# quasinormality_check holds bound + 1 bitmasks of bound * lcm(alpha) + 1
# bits each; larger scans are refused before anything is allocated.
QUASINORMAL_MAX_BITS = 2**31
# The direct pure-power route walks bitsets of lcm(alpha) + max(N) + N_n
# bits, one per variable and a few temporaries; wider ones are refused
# before any is built.
POWER_WALK_MAX_BITS = 2**24


@dataclass(frozen=True)
class NormalityReport:
    """Outcome of a normality decision plus everything needed to audit it.

    ``checked_powers`` lists (k, integrally closed?) for the direct route;
    shortcut verdicts leave it empty.  When ``representative`` is set the
    exponent reductions replaced the subject by that smaller tuple and the
    witness data refers to it (the verdict transfers exactly).
    """

    subject: object
    verdict: str
    checked_powers: tuple[tuple[int, bool], ...] = ()
    failing_witness: tuple[int, ...] | None = None
    shortcuts: tuple[str, ...] = ()
    representative: tuple[int, ...] | None = None

    @property
    def is_normal(self) -> bool:
        return self.verdict == NORMAL

    @property
    def failing_power(self) -> int | None:
        for k, ok in self.checked_powers:
            if not ok:
                return k
        return None


@dataclass(frozen=True)
class QuasinormalityVerdict:
    """Bounded quasinormality scan result for the monoid <1/a_1, ..., 1/a_n>.

    ``witness`` is a pair (x, p): x in the monoid with x >= p admitting no
    decomposition into p monoid elements all >= 1.  The scan covers monoid
    elements up to ``bound`` (times the common denominator), no further, and
    the verdict name says so.
    """

    alpha: tuple[int, ...]
    bound: int
    verdict: str
    witness: tuple[Fraction, int] | None = None


def is_integrally_closed(I: MonomialIdeal):
    """Whether I equals its closure; on failure also the lex-least witness.

    Returns (True, None) or (False, v) with v a minimal closure generator
    not in I: the first step of ``_scanned_witnesses``.
    """
    _require_proper(I, "integral closedness")
    witness = next(_scanned_witnesses(I, None))
    return witness is None, witness


def is_normal(I: MonomialIdeal, max_generators: int | None = None) -> NormalityReport:
    """Direct normality decision: the first n-1 powers must be closed."""
    _require_proper(I, "normality")
    _require_budget(max_generators)
    return _report(I, I.dim, _scanned_witnesses(I, max_generators), ("none",))


def _first_failure(n, witnesses):
    """(k, closed?) for the powers to check, up to the first failure; its witness.

    ``witnesses`` yields the lex-least witness of I^k, or None when I^k is
    closed, for k = 1, 2, ... and forms each power only when asked.  The
    range comes first in the zip, so the power after the last one checked
    is never formed.  One variable leaves the 1..n-1 range empty; closedness
    of I itself is still checked rather than hard-coding "normal".
    """
    checked = []
    for k, witness in zip(range(1, max(n, 2)), witnesses):
        checked.append((k, witness is None))
        if witness is not None:
            return tuple(checked), witness
    return tuple(checked), None


def _report(subject, n, witnesses, shortcuts, representative=None):
    """The report on ``subject`` whose powers ``_first_failure`` checks."""
    checked, witness = _first_failure(n, witnesses)
    return NormalityReport(
        subject=subject,
        verdict=NORMAL if witness is None else NOT_NORMAL,
        checked_powers=checked,
        failing_witness=witness,
        shortcuts=shortcuts,
        representative=representative,
    )


def _scanned_witnesses(I, max_generators):
    """The first find of each power's box scan, k = 1, 2, ...: its witness.

    I^k is closed exactly when k * NP(I) has no lattice point it misses; the
    scan runs in lex order and stops at its first find, the lex-least
    witness, and every power's scan tests the same facets of NP(I).  Each
    power is carried as the pair sums of the previous one with I, as in
    ``ideals.power``: they generate it without always being minimal, the
    scan takes them as they are, and they are the next power's operand.
    ``max_generators`` bounds the minimal generator count of each power; a
    power is minimalized only when it has more sums than that.
    """
    seeds = I.generators
    oracle = _scan_oracle(I.generators, I.dim)
    for k in count(1):
        if k > 1:
            seeds = kernels.pair_sums_antichain(seeds, I.generators)
            if max_generators is not None and len(seeds) > max_generators:
                seeds = kernels.minimal_antichain(seeds)
                if len(seeds) > max_generators:
                    raise GeneratorBudgetError(
                        f"power {k} has {len(seeds)} generators, "
                        f"over the budget {max_generators}"
                    )
        missing = _missing_generators(seeds, oracle, k, 1)
        yield missing[0] if missing else None


def _diag_ideal(alpha) -> MonomialIdeal:
    n = len(alpha)
    gens = [
        tuple(alpha[i] if j == i else 0 for j in range(n)) for i in range(n)
    ]
    return MonomialIdeal(n, tuple(gens))


def _settling_shortcut(alpha):
    """The first shortcut that proves closure((x_i^alpha_i)) normal, or None."""
    if len(set(alpha)) <= 2:
        return "two_exponent"
    if gcd(*alpha) > len(alpha) - 2:
        return "gcd"
    if _chain_applies(alpha):
        return "divisibility_chain"
    return None


def _chain_applies(alpha) -> bool:
    # Some entry is a multiple of l where the remaining entries take at most
    # two values s <= l with s | l.
    for t in range(len(alpha)):
        rest = sorted(set(alpha[:t] + alpha[t + 1:]))
        if not rest or len(rest) > 2:
            continue
        s, low_l = rest[0], rest[-1]
        if low_l % s == 0 and alpha[t] % low_l == 0:
            return True
    return False


def _lcm_shift_reduce(alpha):
    """Replace the largest entry by its [c, 2c) representative, or None.

    c is the lcm of the other entries; normality transfers unchanged in both
    directions between congruent entries at or above c.  Only tuples with
    three distinct entries or more get here: fewer settle as two_exponent.
    """
    i = max(range(len(alpha)), key=lambda t: alpha[t])
    c = lcm(*alpha[:i], *alpha[i + 1:])
    if alpha[i] < 2 * c:
        return None
    beta = c + alpha[i] % c
    return alpha[:i] + (beta,) + alpha[i + 1:]


def pure_power_normality(
    alpha,
    use_shortcuts: bool = True,
    max_generators: int | None = None,
) -> NormalityReport:
    """Normality of closure((x_1^a1, ..., x_n^an)).

    Shortcut order, cheapest first: at most two distinct entries; gcd
    exceeding n-2; a divisibility chain (all but one entry in {s, l} with
    s | l dividing the remaining one); lcm-shift reduction of the largest
    entry, then retry.  Whatever is left is decided by the direct
    first-n-1-powers route, which walks the lattice points of k*NP(J) for
    k = 2, ..., n-1 (see the module docstring and ``_first_outside_power``)
    and reports the same powers and lex-least witness as ``is_normal`` on
    J.  There ``max_generators`` bounds the minimal generators of each J^k
    that the walk meets before its first failure; no closure, power or
    pair sum is formed.
    """
    alpha = _require_exponents(alpha)
    _require_budget(max_generators)
    fired: list[str] = []
    work = alpha
    settled = None
    while use_shortcuts:
        settled = _settling_shortcut(work)
        if settled or (reduced := _lcm_shift_reduce(work)) is None:
            break
        fired.append("lcm_shift")
        work = reduced
    fired.append(settled or "none")
    witnesses = () if settled else _walked_witnesses(work, max_generators)
    return _report(
        alpha, len(work), witnesses, tuple(fired), work if work != alpha else None
    )


def _walked_witnesses(alpha, max_generators):
    """The direct route's witness of J^k, k = 1, 2, ...; J = closure((x_i^alpha_i)).

    J is closed by construction, so k = 1 passes untested.  For k >= 2 with
    J^(k-1) closed, ``_first_outside_power`` finds the lex-least lattice
    point of k*NP(J) outside J^k.  That point is a minimal generator of
    closure(J^k): a divisor of it in k*NP(J) would be a lex-smaller point
    outside J^k.  So it is the witness a scan of each power would report.
    """
    base = lcm(*alpha)
    weights = [base // a for a in alpha]
    yield None
    for k in count(2):
        yield _first_outside_power(weights, base, k, max_generators)


def _first_outside_power(weights, base, k, max_generators):
    """Lex-least lattice point of k*NP(J) outside J^k, or None; J^(k-1) closed.

    J = {v : N.v >= L} with N = ``weights``, L = ``base``.  The walk runs
    over the prefixes p (every coordinate but the last) in lex order; the
    row of p holds one minimal point of k*NP(J) at most, v = (p, t) with t
    the least last coordinate that reaches kL.  v is minimal when its
    excess N.v - kL is below N_i for every i with v_i > 0, and a subtree of
    prefixes whose own excess already reaches the least such N_i holds no
    minimal point, which ends each loop.  v is in J^k exactly when some
    b <= v has N.b in [L, L + excess].

    The test reads the values N.b over b <= p off an int bitset per prefix
    depth: raising p_d by one is one shift-OR by N_d.  Values at or above
    L + max(N) never matter, since dropping a unit of b keeps such a value
    at least L.  The last coordinate adds j = 0..t steps of N_n, so the row
    asks whether the bitset meets a window [L - j N_n, L - j N_n + excess]
    for some j <= t.  Their starts are the teeth of one comb, one at every
    multiple of N_n up to window 0's start; the row keeps the teeth at or
    above window t's start and multiplies them by a run of excess + 1
    ones, one window test for every row.  The runs never overlap: with
    t > 0 the excess is below N_n, and with t = 0 one tooth is kept.  The
    bitsets hold value u at bit u + N_n, so that a window that starts
    below 0 keeps its nonnegative part.

    ``max_generators`` bounds the minimal generators of J^k the walk meets,
    the points that pass; with J^k closed that is all of them.
    """
    *head, last = weights
    goal = k * base
    bits = base + max(weights) + last
    if bits > POWER_WALK_MAX_BITS:
        raise GeneratorBudgetError(f"power walk needs {bits}-bit sets, over the cap")
    mask = (1 << bits) - 1
    # a tooth at every multiple of N_n up to L + N_n
    comb = ((1 << (base + 2 * last)) - 1) // ((1 << last) - 1)
    inner = len(head) - 1
    prefix = [0] * len(head)
    passed = 0

    def walk(d, total, reach, low):
        # prefix[:d] is fixed with weighted sum ``total``, the values N.b
        # over b <= it in ``reach`` and the least N_i over its support in
        # ``low``; returns the witness in this subtree, or None
        nonlocal passed
        step = head[d]
        x = 0
        while True:
            prefix[d] = x
            if d < inner:
                witness = walk(d + 1, total, reach, low)
                if witness is not None:
                    return witness
            else:
                rest = goal - total
                t = -(-rest // last) if rest > 0 else 0
                excess = t * last - rest
                if excess < low:
                    top = base + last - t * last
                    teeth = comb >> top << top if top > 0 else comb
                    if not reach & ((teeth << (excess + 1)) - teeth):
                        return (*prefix, t)
                    passed += 1
                    if max_generators is not None and passed > max_generators:
                        raise GeneratorBudgetError(
                            f"power {k} has more than {max_generators} generators"
                        )
            x += 1
            total += step
            if step < low:
                low = step
            if total - low >= goal:
                return None
            reach = (reach | reach << step) & mask

    # every row with an empty prefix support has t > 0, so its excess is
    # below N_n <= max(N)
    return walk(0, 0, 1 << last, max(weights))


def _semigroup_bits(gens, limit):
    """Bitmask of {0..limit} hit by nonnegative combinations of gens."""
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for g in gens:
        while True:
            grown = (reach | (reach << g)) & mask
            if grown == reach:
                break
            reach = grown
    return reach


def _iter_bits(x):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _part_sums(one_part, base, step, bound, mask):
    """parts[p], p = 0..bound: the sums of p elements of ``one_part``.

    ``one_part`` is the semigroup restricted to t >= base, ``step`` its
    largest generator.  Each element of one_part is t + s with s in the
    semigroup and t in one_part below base + step (the first partial sum of
    its generators to reach base), and adding s to a sum of p parts leaves a
    sum of p parts; so shifting by those few t builds each sumset.
    """
    window = one_part & (((1 << step) - 1) << base)
    parts = [0, one_part]
    while len(parts) <= bound:
        grown = 0
        for b in _iter_bits(window):
            grown |= parts[-1] << b
        parts.append(grown & mask)
    return parts


def quasinormality_check(alpha, bound: int) -> QuasinormalityVerdict:
    """Scan the monoid <1/a_i> for quasinormality failures up to ``bound``.

    Works over numerators t with x = t/lcm(alpha): decompositions into p
    parts >= 1 become sumsets of the semigroup restricted to t >= lcm,
    computed on integer bitmasks.  Failures are reported smallest x first,
    then smallest p.
    """
    alpha = _require_exponents(alpha, "exponents")
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if gcd(alpha[i], alpha[j]) != 1:
                raise ValueError(
                    f"entries must be pairwise coprime, got {alpha[i]} and {alpha[j]}"
                )
    _require_count("bound", bound)

    base = lcm(*alpha)
    limit = bound * base
    bits = (bound + 1) * (limit + 1)
    if bits > QUASINORMAL_MAX_BITS:
        raise GeneratorBudgetError(
            f"quasinormality scan needs {bits} bits of bitmasks, "
            f"more than the limit of {QUASINORMAL_MAX_BITS}; lower the bound"
        )
    gens = [base // a for a in alpha]
    reach = _semigroup_bits(gens, limit)
    one_part = reach & ~((1 << base) - 1)
    parts = _part_sums(one_part, base, max(gens), bound, (1 << (limit + 1)) - 1)

    # a failure is a semigroup numerator t >= p * base outside parts[p];
    # the least t is reported, then the least p
    failures = []
    for p in range(1, bound + 1):
        fails = reach & ~parts[p] & ~((1 << (p * base)) - 1)
        if fails:
            failures.append(((fails & -fails).bit_length() - 1, p))
    if not failures:
        return QuasinormalityVerdict(alpha, bound, QUASINORMAL_UP_TO_BOUND, None)
    t, p = min(failures)
    return QuasinormalityVerdict(
        alpha, bound, COUNTEREXAMPLE_FOUND, (Fraction(t, base), p)
    )
