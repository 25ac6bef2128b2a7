"""Integral-closedness and normality decisions with auditable reports.

An ideal is integrally closed when it equals its integral closure, and
normal when every power is.  In n variables it suffices to check the first
n-1 powers, which keeps everything finite.  For pure-power families
closure((x_1^a1, ..., x_n^an)) a few shortcut criteria decide
normality outright or shrink the exponents first; each fired shortcut is
recorded so a report can be audited, and every shortcut has a direct-route
cross-check in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import kernels
from .errors import GeneratorBudgetError
from .ideals import MonomialIdeal, colon_by_maximal, is_m_primary
from .newton import (
    _missing_generators,
    _require_budget,
    _require_proper,
    _scan_member,
    closure,
)

NORMAL = "normal"
NOT_NORMAL = "not_normal"

QUASINORMAL_UP_TO_BOUND = "quasinormal_up_to_bound"
COUNTEREXAMPLE_FOUND = "counterexample_found"

# quasinormality_check holds bound + 1 bitmasks of bound * lcm(alpha) + 1
# bits each; larger scans are refused before anything is allocated.
QUASINORMAL_MAX_BITS = 2**31


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
    not in I.
    """
    _require_proper(I, "integral closedness")
    missing = _missing_generators(I.generators, I.generators, 1, 1)
    return (False, missing[0]) if missing else (True, None)


def socle_criterion_check(I: MonomialIdeal) -> bool:
    """Closedness via the socle route: no colon generator outside I is in NP(I).

    Sound for m-primary ideals: any element of (I : m) not in I must be one
    of its minimal generators (a proper multiple of a colon element already
    lands in I), and a minimal generator of (I : m) in I is one of I's own.
    """
    if not is_m_primary(I):
        raise ValueError("socle criterion requires an m-primary ideal")
    own = set(I.generators)
    member = _scan_member(I.generators, I.dim, 1)
    for v in colon_by_maximal(I).generators:
        if v in own:
            continue
        if member(v)[0]:
            return False
    return True


def _powers_to_check(n: int):
    # One variable leaves the 1..n-1 range empty; closedness of I itself is
    # still checked rather than hard-coding "normal".
    return (1,) if n == 1 else tuple(range(1, n))


def is_normal(I: MonomialIdeal, max_generators: int | None = None) -> NormalityReport:
    """Direct normality decision: the first n-1 powers must be closed."""
    _require_proper(I, "normality")
    _require_budget(max_generators)
    checked, witness = _check_powers(I, I.generators, max_generators)
    return NormalityReport(
        subject=I,
        verdict=NORMAL if witness is None else NOT_NORMAL,
        checked_powers=checked,
        failing_witness=witness,
        shortcuts=("none",),
    )


def _check_powers(I, base_gens, max_generators, closed=False):
    """Closedness of I^k for the powers to check, up to the first failure.

    ``base_gens`` span NP(I), so I^k is closed exactly when k * NP(base_gens)
    has no lattice point it misses; the scan runs in lex order and stops at
    its first find, the lex-least witness.  ``closed``: I is known to be
    integrally closed, so k = 1 needs no scan.  Each power is carried as
    the pair sums of the previous one with I, as in ``ideals.power``: they
    generate it without always being minimal, the scan takes them as they
    are, and they are the next power's operand.  ``max_generators`` bounds
    the minimal generator count of each power; a power is minimalized only
    when it has more sums than that.
    Returns the (k, closed?) pairs and the witness, or None when every power
    checked is closed.
    """
    checked = []
    seeds = I.generators
    for k in _powers_to_check(I.dim):
        if k > 1:
            seeds = kernels.pair_sums_antichain(seeds, I.generators)
            if max_generators is not None and len(seeds) > max_generators:
                seeds = kernels.minimal_antichain(seeds)
                if len(seeds) > max_generators:
                    raise GeneratorBudgetError(
                        f"power {k} has {len(seeds)} generators, "
                        f"over the budget {max_generators}"
                    )
        elif closed:
            checked.append((1, True))
            continue
        missing = _missing_generators(seeds, base_gens, k, 1)
        checked.append((k, not missing))
        if missing:
            return tuple(checked), missing[0]
    return tuple(checked), None


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
    directions between congruent entries at or above c.
    """
    i = max(range(len(alpha)), key=lambda t: alpha[t])
    others = alpha[:i] + alpha[i + 1:]
    if not others:
        return None
    c = lcm(*others)
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
    first-n-1-powers route.
    """
    alpha = tuple(alpha)
    if not alpha or any(a < 1 for a in alpha):
        raise ValueError("pure-power exponents must all be >= 1")
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

    checked, witness = (), None
    if not settled:
        # J = closure(diag) is closed, and diag spans NP(J) with fewer columns
        diag = _diag_ideal(work)
        checked, witness = _check_powers(
            closure(diag, max_generators), diag.generators, max_generators,
            closed=True,
        )
    return NormalityReport(
        subject=alpha,
        verdict=NORMAL if witness is None else NOT_NORMAL,
        checked_powers=checked,
        failing_witness=witness,
        shortcuts=tuple(fired),
        representative=work if work != alpha else None,
    )


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
    alpha = tuple(alpha)
    if any(a < 1 for a in alpha):
        raise ValueError("exponents must all be >= 1")
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if gcd(alpha[i], alpha[j]) != 1:
                raise ValueError(
                    f"entries must be pairwise coprime, got {alpha[i]} and {alpha[j]}"
                )
    if bound < 1:
        raise ValueError("bound must be >= 1")

    base = lcm(*alpha)
    limit = bound * base
    bits = (bound + 1) * (limit + 1)
    if bits > QUASINORMAL_MAX_BITS:
        raise ValueError(
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
