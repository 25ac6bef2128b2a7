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

from .errors import DegenerateIdealError
from .ideals import (
    MonomialIdeal,
    colon_by_maximal,
    contains_monomial,
    is_m_primary,
    product,
)
from .newton import _missing_generators, _require_proper, closure, np_member

NORMAL = "normal"
NOT_NORMAL = "not_normal"

QUASINORMAL_UP_TO_BOUND = "quasinormal_up_to_bound"
COUNTEREXAMPLE_FOUND = "counterexample_found"

SHORTCUT_NAMES = ("two_exponent", "gcd", "divisibility_chain", "lcm_shift", "none")


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
    missing = _missing_generators(I, I.generators, 1, None)
    return (False, missing[0]) if missing else (True, None)


def socle_criterion_check(I: MonomialIdeal) -> bool:
    """Closedness via the socle route: no colon generator outside I is in NP(I).

    Sound for m-primary ideals: any element of (I : m) not in I must be one
    of its minimal generators (a proper multiple of a colon element already
    lands in I), so checking generators covers the whole socle.
    """
    if not is_m_primary(I):
        raise ValueError("socle criterion requires an m-primary ideal")
    for v in colon_by_maximal(I).generators:
        if contains_monomial(I, v):
            continue
        if np_member(I, v).is_inside:
            return False
    return True


def _powers_to_check(n: int):
    # One variable leaves the 1..n-1 range empty; closedness of I itself is
    # still checked rather than hard-coding "normal".
    return (1,) if n == 1 else tuple(range(1, n))


def is_normal(
    I: MonomialIdeal,
    max_generators: int | None = None,
    np_basis=None,
) -> NormalityReport:
    """Direct normality decision: the first n-1 powers must be closed.

    ``np_basis`` optionally supplies smaller membership columns spanning the
    same Newton polyhedron as I (see closure_of_power); verdicts are
    identical either way.
    """
    _require_proper(I, "normality")
    return _direct_report(I, I, np_basis, ["none"], max_generators)


def _direct_report(subject, I, np_basis, fired, max_generators):
    # I^k is closed exactly when k * NP(I) has no lattice point it misses;
    # the scan runs in lex order, so its first find is the lex-least witness
    base = I.generators if np_basis is None else tuple(np_basis)
    checked = []
    witness = None
    K = I
    for k in _powers_to_check(I.dim):
        if k > 1:
            K = product(K, I)
        missing = _missing_generators(K, base, k, max_generators)
        checked.append((k, not missing))
        if missing:
            witness = missing[0]
            break
    verdict = NORMAL if witness is None else NOT_NORMAL
    return NormalityReport(
        subject=subject,
        verdict=verdict,
        checked_powers=tuple(checked),
        failing_witness=witness,
        shortcuts=tuple(fired),
        representative=None,
    )


def _diag_ideal(alpha) -> MonomialIdeal:
    n = len(alpha)
    gens = [
        tuple(alpha[i] if j == i else 0 for j in range(n)) for i in range(n)
    ]
    return MonomialIdeal(n, tuple(gens))


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
    fired: list[str] = []
    work = alpha

    def shortcut_report():
        return NormalityReport(
            subject=alpha,
            verdict=NORMAL,
            shortcuts=tuple(fired),
            representative=work if work != alpha else None,
        )

    if use_shortcuts:
        while True:
            if len(set(work)) <= 2:
                fired.append("two_exponent")
                return shortcut_report()
            if gcd(*work) > len(work) - 2:
                fired.append("gcd")
                return shortcut_report()
            if _chain_applies(work):
                fired.append("divisibility_chain")
                return shortcut_report()
            reduced = _lcm_shift_reduce(work)
            if reduced is None:
                break
            fired.append("lcm_shift")
            work = reduced

    fired.append("none")
    J = closure(_diag_ideal(work), max_generators)
    report = _direct_report(
        alpha, J, _diag_ideal(work).generators, fired, max_generators
    )
    if work != alpha:
        report = NormalityReport(
            subject=alpha,
            verdict=report.verdict,
            checked_powers=report.checked_powers,
            failing_witness=report.failing_witness,
            shortcuts=report.shortcuts,
            representative=work,
        )
    return report


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
    reach = _semigroup_bits([base // a for a in alpha], limit)
    mask = (1 << (limit + 1)) - 1
    # parts[p]: numerators expressible as a sum of p semigroup elements,
    # each >= base
    one_part = reach & ~((1 << base) - 1)
    parts = [0, one_part]
    while len(parts) <= bound:
        grown = 0
        for b in _iter_bits(one_part):
            grown |= parts[-1] << b
        parts.append(grown & mask)

    for t in _iter_bits(reach):
        for p in range(1, t // base + 1):
            if not (parts[p] >> t) & 1:
                return QuasinormalityVerdict(
                    alpha, bound, COUNTEREXAMPLE_FOUND, (Fraction(t, base), p)
                )
    return QuasinormalityVerdict(alpha, bound, QUASINORMAL_UP_TO_BOUND, None)
