"""The two-block closure family: lambda ceilings, F_k, J_k, I_k, socle.

Fix positive integers s <= l, block sizes m and n, and a power k.  With
lambda_a = ceil(a*l/s), the set F_k collects every monomial

    x_{i_1} ... x_{i_(ks-a)} * y_{j_1} ... y_{j_(lambda_a)},   a = 0 .. ks,

in m x-variables and n y-variables.  J_k is the ideal F_k generates and
I_k = (x_i^(ks), y_j^(kl)) the pure-power ideal it closes over.  The family
satisfies a tight bundle of identities (J_k = J^k = closure(I_k), an exact
ceiling inequality, a socle description).  F_k and the socle vectors
come from one enumerator over a list of (x-degree, y-degree) blocks, under
one generator budget.  ``check_lambda_inequality`` evaluates the ceiling
inequality, and ``verify_all`` machine-checks the rest on a concrete spec,
reporting per-check pass/fail with the offending vector on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .errors import GeneratorBudgetError
from .ideals import MonomialIdeal, _is_int, _require_count, power
from .newton import _require_budget, closure, pure_power_member
from .normality import _diag_ideal, is_normal

DEFAULT_F_BUDGET = 10**6


@dataclass(frozen=True)
class TwoExponentSpec:
    """Parameters (m, n, s, l, k); requires l >= s so ceilings round up."""

    m: int
    n: int
    s: int
    l: int
    k: int = 1

    def __post_init__(self):
        for name in ("m", "n", "s", "l", "k"):
            _require_count(name, getattr(self, name))
        if self.l < self.s:
            raise ValueError(
                f"l must be >= s (swap the blocks): got s={self.s}, l={self.l}"
            )

    @property
    def dim(self) -> int:
        return self.m + self.n

    def alpha_vector(self) -> tuple[int, ...]:
        """Pure-power exponents of I_k: ks on the x-block, kl on the y-block."""
        return (self.k * self.s,) * self.m + (self.k * self.l,) * self.n


@dataclass(frozen=True)
class LambdaWitness:
    """One evaluated instance of the ceiling inequality.

    Records the division (ks-1)*l = t*s + r with 1 <= r <= s (t can be
    negative when ks = 1) and both sides, already compared: lhs >= rhs.
    """

    s: int
    l: int
    k: int
    i: int
    t: int
    r: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str = ""
    offender: tuple[int, ...] | None = None


@dataclass(frozen=True)
class TwoExponentReport:
    spec: TwoExponentSpec
    checks: tuple[VerificationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def lambda_ceil(a: int, s: int, l: int) -> int:
    """ceil(a*l/s) in integer arithmetic, for an int a >= 0."""
    if not _is_int(a) or a < 0:
        raise ValueError(f"lambda index must be an integer >= 0, got {a!r}")
    _require_count("s", s)
    _require_count("l", l)
    return (a * l + s - 1) // s


def check_lambda_inequality(s: int, l: int, k: int) -> list[LambdaWitness]:
    """Evaluate kl(ks-i-1) + lambda_i >= (ks-i)(lambda_(ks-1) - (s-r)/s).

    Runs over every i in 0..ks and returns all evaluations; any violation
    raises immediately since it would mean the arithmetic itself is broken.
    """
    for name, value in (("s", s), ("l", l), ("k", k)):
        _require_count(name, value)
    if l < s:
        raise ValueError("requires l >= s")
    ks = k * s
    value = (ks - 1) * l
    r = (value - 1) % s + 1
    t = (value - r) // s
    lam_top = lambda_ceil(ks - 1, s, l)
    witnesses = []
    for i in range(ks + 1):
        lhs = Fraction(k * l * (ks - i - 1) + lambda_ceil(i, s, l))
        rhs = (ks - i) * (lam_top - Fraction(s - r, s))
        if lhs < rhs:
            raise AssertionError(
                f"ceiling inequality violated at s={s} l={l} k={k} i={i}: "
                f"{lhs} < {rhs}"
            )
        witnesses.append(LambdaWitness(s, l, k, i, t, r, lhs, rhs))
    return witnesses


def _compositions(total: int, parts: int):
    """Weak compositions of ``total`` into ``parts`` nonnegative ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _block_vectors(spec: TwoExponentSpec, degrees: list, budget: int | None) -> list:
    """Lex-sorted (u | w) with sum(u) = d, sum(w) = e over the (d, e) in ``degrees``.

    The count is computed combinatorially first and checked against
    ``budget`` (None: no cap) so a huge spec fails fast instead of
    enumerating forever.  The d's are distinct, so there are no duplicates.
    """
    _require_budget(budget)
    m, n = spec.m, spec.n
    count = sum(comb(d + m - 1, m - 1) * comb(e + n - 1, n - 1) for d, e in degrees)
    if budget is not None and count > budget:
        raise GeneratorBudgetError(
            f"spec would enumerate {count} generators, over the budget {budget}"
        )
    return sorted(
        u + w
        for d, e in degrees
        for u in _compositions(d, m)
        for w in _compositions(e, n)
    )


def generators_F(spec: TwoExponentSpec, budget: int | None = DEFAULT_F_BUDGET) -> list:
    """F_k: the (u | w) with sum(u) = ks - a, sum(w) = lambda_a, a = 0..ks."""
    ks = spec.k * spec.s
    degrees = [(ks - a, lambda_ceil(a, spec.s, spec.l)) for a in range(ks + 1)]
    return _block_vectors(spec, degrees, budget)


def ideal_J(spec: TwoExponentSpec) -> MonomialIdeal:
    """The ideal generated by F_k, which is its own lex-sorted minimal antichain."""
    return MonomialIdeal._from_antichain(spec.dim, generators_F(spec))


def ideal_I(spec: TwoExponentSpec) -> MonomialIdeal:
    """The pure-power ideal (x_1^ks, ..., x_m^ks, y_1^kl, ..., y_n^kl)."""
    return _diag_ideal(spec.alpha_vector())


def socle_generators(spec: TwoExponentSpec, budget: int | None = DEFAULT_F_BUDGET):
    """The (u | w) with sum(u) = ks - e, sum(w) = lambda_e - 1, e = 1..ks.

    These are exactly the generators of (J_k : (all variables)) not in J_k,
    the staircase's corners; the test suite checks the equality against
    ``colon_by_maximal``.  Refused over ``budget`` as ``generators_F`` is.
    """
    ks = spec.k * spec.s
    degrees = [(ks - e, lambda_ceil(e, spec.s, spec.l) - 1) for e in range(1, ks + 1)]
    return _block_vectors(spec, degrees, budget)


def _first_difference(gens, expected):
    """First of ``gens`` missing from ``expected``, else the reverse; None if equal."""
    mine, theirs = set(gens), set(expected)
    return next(
        (g for g in gens if g not in theirs),
        next((g for g in expected if g not in mine), None),
    )


def verify_all(
    spec: TwoExponentSpec, max_generators: int | None = None
) -> TwoExponentReport:
    """Machine-check the family's five identities on one concrete spec.

    1. every generator of J_k is integral over I_k (inside its polyhedron);
    2. J_k equals the k-th power of J_1, the power computed independently;
    3. J_k equals the integral closure of I_k;
    4. every socle-formula vector lies outside the polyhedron of I_k;
    5. J_1 is normal.

    ``max_generators`` bounds the F_k and socle enumerations
    (``DEFAULT_F_BUDGET`` when None), the closure and the normality
    check's powers.
    """
    _require_budget(max_generators)
    alpha = spec.alpha_vector()
    budget = max_generators or DEFAULT_F_BUDGET
    F = generators_F(spec, budget)
    J = MonomialIdeal._from_antichain(spec.dim, F)
    J1 = J if spec.k == 1 else ideal_J(replace(spec, k=1))
    closed = closure(ideal_I(spec), max_generators)
    socle = socle_generators(spec, budget)
    table = (
        ("generators_integral", "every J_k generator is inside NP(I_k)",
         next((g for g in J.generators if not pure_power_member(alpha, g)), None)),
        ("power_identity", "J_1^k and J_k have identical generators",
         _first_difference(power(J1, spec.k).generators, J.generators)),
        ("closure_identity", "closure(I_k) and J_k have identical generators",
         _first_difference(closed.generators, J.generators)),
        ("socle_outside", "every socle vector is outside NP(I_k)",
         next((v for v in socle if pure_power_member(alpha, v)), None)),
        ("normality", "J_1 is normal (first dim-1 powers integrally closed)",
         is_normal(J1, max_generators).failing_witness),
    )
    checks = tuple(
        VerificationCheck(name, offender is None, detail, offender)
        for name, detail, offender in table
    )
    return TwoExponentReport(spec, checks)
