"""Exact arithmetic on monomial ideals represented by exponent vectors.

A monomial x_1^{v_1} ... x_n^{v_n} is identified with its exponent vector
``v``, a tuple of nonnegative integers.  A monomial ideal is stored as its
unique minimal generating set: an antichain under componentwise <=, kept
lexicographically sorted so that two ideals are equal exactly when their
generator sequences are equal.

Conventions for the degenerate cases:

* the zero ideal has an empty generator tuple;
* the unit ideal is generated by the zero vector.

Every operation is a pure function; ideals are immutable.  Exponents are
Python ints, so powers and colon quotients never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le

from . import kernels
from .errors import DimensionMismatchError, GeneratorBudgetError

Vector = tuple[int, ...]

# Largest k that ``power`` accepts; see its docstring.
POWER_MAX_K = 10**5


def _is_int(x) -> bool:
    # bool is an int subclass, but True is no exponent or count
    return isinstance(x, int) and not isinstance(x, bool)


def _require_count(name: str, value):
    """Refuse ``value`` unless it is an int of at least 1: every count the
    library takes (a dimension, a power, a budget, an exponent) passes here."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _length_mismatch(dim: int, got: int) -> DimensionMismatchError:
    return DimensionMismatchError(f"expected a vector of length {dim}, got {got}")


def _check_vector(v, dim: int) -> Vector:
    t = tuple(v)
    if len(t) != dim:
        raise _length_mismatch(dim, len(t))
    for c in t:
        if not _is_int(c):
            raise ValueError(f"exponents must be integers, got {c!r}")
        if c < 0:
            raise ValueError(f"exponents must be nonnegative, got {c}")
    return t


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in ``dim`` variables, given by its minimal generators.

    The constructor canonicalizes: it validates the vectors, drops redundant
    generators (multiples of others) and sorts the rest lexicographically.
    """

    dim: int
    generators: tuple[Vector, ...] = field(default=())

    def __post_init__(self):
        _require_count("ambient dimension", self.dim)
        gens = [_check_vector(g, self.dim) for g in self.generators]
        object.__setattr__(
            self, "generators", tuple(kernels.minimal_antichain(gens))
        )

    @classmethod
    def _from_antichain(cls, dim: int, sorted_gens) -> "MonomialIdeal":
        """Trusted constructor for generator sets already in canonical form."""
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", tuple(sorted_gens))
        return self

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and not any(self.generators[0])

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    def __repr__(self):
        return f"MonomialIdeal(dim={self.dim}, generators={list(self.generators)})"


def _same_dim(I: MonomialIdeal, other_dim: int, what: str):
    if I.dim != other_dim:
        raise DimensionMismatchError(
            f"{what}: ambient dimensions differ ({I.dim} vs {other_dim})"
        )


def minimalize(candidates, dim: int) -> MonomialIdeal:
    """Ideal generated by ``candidates``, reduced to its minimal antichain."""
    return MonomialIdeal(dim, tuple(candidates))


def contains_monomial(I: MonomialIdeal, v) -> bool:
    """Whether x^v lies in I, i.e. some generator divides v."""
    v = _check_vector(v, I.dim)
    return any(all(map(le, g, v)) for g in I.generators)


def product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Ideal product: the pairwise generator sums, minimalized from 3-D up."""
    _same_dim(I, J.dim, "product")
    gens = kernels.pair_sums_antichain(I.generators, J.generators)
    if I.dim > 2:
        gens = kernels.minimal_antichain(gens)
    return MonomialIdeal._from_antichain(I.dim, gens)


def power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th ideal power: k-fold generator sums, minimalized once.

    ``kernels.power_sums_antichain`` chains the k - 1 pair-sum steps on
    packed keys: each step's sums generate that power but need not be
    minimal from 3-D up, the next step takes them as they are, and they are
    decoded only at the end.  Only the last ones are minimalized; in 1-D and
    2-D the sums are already the minimal generators, so they are returned
    as they are.

    A k over ``POWER_MAX_K`` raises GeneratorBudgetError before the first
    pair sum.  The k-th power of a non-principal ideal has at least k + 1
    minimal generators: take a bounded edge of NP(I) whose supporting
    functional is positive; k times it is an edge of k*NP(I) = NP(I^k), and
    its k + 1 lattice points k*g, (k-1)*g + h, ..., k*h (g, h the
    generators at its ends) are all minimal generators of I^k.  So every
    refused power has more generators than the CLI's default budget of
    10^5.  A principal ideal's power is one generator, but it still takes
    k - 1 steps, so the same cap bounds it.
    """
    _require_count("k", k)
    if k > POWER_MAX_K:
        raise GeneratorBudgetError(f"power {k} is over the cap of {POWER_MAX_K} on k")
    gens = kernels.power_sums_antichain(I.generators, k)
    if I.dim > 2:
        gens = kernels.minimal_antichain(gens)
    return MonomialIdeal._from_antichain(I.dim, gens)


def colon_by_monomial(I: MonomialIdeal, f) -> MonomialIdeal:
    """The colon ideal (I : x^f) = { h : h * x^f in I }.

    For monomial ideals this is generated by g - min(g, f) over generators g.
    """
    f = _check_vector(f, I.dim)
    gens = [tuple(a - min(a, b) for a, b in zip(g, f)) for g in I.generators]
    return MonomialIdeal._from_antichain(I.dim, kernels.minimal_antichain(gens))


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Intersection: generated by componentwise maxima (lcms) of generator pairs."""
    _same_dim(I, J.dim, "intersect")
    gens = {
        tuple(max(a, b) for a, b in zip(g, h))
        for g in I.generators
        for h in J.generators
    }
    return MonomialIdeal._from_antichain(I.dim, kernels.minimal_antichain(gens))


def colon_by_maximal(I: MonomialIdeal) -> MonomialIdeal:
    """The colon (I : (x_1, ..., x_n)), as the intersection of the variable colons."""
    result = None
    for i in range(I.dim):
        e = tuple(1 if j == i else 0 for j in range(I.dim))
        quotient = colon_by_monomial(I, e)
        result = quotient if result is None else intersect(result, quotient)
    return result

