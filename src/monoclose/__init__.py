"""monoclose: exact integral-closure and normality certification for monomial ideals.

Everything computes over arbitrary-precision integers and rationals; every
inside/outside decision about a Newton polyhedron carries an exact
certificate that can be re-validated independently.
"""

from .errors import (
    DegenerateIdealError,
    DimensionMismatchError,
    GeneratorBudgetError,
)
from .ideals import (
    MonomialIdeal,
    colon_by_maximal,
    colon_by_monomial,
    contains_monomial,
    intersect,
    minimalize,
    power,
    product,
)
from .kernels import backend_name
from .newton import (
    INSIDE,
    OUTSIDE,
    DependenceWitness,
    MembershipVerdict,
    closure,
    dependence_witness,
    np_member,
    pure_power_member,
    validate_certificate,
)
from .normality import (
    NormalityReport,
    QuasinormalityVerdict,
    is_integrally_closed,
    is_normal,
    pure_power_normality,
    quasinormality_check,
)
from .two_exponent import (
    LambdaWitness,
    TwoExponentReport,
    TwoExponentSpec,
    VerificationCheck,
    check_lambda_inequality,
    generators_F,
    ideal_I,
    ideal_J,
    lambda_ceil,
    socle_generators,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateIdealError",
    "DimensionMismatchError",
    "GeneratorBudgetError",
    "MonomialIdeal",
    "colon_by_maximal",
    "colon_by_monomial",
    "contains_monomial",
    "intersect",
    "minimalize",
    "power",
    "product",
    "backend_name",
    "INSIDE",
    "OUTSIDE",
    "DependenceWitness",
    "MembershipVerdict",
    "closure",
    "dependence_witness",
    "np_member",
    "pure_power_member",
    "validate_certificate",
    "NormalityReport",
    "QuasinormalityVerdict",
    "is_integrally_closed",
    "is_normal",
    "pure_power_normality",
    "quasinormality_check",
    "LambdaWitness",
    "TwoExponentReport",
    "TwoExponentSpec",
    "VerificationCheck",
    "check_lambda_inequality",
    "generators_F",
    "ideal_I",
    "ideal_J",
    "lambda_ceil",
    "socle_generators",
    "verify_all",
    "__version__",
]
