"""Exact arithmetic for discrete harmonic functions on the lattice Z^d.

The package constructs lattice-harmonic functions (coordinate products,
discretized planar harmonics, reproducible random draws), computes their
random-walk growth functions exactly, and decides log-convexity type
inequalities about them with certified rational enclosures instead of
floating point.
"""

__version__ = "0.1.0"
SCHEMA_VERSION = "1"

from .lattice import (  # noqa: F401
    LatticeBall,
    LatticeFunction,
    directional_difference,
    is_harmonic,
    laplacian,
    laplacian_power,
    sos_laplacian_power,
)
from .polynomials import (  # noqa: F401
    MultivariatePolynomial,
    continuous_laplacian,
    correspondence,
    discrete_laplacian,
    evaluate_on_ball,
    family_polynomial,
    fk_polynomial,
    harmonic_kernel_basis,
    monomial_uk,
    random_harmonic,
    sk_polynomial,
    tk_polynomial,
)
from .growth import (  # noqa: F401
    GrowthPolynomial,
    check_absolute_monotonicity,
    growth_polynomial,
    growth_report,
)
from .enclosure import (  # noqa: F401
    RealEnclosure,
    enclose_exp,
    enclose_pow,
    exp_enclosure,
    ln_enclosure,
    pow_enclosure,
    sqrt_enclosure,
)
from .checks import (  # noqa: F401
    BinomialCheckResult,
    CounterexampleSearchResult,
    Verdict,
    aspect_ratio_check,
    binomial_inequality_check,
    continuous_three_circles_check,
    convexity_defect_check,
    counterexample_search,
    general_P_check,
    no_error_check,
    ratio_125_check,
    three_circles_check,
)
from .liouville import degree_bound, vanishing_ball_test  # noqa: F401
from .conjecture import ScanResult, ScanRow, conjecture_scan  # noqa: F401
from .errors import (  # noqa: F401
    DomainTooSmallError,
    HarmError,
    HarmonicityError,
    HypothesisNotMetError,
    InvalidGeneratorError,
    InvalidParameterError,
    OutOfRangeError,
    ResourceLimitError,
    UsageError,
    VanishingHypothesisError,
)
