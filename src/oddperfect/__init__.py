"""Exact-arithmetic toolkit for divisor-sum Diophantine equations.

Searches for solutions of 2n^2 = sigma(q^alpha) and n^2 = sigma(q^beta),
certifies the 2-adic argument that rules them out for q = 1 mod 4, and
classifies integers against the structural theorems on (multiply) perfect
numbers.
"""
from types import ModuleType as _ModuleType

from .arith import (
    DETERMINISTIC_PRIME_BOUND,
    Factorization,
    factorize,
    is_prime,
    isqrt_exact,
    primes_upto,
    sigma,
    sigma_prime_power,
)
from .classify import (
    ChenLuoRecord,
    ClassifyReport,
    abundancy,
    chenluo_check,
    classify_report,
    dhp_decompose,
    dhp_scan,
    enumerate_multiperfect,
    euler_form,
    odd_multiperfect_upto,
    omega_bound_product,
)
from .errors import (
    CheckpointError,
    ConsistencyError,
    FactorBoundError,
)
from .quadratic import (
    CertificateReport,
    QuadInt,
    identity_sweep,
    ratio_identity_check,
    trace_expansion,
    two_adic_certificate,
)
from .search import (
    SearchConfig,
    SearchReport,
    SolutionRecord,
    run_search,
    split_solution,
)

__version__ = "0.1.0"

# every public name imported above, in import order; submodules are not API
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
