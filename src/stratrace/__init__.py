"""Orthogonal-expansion coefficients of Volterra-type kernels, the trace
identities they satisfy, and simulation of iterated stochastic integrals.

The pipeline: pick an interval, an orthonormal basis, and a pair of weight
functions; `coefficient_matrix` expands the one-sided product kernel; the
diagonal sums converge to half the weights' inner product (`trace` module)
for every basis; and the same matrix drives Monte Carlo simulation of the
corresponding iterated Stratonovich integral (`stochastic` module), with the
matrix trace as the Ito correction.
"""

__version__ = "0.1.0"

from .basis import FAMILIES, Interval, OrthonormalBasis, gram_matrix
from .coeffs import (
    CacheCorruptError,
    CacheKeyError,
    CoefficientMatrix,
    CoefficientTensor,
    cache_load,
    cache_store,
    cached_coefficient_matrix,
    coefficient_matrix,
    kernel_diagonal,
    kernel_matrix,
    matrix_key,
    tensor_coefficients,
    volterra_diagonal,
    volterra_norm_sq,
    weight_basis_inner,
)
from .kernel import (
    ComplexExponential,
    FactorPair,
    Kernel,
    MonomialMax,
    MonomialMin,
    SeparableRankOne,
    SymmetrizedVolterra,
    VolterraProduct,
    averaging,
    default_eps_schedule,
    diagonal_trace,
    evaluate_kernel,
    explicit_factor_pair,
    factorization_residual,
)
from .quadrature import (
    CompositeRule,
    QuadratureError,
    composite_rule,
    gauss_rule,
    integrand_rule,
)
from .reports import MCReport, TraceReport, jsonable
from .stochastic import (
    brownian_midpoint_oracle,
    mc_campaign,
    smooth_path_oracle,
)
from .trace import (
    basis_independence,
    inner_product,
    tensor_neighbor_trace,
    tensor_nonneighbor_trace,
    two_route_kernel_trace,
    verify_kernel_trace,
    verify_symmetric_pair_sum,
    verify_volterra_trace,
)
from .weights import (
    PolynomialWeight,
    TabulatedWeight,
    TrigSumWeight,
    WeightFunction,
    constant_weight,
    legendre_weight,
)
