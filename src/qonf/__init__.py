"""qonf: regular-singular q-difference equations and their q -> 1 degeneration.

The package computes with exact rational functions of the deformation
parameter q, solves regular-singular q-difference systems by the Frobenius
method, degenerates them to differential systems (confluence), and verifies
the resulting identities between the q-deformed and classical J-functions of
projective space, alongside the classical rational-curve counts.
"""

from .confluence import (
    MonodromyCubicExample,
    ODESystem,
    asymptotic_qpoch_ratio,
    asymptotic_theta_ratio,
    builtin_system,
    check_confluent,
    delta_form,
    limit_solution_along_path,
    ode_frobenius_solution,
    root_taylor,
)
from .gw import (
    EquivariantSpec,
    confluence_compare,
    equivariant_confluence_compare,
    jcoh_series,
    jk_equivariant,
    jk_modified,
    jk_series,
    nd_recursion,
    wdvv_residual_p2,
)
from .qdiff import (
    QDifferenceSystem,
    QHypergeometricSpec,
    ScalarQOperator,
    companion_system,
    frobenius_log_solutions,
    frobenius_solution,
    gauge_transform,
    is_regular_singular_at_0,
    normalize_to_constant,
    q_pullback,
    qhg_bases,
    rank1_product_solution,
    solve_scalar_series,
)
from .qspecial import (
    q_character,
    q_log,
    qpoch_finite,
    qpoch_infinite,
    spiral_contains,
    theta,
)
from .rings import (
    LogSeries,
    NilpotentElement,
    RationalFunctionQ,
    limit_q_to_1,
    nil_binomial_power,
    nil_inv,
    nil_mul,
)

__version__ = "0.1.0"

__all__ = [
    "EquivariantSpec",
    "LogSeries",
    "MonodromyCubicExample",
    "NilpotentElement",
    "ODESystem",
    "QDifferenceSystem",
    "QHypergeometricSpec",
    "RationalFunctionQ",
    "ScalarQOperator",
    "asymptotic_qpoch_ratio",
    "asymptotic_theta_ratio",
    "builtin_system",
    "check_confluent",
    "companion_system",
    "confluence_compare",
    "delta_form",
    "equivariant_confluence_compare",
    "frobenius_log_solutions",
    "frobenius_solution",
    "gauge_transform",
    "is_regular_singular_at_0",
    "jcoh_series",
    "jk_equivariant",
    "jk_modified",
    "jk_series",
    "limit_q_to_1",
    "limit_solution_along_path",
    "nd_recursion",
    "nil_binomial_power",
    "nil_inv",
    "nil_mul",
    "normalize_to_constant",
    "ode_frobenius_solution",
    "q_character",
    "q_log",
    "q_pullback",
    "qhg_bases",
    "qpoch_finite",
    "qpoch_infinite",
    "rank1_product_solution",
    "root_taylor",
    "solve_scalar_series",
    "spiral_contains",
    "theta",
    "wdvv_residual_p2",
]
