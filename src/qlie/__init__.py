"""Exact symbolic engine for the Cremmer-Gervais quantum Lie algebra."""

from .scalars import BETA, C, ONE, P, P_INV, ZERO, Scalar, ScalarParseError
from .laurent import (
    LaurentFn,
    SpaceConfig,
    basis_monomials,
    divided_difference,
    op_r,
    op_rhat,
    op_rho,
    op_s,
    permute,
    reg,
)
from .operators import Operator, StabilityError, compose, from_functional
from .cg import (
    StructureTensor,
    extended_rhat,
    sigma_cg,
    sigma_cg_family,
    structure_constants,
)

__all__ = [
    "BETA",
    "C",
    "ONE",
    "P",
    "P_INV",
    "ZERO",
    "Scalar",
    "ScalarParseError",
    "LaurentFn",
    "SpaceConfig",
    "basis_monomials",
    "divided_difference",
    "op_r",
    "op_rhat",
    "op_rho",
    "op_s",
    "permute",
    "reg",
    "Operator",
    "StabilityError",
    "compose",
    "from_functional",
    "StructureTensor",
    "extended_rhat",
    "sigma_cg",
    "sigma_cg_family",
    "structure_constants",
]
