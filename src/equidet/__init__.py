"""Exact-arithmetic toolkit for rescaling antisymmetric multi-particle force
systems to equilibrium, with the square-system determinant criterion.

All arithmetic is over the rationals (ints and fractions.Fraction); nothing
is ever rounded.
"""

from .combinat import (
    insert_position,
    permutation_sign,
    subset_rank,
    subset_unrank,
    subsets_colex,
)
from .detmap import (
    SystemMatrix,
    build_system_matrix,
    check_dependence_relations,
    det_sr,
)
from .equilibrium import (
    ConsistencyReport,
    EquilibriumSystem,
    build_equilibrium_system,
    residual,
    row_dependence_holds,
    solve_nontrivial,
    theorem_consistency,
)
from .exact import Matrix, det_exact, kernel_basis, kernel_vector, rank_exact
from .tensorfile import dump_tensor, load_tensor, tensor_from_json, tensor_to_json
from .tensors import CoefficientSystem, ForceSystem, VectorConfiguration
from .witnesses import (
    WitnessReport,
    affine_dependence_lambda,
    cross_product_forces,
    difference_configuration,
    random_coefficients,
    random_configuration,
    random_force_system,
    random_unimodular,
    simplex_forces,
    sl_transform,
    wedge_forces,
    witness_search,
)

__all__ = [
    "CoefficientSystem",
    "ConsistencyReport",
    "EquilibriumSystem",
    "ForceSystem",
    "Matrix",
    "SystemMatrix",
    "VectorConfiguration",
    "WitnessReport",
    "affine_dependence_lambda",
    "build_equilibrium_system",
    "build_system_matrix",
    "check_dependence_relations",
    "cross_product_forces",
    "det_exact",
    "det_sr",
    "difference_configuration",
    "dump_tensor",
    "insert_position",
    "kernel_basis",
    "kernel_vector",
    "load_tensor",
    "permutation_sign",
    "random_coefficients",
    "random_configuration",
    "random_force_system",
    "random_unimodular",
    "rank_exact",
    "residual",
    "row_dependence_holds",
    "simplex_forces",
    "sl_transform",
    "solve_nontrivial",
    "subset_rank",
    "subset_unrank",
    "subsets_colex",
    "tensor_from_json",
    "tensor_to_json",
    "theorem_consistency",
    "wedge_forces",
    "witness_search",
]

__version__ = "0.1.0"
