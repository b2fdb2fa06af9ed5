"""Exact-arithmetic toolkit for rescaling antisymmetric multi-particle force
systems to equilibrium, with the square-system determinant criterion.

All arithmetic is over the rationals (ints and fractions.Fraction); nothing
is ever rounded.

The public names resolve on first use (PEP 562): ``import equidet`` loads no
submodule, and ``equidet.det_sr`` loads only ``detmap`` and what it imports.
"""

from importlib import import_module

_NAMES = {
    "combinat": ("insert_position", "permutation_sign", "subset_rank", "subset_unrank", "subsets_colex"),
    "detmap": ("SystemMatrix", "build_system_matrix", "check_dependence_relations", "det_sr"),
    "equilibrium": (
        "ConsistencyReport",
        "EquilibriumSystem",
        "build_equilibrium_system",
        "residual",
        "row_dependence_holds",
        "solve_nontrivial",
        "theorem_consistency",
    ),
    "exact": ("Matrix", "det_exact", "kernel_basis", "kernel_vector", "rank_exact"),
    "tensorfile": ("dump_tensor", "load_tensor", "tensor_from_json", "tensor_to_json"),
    "tensors": ("CoefficientSystem", "ForceSystem", "VectorConfiguration"),
    "witnesses": (
        "WitnessReport",
        "affine_dependence_lambda",
        "cross_product_forces",
        "difference_configuration",
        "random_coefficients",
        "random_configuration",
        "random_force_system",
        "random_unimodular",
        "simplex_forces",
        "sl_transform",
        "wedge_forces",
        "witness_search",
    ),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    # only names not yet bound get here; a miss lets ``from equidet import x`` fall back to the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
