"""oplab: exact computations in symmetric-group algebras, operadic ideal
slices, and polynomial identities of finite-dimensional algebras.

Each submodule is registered in ``sys.modules`` when the package is
imported but runs only at its first attribute access, so a command-line
call compiles just the modules its command uses.  The names below are
re-exported from the submodule that defines them.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

_EXPORTS = {
    "perms": (
        "ArityMismatch",
        "Permutation",
        "all_permutations",
        "block_compose",
        "format_permutation",
        "identity",
        "multiply",
        "parse_permutation",
        "perm_index",
    ),
    "linalg": (
        "BudgetExceeded",
        "DimensionMismatch",
        "RowBasis",
        "SparseVector",
        "format_rational",
        "kernel_basis",
        "parse_rational",
    ),
    "operad": (
        "NONUNITAL",
        "OperadElement",
        "UNITAL",
        "act",
        "format_element",
        "from_vector",
        "full_compose",
        "parse_element",
        "partial_compose",
        "standard_polynomial",
        "to_vector",
    ),
    "freealg": (
        "NcPoly",
        "PolyParseError",
        "act_poly",
        "format_poly",
        "multilinearize",
        "operad_to_poly",
        "parse_poly",
        "poly_to_operad",
    ),
    "algebras": (
        "AlgebraElement",
        "AlgebraError",
        "IdentityCheckInconsistency",
        "StructureAlgebra",
        "algebra_from_spec",
        "direct_sum",
        "evaluate",
        "evaluate_nullary",
        "evaluate_poly",
        "grassmann_algebra",
        "is_identity",
        "is_identity_general",
        "matrix_algebra",
        "tensor_product",
    ),
    "ideals": (
        "ClosureReport",
        "GeneratorSet",
        "IdealSlice",
        "RoundtripReport",
        "codimension",
        "full_slice_map",
        "generator_set_hash",
        "ideal_slice_closure",
        "ideal_slice_spanning",
        "identities_slice",
        "load_slice_file",
        "membership",
        "min_identity_degree",
        "poly_generated_slice",
        "roundtrip_check",
        "save_slice_file",
        "slice_cache_path",
        "slice_polynomials",
        "slices_equal",
        "verify_ideal_closure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_HOME])

for _name in _EXPORTS:
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _module = globals()[_name] = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
