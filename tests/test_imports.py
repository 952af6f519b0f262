"""Every module-level import in the package is used or re-exported, and the
package re-exports a pinned set of names from the modules that define them."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "src" / "oplab").glob("*.py")
    if path.name != "__init__.py"
)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's top-level imports, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _dead_imports(tree: ast.Module) -> dict[str, int]:
    """Imported names that are neither referenced nor in __all__."""
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return {name: line for name, line in _imported(tree).items() if name not in kept}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    dead = _dead_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not dead, f"{path.name}: unused imports {dead}"


def test_the_check_sees_a_dead_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n__all__ = ['gcd']\n")
    assert set(_dead_imports(tree)) == {"os", "lcm"}


# The package's names at the time its submodules became lazy, by the
# module that defines each; a name resolved through the package must be
# that module's own object.
PACKAGE_NAMES = {
    "perms": "ArityMismatch Permutation all_permutations block_compose format_permutation"
    " identity multiply parse_permutation perm_index",
    "linalg": "BudgetExceeded DimensionMismatch RowBasis SparseVector format_rational"
    " kernel_basis parse_rational",
    "operad": "NONUNITAL OperadElement UNITAL act format_element from_vector full_compose"
    " parse_element partial_compose standard_polynomial to_vector",
    "freealg": "NcPoly PolyParseError act_poly format_poly multilinearize operad_to_poly"
    " parse_poly poly_to_operad",
    "algebras": "AlgebraElement AlgebraError IdentityCheckInconsistency StructureAlgebra"
    " algebra_from_spec direct_sum evaluate evaluate_nullary evaluate_poly grassmann_algebra"
    " is_identity is_identity_general matrix_algebra tensor_product",
    "ideals": "ClosureReport GeneratorSet IdealSlice RoundtripReport codimension full_slice_map"
    " generator_set_hash ideal_slice_closure ideal_slice_spanning identities_slice"
    " load_slice_file membership min_identity_degree poly_generated_slice roundtrip_check"
    " save_slice_file slice_cache_path slice_polynomials slices_equal verify_ideal_closure",
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in PACKAGE_NAMES.items() for name in names.split()],
)
def test_package_name_is_the_defining_modules_object(module, name):
    import importlib

    namespace: dict = {}
    exec(f"from oplab import {name}", namespace)
    home = importlib.import_module(f"oplab.{module}")
    assert namespace[name] is getattr(home, name)
    defined_in = getattr(namespace[name], "__module__", home.__name__)
    assert defined_in == home.__name__


def test_all_dir_and_star_import_list_the_same_names():
    import oplab

    # the six submodules are public names too, as they were when imported eagerly
    public = set(PACKAGE_NAMES) | {n for names in PACKAGE_NAMES.values() for n in names.split()}
    namespace: dict = {}
    exec("from oplab import *", namespace)
    assert set(oplab.__all__) == public
    # importing oplab.cli binds it on the package, as for any submodule
    assert {n for n in dir(oplab) if not n.startswith("_")} - {"cli"} == public
    assert set(namespace) - {"__builtins__"} == public
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        oplab.no_such_name


def test_importing_the_package_registers_every_submodule():
    # perfbench/spans.py looks each submodule up in sys.modules after import
    import subprocess
    import sys

    probe = "import sys, oplab; print(sorted(n for n in sys.modules if n.startswith('oplab.')))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == repr([f"oplab.{m}" for m in sorted(PACKAGE_NAMES)]) + "\n"
