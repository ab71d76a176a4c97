"""Static checks on the package source."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import weakhopf
from weakhopf import axioms

PACKAGE = Path(weakhopf.__file__).parent


def shadowed_imports(path: Path) -> set[tuple[str, str]]:
    """(function, name) pairs where a function assigns a name that its module
    imports at top level, hiding the import inside that function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                        and node.id in imported):
                    found.add((func.name, node.id))
    return found


def test_shadowed_imports_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from . import axioms\n\n"
                      "def f():\n    axioms = 1\n    return axioms\n\n"
                      "def g():\n    return axioms.rows\n")
    assert shadowed_imports(source) == {("f", "axioms")}


def test_no_function_shadows_a_module_import():
    found = {f"{path.name}:{func} assigns {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for func, name in shadowed_imports(path)}
    assert not found, sorted(found)


def unread_parameters(path: Path) -> set[tuple[str, str]]:
    """(function, parameter) pairs where a function, method or lambda never
    reads one of its parameters (``self`` and ``cls`` aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = func.body if isinstance(func.body, list) else [func.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found.update((getattr(func, "name", "<lambda>"), name) for name in params
                     if name not in read and name not in ("self", "cls"))
    return found


def test_unread_parameters_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def f(x, tol=1e-9):\n    return x\n\n"
                      "class A:\n    def g(self, y):\n        return [y for _ in ()]\n\n"
                      "    def h(self, z, *rest):\n        return self\n\n"
                      "k = lambda a, b: a\n")
    assert unread_parameters(source) == {("f", "tol"), ("h", "z"), ("h", "rest"),
                                         ("<lambda>", "b")}


def test_every_parameter_is_read():
    found = {f"{path.name}:{func} never reads {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for func, name in unread_parameters(path)}
    assert not found, sorted(found)


# Subspace membership is read from a subalgebra embedding's closed-form
# back-substitution or from a counital map; least squares is left only where
# the system is not a membership test.
LSTSQ_HOMES = {("actions.py", "_kernel_ideal")}
RETIRED = {"subspace_residual", "projector", "intersection_dim"}


def lstsq_callers(path: Path) -> set[str]:
    """Names of the functions whose own bodies call ``lstsq`` (``<module>``
    for top-level code)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == "lstsq":
                    found.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def retired_names(path: Path) -> set[str]:
    """Retired subspace helpers named anywhere in a module: defined,
    imported, read or reached as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names & RETIRED


def test_subspace_rule_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import numpy as np\n"
                      "from ._linalg import projector\n"
                      "from numpy.linalg import lstsq\n\n"
                      "def f(a, b):\n    return np.linalg.lstsq(a, b)[0]\n\n"
                      "def _kernel_ideal(a, b):\n"
                      "    def inner():\n        return lstsq(a, b)\n"
                      "    return inner\n\n"
                      "def intersection_dim(a):\n    return a.rank\n\n"
                      "x = lstsq(1, 2)\n")
    assert lstsq_callers(source) == {"f", "inner", "<module>"}
    assert retired_names(source) == {"projector", "intersection_dim"}


def test_subspace_membership_has_two_homes():
    lstsq = {(path.name, func) for path in sorted(PACKAGE.glob("*.py"))
             for func in lstsq_callers(path)}
    assert lstsq <= LSTSQ_HOMES, sorted(lstsq - LSTSQ_HOMES)
    retired = {f"{path.name} names {name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in retired_names(path)}
    assert not retired, sorted(retired)


# Rows of weakhopf.axioms read through the structure's row memo
# (``hopf.row(axioms.<row>, *args)``) everywhere outside axioms.py; the rest
# are called directly.
UNMEMOISED = {"intertwines", "index_element", "antipode_anti_homomorphism"}
MEMOISED = {name for name, value in vars(axioms).items()
            if inspect.isfunction(value) and value.__module__ == axioms.__name__
            and not name.startswith("_")} - UNMEMOISED


def memo_bypasses(path: Path) -> set[tuple[str, str]]:
    """(function, row) pairs where a function's own body calls a memoised
    row directly, as ``axioms.<row>(...)`` or an imported ``<row>(...)``
    (``<module>`` for top-level code)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                        and func.value.id == "axioms" and func.attr in MEMOISED:
                    found.add((owner, func.attr))
                elif isinstance(func, ast.Name) and func.id in MEMOISED:
                    found.add((owner, func.id))
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_memo_rule_detected(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from . import axioms\n"
                      "from .axioms import coassociativity\n\n"
                      "ROWS = [axioms.star_preserving]\n\n"
                      "def f(hopf):\n    return axioms.coassociativity(hopf)\n\n"
                      "def g(hopf, hinv):\n"
                      "    def inner():\n        return coassociativity(hopf)\n"
                      "    return hopf.row(axioms.multiplicativity, hinv) + max(\n"
                      "        axioms.antipode_anti_homomorphism(hopf),\n"
                      "        axioms.module_multiplicativity(hopf, 1, 2, 3))\n\n"
                      "x = axioms.counit_left(1)\n")
    assert memo_bypasses(source) == {("f", "coassociativity"),
                                     ("inner", "coassociativity"),
                                     ("g", "module_multiplicativity"),
                                     ("<module>", "counit_left")}
    assert {"coassociativity", "multiplicativity", "anti_multiplicative",
            "index_from_unit_legs", "module_multiplicativity",
            "product_decomposition"} <= MEMOISED
    assert not MEMOISED & (UNMEMOISED | {"rel_residual", "streamed_residual"})


def test_rows_are_read_through_the_memo():
    found = {f"{path.name}:{func} calls axioms.{row}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "axioms.py"
             for func, row in memo_bypasses(path)}
    assert not found, sorted(found)


def test_import_loads_only_numpy_and_the_standard_library():
    """Beyond numpy, importing the package and its CLI loads only the
    standard library and the package itself."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import weakhopf, weakhopf.cli\n"
            "added = {n.split('.')[0] for n in set(sys.modules) - before}\n"
            "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'weakhopf'}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
