"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import weakhopf

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
