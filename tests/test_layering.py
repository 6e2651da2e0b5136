"""The package's import layering, read from its source with ``ast``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "octopoly"

# the text conveniences that call ``literals``, which imports the types they
# belong to
TEXT_CONVENIENCES = {
    ("algebra", "OctonionAlgebra.parse", "literals"),
    ("algebra", "Octonion.__repr__", "literals"),
    ("polynomials", "StandardPolynomial.__repr__", "literals"),
}


def _package_imports(tree):
    """(enclosing qualified name or None, module) for each import of a
    package module: a relative import, or one of ``octopoly``."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
                visit(child, inner, in_function or not isinstance(child, ast.ClassDef))
                continue
            where = ".".join(scope) if in_function else None
            if isinstance(child, ast.ImportFrom):
                if child.level and child.module is None:  # from . import x
                    found.extend((where, alias.name) for alias in child.names)
                elif child.level or child.module.split(".")[0] == "octopoly":
                    found.append((where, child.module.split(".")[-1]))
            elif isinstance(child, ast.Import):
                found.extend(
                    (where, alias.name.split(".")[-1])
                    for alias in child.names
                    if alias.name.split(".")[0] == "octopoly"
                )
            visit(child, scope, in_function)

    visit(tree, [], False)
    return found


def _imports_by_module():
    return {
        path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }


def test_only_the_text_conveniences_import_inside_functions():
    late = {
        (module, where, target)
        for module, imports in _imports_by_module().items()
        for where, target in imports
        if where is not None
    }
    assert late == TEXT_CONVENIENCES


def test_scalars_imports_only_errors_and_linalg():
    imported = {target for _, target in _imports_by_module()["scalars"]}
    assert imported <= {"errors", "linalg"}
