"""The package defines nothing that only a test reaches, and README's
Library section names everything it exports."""

import ast
from pathlib import Path

import qcalc

PACKAGE = Path(qcalc.__file__).parent


def _named(node: ast.AST) -> str | None:
    """The name a Name or Attribute node refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_definition_is_reached_from_package_code():
    """Every top-level function and class of src/qcalc is named by package
    code outside its own body, or exported in qcalc.__all__, or is the
    entry point cli.main.  A test oracle belongs under tests/."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in qcalc.__all__ or (module, node.name) == ("cli.py", "main"):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(
                id(n) not in own and _named(n) == node.name
                for other in trees.values()
                for n in ast.walk(other)
            ):
                unreached.append(f"{module}:{node.lineno} {node.name}")
    assert unreached == []


def test_readme_library_section_names_every_export():
    """README's Library section names each entry of qcalc.__all__, in
    backquotes."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in qcalc.__all__ if f"`{name}`" not in library] == []
