"""Checks on the package source itself."""

import ast
from pathlib import Path

import ddchain

SRC = Path(__file__).resolve().parents[1] / "src" / "ddchain"


def package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def names_used(trees):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def module_level_definitions(trees):
    return [(name, node.name) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_every_private_module_level_definition_is_used_in_the_package():
    # A private function or class that only tests reach is a second copy of
    # some behaviour; tests should call the code the package runs.
    trees = package_trees()
    used = names_used(trees)
    unused = [f"{module}:{name}" for module, name in module_level_definitions(trees)
              if name.startswith("_") and name not in used]
    assert "propagate.py" in trees
    assert unused == []


def test_every_public_module_level_definition_is_used_or_exported():
    # A public function or class that the package never calls and does not
    # export is dead code, whatever else may import it.
    trees = package_trees()
    used = names_used(trees)
    public = {name for _, name in module_level_definitions(trees) if not name.startswith("_")}
    unused = sorted(name for name in public
                    if name not in used and name not in ddchain.__all__)
    assert unused == []


def test_every_imported_name_is_used_or_exported():
    # An import nothing in its module reads (a cleanup helper left behind by a
    # rewrite, say) costs import time and misleads the reader.
    trees = package_trees()
    unused = []
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {element.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                    for element in node.value.elts}
        imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names]
        unused += [f"{module}:{name}" for name in imported if name not in read | exported]
    assert "cli.py" in trees
    assert unused == []
