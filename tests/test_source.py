"""Checks on the package source itself."""

import ast
from pathlib import Path

import ddchain

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ddchain"

# Public names that only the benchmark harness under bench/ needs, with the reason.
BENCH_ONLY = {
    "final_fidelity": "bench/tracer.py wraps it as a span; it goes with the tracer",
}


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


def test_every_public_module_level_definition_is_used_exported_or_bench_only():
    # A public function or class that the package never calls, does not export,
    # and the benchmark does not need is dead code.
    trees = package_trees()
    used = names_used(trees)
    public = {name for _, name in module_level_definitions(trees) if not name.startswith("_")}
    unused = sorted(name for name in public
                    if name not in used and name not in ddchain.__all__)
    assert unused == sorted(BENCH_ONLY)
    bench = "".join(path.read_text(encoding="utf-8")
                    for path in sorted((ROOT / "bench").glob("*.py")))
    assert [name for name in BENCH_ONLY if name not in bench] == []
