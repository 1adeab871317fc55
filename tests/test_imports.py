"""Every name a package module imports is used in that module, and every
function and class it defines is used by the package or the benchmark.

No linter ships with the package, so this walks each source file's syntax
tree: deleting code must not leave its imports behind, and code that only
tests call must be named below as such.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "behavegen"

# Top-level names that only tests call: reference oracles the tests check the
# batched code against, and metrics that no command reports yet.
TEST_ONLY = {
    "vbb_loss", "fm_loss", "reconstruction_loss", "kl_prior_loss", "contrastive_loss",
    "project_to_sphere", "finite_difference_grads", "relative_grad_error",
    "order_accuracy", "transition_score", "paired_sign_test",
}


def imported_names(tree: ast.Module) -> dict:
    """Each name an import statement binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    """Names read anywhere in the module, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            notes = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= used_names(ast.parse(note.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom numpy import array, zeros\nx: 'array' = zeros(2)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os"}


def referenced_names(node: ast.AST) -> set:
    """Names a statement reads, plus the dotted parts of its strings, since
    the benchmark's tracer names its targets as ``"module.function"``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.update(n.value.split("."))
    return names


def unreferenced(defining: list, others: list) -> set:
    """Top-level functions and classes of the ``defining`` trees that no
    other top-level statement of any tree refers to."""
    defs = [node for tree in defining for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    refs = {}
    for tree in defining + others:
        for node in tree.body:
            for name in referenced_names(node):
                refs.setdefault(name, []).append(node)
    return {d.name for d in defs if all(n is d for n in refs.get(d.name, []))}


def parse_all(paths) -> list:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(paths)]


def test_no_test_only_code():
    unused = unreferenced(parse_all(SRC.glob("*.py")), parse_all((ROOT / "perfbench").glob("*.py")))
    assert unused == TEST_ONLY, (f"used only by tests: {sorted(unused - TEST_ONLY)}; "
                                 f"used after all: {sorted(TEST_ONLY - unused)}")


def test_an_unreferenced_definition_is_found():
    lib = ast.parse("def used(): pass\ndef recursive(): return recursive()\n"
                    "class Lone: pass\ndef traced(): pass\n")
    bench = ast.parse("used()\nTARGETS = ('lib.traced',)\n")
    assert unreferenced([lib], [bench]) == {"recursive", "Lone"}
