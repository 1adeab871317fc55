"""Every name a package module imports is used in that module, and every
function and class it defines is used by the package or the benchmark.

No linter ships with the package, so this walks each source file's syntax
tree: deleting code must not leave its imports behind, and code that only
tests call, down to class methods, must be named below as such.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "behavegen"

# Names that only tests call: reference oracles the tests check the batched
# code against, metrics that no command reports yet and what only they reach,
# and the parameter count that the acceptance tests report.
TEST_ONLY = {
    "vbb_loss", "fm_loss", "reconstruction_loss", "kl_prior_loss", "contrastive_loss",
    "project_to_sphere", "finite_difference_grads", "relative_grad_error",
    "order_accuracy", "transition_score", "paired_sign_test", "Module.param_count",
    "embed_latent_segment", "embed_program", "sign_test_p", "BoundaryOutOfRange",
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


def name_counts(node: ast.AST) -> Counter:
    """How often a node names each name, counting the dotted parts of its
    strings, since the benchmark's tracer names its targets as
    ``"module.Class.method"``."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.update(n.value.split("."))
    return names


def unreferenced(defining: list, others: list) -> set:
    """Top-level functions and classes of the ``defining`` trees, and the
    methods of their classes (as ``Class.method``), that nothing names in any
    tree outside their own definition and the definitions found so: code
    that only test-only code reaches is test-only too.  Dunder methods are
    called implicitly and are left out.

    A name counts wherever it appears, whatever it refers to, so a method
    whose name another definition shares stays invisible: ``Vocabulary.decode``
    was never called, but ``bottleneck.decode`` is named.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for tree in defining:
        for node in tree.body:
            if isinstance(node, functions + (ast.ClassDef,)):
                defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, functions) and not m.name.startswith("__")]
    total = sum((name_counts(tree) for tree in defining + others), Counter())
    found = set()
    while True:
        # a method of a found class was counted out with its class
        inside = {name: name.split(".")[0] in found - {name} for name, _ in defs}
        live = total - sum((name_counts(d) for name, d in defs
                            if name in found and not inside[name]), Counter())
        new = {name for name, d in defs if name not in found
               and live[d.name] == (0 if inside[name] else name_counts(d)[d.name])}
        if not new:
            return found
        found |= new


def parse_all(paths) -> list:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(paths)]


def test_no_test_only_code():
    unused = unreferenced(parse_all(SRC.glob("*.py")), parse_all((ROOT / "perfbench").glob("*.py")))
    assert unused == TEST_ONLY, (f"used only by tests: {sorted(unused - TEST_ONLY)}; "
                                 f"used after all: {sorted(TEST_ONLY - unused)}")


def test_an_unreferenced_definition_is_found():
    lib = ast.parse("def used(): return shared()\n"
                    "def recursive(): return recursive() + chained() + shared()\n"
                    "def chained(): return Lone()\ndef shared(): pass\n"
                    "class Lone:\n"
                    "    def lonely(self): return shared()\n"
                    "def traced(): pass\n"
                    "class Kept:\n"
                    "    def __init__(self): self.helper()\n"
                    "    def helper(self): pass\n"
                    "    def loop(self): return self.loop()\n"
                    "    def run(self): pass\n"
                    "    def spare(self): return self.spare_part()\n"
                    "    def spare_part(self): pass\n")
    bench = ast.parse("used()\nTARGETS = ('lib.traced', 'lib.Kept.run')\nKept()\n")
    # chained, Lone and Kept.spare_part are named only from code found unreferenced;
    # shared is named from used, which is live, though Lone and Lone.lonely name it too
    assert unreferenced([lib], [bench]) == {"recursive", "chained", "Lone", "Lone.lonely",
                                            "Kept.loop", "Kept.spare", "Kept.spare_part"}
