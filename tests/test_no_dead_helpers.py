"""No dead helpers: every function, class and method in ``src/simbarrier``
is referenced by some code there, by name or as an attribute.

A top-level function or class counts as referenced where its module
reads its name, or another module reads it through an import; a method
where any code reads it as an attribute.  A reference inside a
definition's own body (a recursive call) does not count, and neither do
dunder methods, which Python calls by protocol.  The names that
``__init__`` imports are the package's exports, and ``cli.main`` is the
console script's entry point; both count as used.

    PYTHONPATH=src python -m pytest tests/test_no_dead_helpers.py
"""

from __future__ import annotations

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "simbarrier"

# The test references that ``bench/run.py`` counts by name (``install``,
# ``Tracer.count``): they stay in ``src`` until the benchmark moves off
# them (ROADMAP items 3-4), and only the benchmark calls them.
REFERENCES_FOR_THE_BENCHMARK = {
    "model.template_value", "model.template_grad_x", "model.template_hess_x",
    "expr.evaluate", "expr.interval_eval",
}


def _reads(tree: ast.AST) -> tuple[collections.Counter, collections.Counter]:
    """The names read under ``tree`` as plain names, and as attributes."""
    names, attributes = collections.Counter(), collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def _module_reads(tree: ast.Module, reads: collections.Counter):
    """Add to ``reads``, by (module, name), what ``tree`` reads of other
    modules of the package: ``alias.name`` for a module imported as
    ``alias``, and each read of a name imported from a module."""
    modules, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    names, _ = _reads(tree)
    for local, target in imported.items():
        reads[target] += names[local]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads[modules[node.value.id], node.attr] += 1


def _definitions(prefix: str, scope: ast.AST, kind: str):
    """Each function, class and method under ``scope``, with its dotted
    name, its node, the node whose reads can reach it (the module for a
    top-level definition, the enclosing function for a nested one) and
    its kind: "module", "method" or "local"."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            yield name, node, scope, kind
            inner = "method" if isinstance(node, ast.ClassDef) else "local"
            yield from _definitions(name, node, inner)
        else:
            todo += ast.iter_child_nodes(node)


def unreferenced(sources: dict[str, str]) -> set[str]:
    """The dotted names of the definitions in ``sources`` (module name ->
    source text) that no code in them reads, but for a read in the
    definition's own body, a dunder method, ``__init__``'s imports and
    ``cli.main``.  A top-level definition is read by name in its module,
    as ``alias.name`` or through ``from .module import name`` in another;
    a method as an attribute anywhere; a nested function by name in the
    function around it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    across = collections.Counter()
    attributes = collections.Counter()
    for module, tree in trees.items():
        _module_reads(tree, across)
        attributes += _reads(tree)[1]
    exports = {alias.name for node in trees["__init__"].body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    scope_names = {}
    dead = set()
    for module, tree in trees.items():
        for name, node, scope, kind in _definitions(module, tree, "module"):
            short = node.name
            if (short.startswith("__") and short.endswith("__")
                    or short in exports or name == "cli.main"):
                continue
            own_names, own_attributes = _reads(node)
            if kind == "method":
                reads = attributes[short] - own_attributes[short]
            else:
                if scope not in scope_names:
                    scope_names[scope] = _reads(scope)[0]
                reads = scope_names[scope][short] - own_names[short]
                if kind == "module":
                    reads += across[module, short]
            if reads <= 0:
                dead.add(name)
    return dead


def _src() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_only_the_benchmark_references_are_unreferenced():
    assert unreferenced(_src()) == REFERENCES_FOR_THE_BENCHMARK


def test_a_helper_left_behind_is_found():
    # a helper whose last call was deleted, and a method no one calls,
    # with their definitions left in place; a recursive helper's call of
    # itself does not keep it alive
    sources = _src()
    sources["interval"] += (
        "\n\ndef _left_behind(b):\n    return b\n"
        "\n\ndef _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "\n\nclass _Kept:\n    def orphan(self):\n        return 0\n"
        "\n\n_KEEP = _Kept\n")
    assert unreferenced(sources) == REFERENCES_FOR_THE_BENCHMARK | {
        "interval._left_behind", "interval._recursive", "interval._Kept.orphan"}
    # the one call of interval._power deleted; model and expr have a
    # _power of their own, which does not keep it alive
    sources = _src()
    assert "_power(x.b, n)" in sources["interval"]
    sources["interval"] = sources["interval"].replace("_power(x.b, n)",
                                                      "x.b ** n")
    assert unreferenced(sources) == REFERENCES_FOR_THE_BENCHMARK | {
        "interval._power"}
