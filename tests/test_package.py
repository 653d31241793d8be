"""The library keeps no public function or class that the pipeline does not use.

A public module-level function or class in ``src/snapgrid`` must be named
by another module of the package, by its own module outside its
definition, by the acceptance tests, by a demo or by the benchmark (whose
tracer names functions in strings). Unit tests do not count as callers,
and neither does the package root, which exports nothing. An exception
class in ``errors.py`` must be caught by name elsewhere in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "snapgrid"


def _mentions(node, skip=None) -> set[str]:
    """Every name, attribute, imported name and string constant under ``node``, ``skip``'s subtree left out."""
    if node is skip:
        return set()
    if isinstance(node, ast.Name):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    elif isinstance(node, ast.alias):
        found = {node.name.rsplit(".", 1)[-1]}
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        found = {node.value}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _mentions(child, skip)
    return found


def _unused(modules: dict[str, ast.Module], callers: set[str]) -> list[str]:
    """``module.name`` of each public module-level def or class that nothing in ``callers`` or the package names."""
    unused = []
    for stem, tree in modules.items():
        others = callers.union(*(_mentions(t) for s, t in modules.items() if s != stem))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in others and node.name not in _mentions(tree, skip=node):
                    unused.append(f"{stem}.{node.name}")
    return unused


def test_every_public_name_has_a_caller():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    outside = [ROOT / "tests" / "test_acceptance.py", *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    callers = set().union(*(_mentions(ast.parse(p.read_text())) for p in outside))
    assert _unused(modules, callers) == []


def test_a_name_only_its_own_definition_uses_is_unused():
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1) if n else 0\n\ndef used():\n    return 1\n")
    assert _unused({"m": tree}, {"used"}) == ["m.lonely"]


def _caught(tree) -> set[str]:
    """Every name in the ``except`` clauses and ``isinstance`` class arguments under ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            found |= _mentions(node.type)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            found |= _mentions(node.args[1])
    return found


def test_every_exception_class_is_caught_by_name():
    # a class that no caller catches says nothing a SnapGridError message does not
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defined = [node.name for node in modules.pop("errors").body if isinstance(node, ast.ClassDef)]
    caught = set().union(*map(_caught, modules.values()))
    assert [name for name in defined if name not in caught] == []


def test_a_class_only_raised_is_not_caught():
    tree = ast.parse(
        "try:\n    raise Raised()\nexcept (Caught, OSError):\n    pass\n"
        "if isinstance(exc, Checked):\n    raise Raised()\n"
    )
    assert _caught(tree) >= {"Caught", "Checked"} and "Raised" not in _caught(tree)
