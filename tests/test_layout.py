"""The package's own layout: no module reaches into another module's private
names, every name ``synideal`` exports exists, and every public function is
used by the package or exported by it."""

from __future__ import annotations

import ast
from pathlib import Path

import synideal

PACKAGE = Path(synideal.__file__).parent

#: (importing module, imported module, name).  The benchmark wraps these two
#: functions under every name a module binds them to, and
#: ``bench/test_bench.py::test_install_wraps_every_binding_and_restores_it``
#: pins ``harness``'s bindings; they go once the benchmark counts the work
#: under public names.
ALLOWED_PRIVATE_IMPORTS = {
    ("harness", "dfa", "_partition"),
    ("harness", "semigroup", "_close_images"),
}

#: (module, function).  Public functions that only the tests and the
#: benchmark call: the relabel search that the benchmark's ``closure``
#: workload runs (ROADMAP item 7), and generator necessity and rank, which no
#: command reports yet (items 3 and 9).
ALLOWED_UNUSED_FUNCTIONS = {
    ("semigroup", "equal_up_to_relabeling"),
    ("semigroup", "generator_necessity"),
    ("semigroup", "minimal_generator_count"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(module: str, tree: ast.Module) -> set[tuple[str, str, str]]:
    """Every private name ``module`` takes from another package module: by
    ``from .m import _x``, or as ``m._x`` where m is bound to a package
    module."""
    found = set()
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.module and node.module.split(".")[0] == "synideal":
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if source is None:
                    # from . import m [as x]
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.add((module, source, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and _private(node.attr)
        ):
            found.add((module, bound[node.value.id], node.attr))
    return {(m, source, name) for m, source, name in found if source != m}


def test_no_module_imports_another_modules_private_name():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _private_imports(path.stem, ast.parse(path.read_text(), str(path)))
    assert found - ALLOWED_PRIVATE_IMPORTS == set()
    # An allowance that no import uses any more is stale.
    assert ALLOWED_PRIVATE_IMPORTS <= found


def test_the_guard_sees_both_forms_of_private_import():
    tree = ast.parse(
        "from .dfa import _partition, preorder\n"
        "from . import semigroup as sg\n"
        "from synideal.witness import _letters\n"
        "x = sg._close_images(sg.closure, self._own)\n"
    )
    assert _private_imports("m", tree) == {
        ("m", "dfa", "_partition"),
        ("m", "semigroup", "_close_images"),
        ("m", "witness", "_letters"),
    }


def test_every_exported_name_resolves():
    assert len(set(synideal.__all__)) == len(synideal.__all__)
    missing = [name for name in synideal.__all__ if not hasattr(synideal, name)]
    assert missing == []


def _public_functions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _private(node.name)
    }


def _referenced(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads, reads as an attribute or imports with
    ``from``.  A local variable of the same name counts too: the rule can
    miss an unused function, but never flags a used one."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_function_is_used_or_exported():
    # ``__init__`` only re-exports, so its imports use nothing.
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    referenced = set().union(*(_referenced(t) for m, t in trees.items() if m != "__init__"))
    unused = {
        (module, name)
        for module, tree in trees.items()
        for name in _public_functions(tree)
        if name not in referenced and name not in synideal.__all__
    }
    assert unused - ALLOWED_UNUSED_FUNCTIONS == set()
    # An allowance for a function now used or exported is stale.
    assert ALLOWED_UNUSED_FUNCTIONS <= unused


def test_the_guard_sees_every_form_of_use():
    tree = ast.parse(
        "from .dfa import minimize\n"
        "def reach(d):\n"
        "    return sg.closure(preorder(d))\n"
        "def _helper(): pass\n"
        "unused = 1\n"
    )
    assert _public_functions(tree) == {"reach"}
    assert _referenced(tree) == {"minimize", "sg", "closure", "preorder", "d"}
