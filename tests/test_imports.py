"""Every name a ``slicesched`` module imports is used in that module, and
every name a module defines at module level is read somewhere in the
package.

``__future__`` imports and the package ``__init__.py`` (which re-exports)
are exempt from the first check.  Names inside string annotations count as
uses.  A definition that only the benchmark reads counts as read when
``perfbench/worker.py`` names it as a wrapped target; one that only tests
read belongs in the tests.  Likewise every attribute a module stores on
``self`` is loaded somewhere, as any object's attribute, in the package or
in ``perfbench/worker.py``: state that is only written is waste.  And
every method a package class defines is loaded as an attribute there, or
is named in ``perfbench/worker.py``'s wrapped targets, unless Python or a
base class from outside the package calls it (a dunder, or an override
such as ``cli._Parser.error``, which argparse calls).  Neither of these two
checks counts a load along a chain that starts at a name a plain
``import`` binds, such as ``dataclasses.replace`` or ``np.add.reduce``: it
names something of a module from outside the package.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import slicesched

PACKAGE = sorted(Path(slicesched.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree: ast.Module) -> set[str]:
    names = set()
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")   # "ScenarioConfig"
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def _used(tree: ast.Module) -> set[str]:
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | _string_annotation_names(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in sorted(_imported(tree).items())
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _defined(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level statements, to their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Names the module loads, or imports from another package module."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {alias.name for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) for alias in n.names}
            | _string_annotation_names(tree))


# every name the package reads, and every definition the benchmark wraps:
# "slicesched.queueing:UserQueue.update" names UserQueue
READ = set().union(*(_read(ast.parse(p.read_text())) for p in PACKAGE),
                   re.findall(r"slicesched\.\w+:(\w+)", WORKER.read_text()))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_every_module_level_name_is_read(path):
    unread = [f"{name} (line {line})" for name, line in
              sorted(_defined(ast.parse(path.read_text())).items())
              if name not in READ]
    assert not unread, (f"{path.name} defines names that nothing in the "
                        f"package reads: {unread}")


def _self_stores(tree: ast.Module) -> dict[str, int]:
    """Attributes stored on ``self`` (``self.x = ...``, ``self.x += 1``), to
    their first lines."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.setdefault(node.attr, node.lineno)
    return names


def _loaded(tree: ast.Module) -> set[str]:
    """Attributes the module loads, except along a chain that starts at a
    name a plain ``import`` binds (``np.add.reduce``, ``math.floor``)."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                loaded.add(node.attr)
    return loaded


# every attribute the package or the benchmark's worker loads
LOADED = set().union(*(_loaded(ast.parse(p.read_text()))
                       for p in [*PACKAGE, WORKER]))


def test_loads_rooted_at_an_import_are_not_counted():
    tree = ast.parse("import dataclasses\nimport numpy as np\n"
                     "dataclasses.replace(cfg, seed=1)\nnp.add.reduce(x)\n")
    assert not {"replace", "reduce"} & _loaded(tree)
    assert _loaded(ast.parse("obj.replace(seed=1)\n")) == {"replace"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_every_stored_attribute_is_loaded(path):
    unloaded = [f"self.{name} (line {line})" for name, line in
                sorted(_self_stores(ast.parse(path.read_text())).items())
                if name not in LOADED]
    assert not unloaded, (f"{path.name} stores attributes that nothing in "
                          f"the package or the benchmark loads: {unloaded}")


def _methods(path: Path):
    """(class, method name, line) of each method a module-level class
    defines, except those Python or a base class from outside the package
    calls: dunders, and overrides of an outside base's methods."""
    module = importlib.import_module(f"slicesched.{path.stem}")
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef):
            continue
        outside = [base for base in getattr(module, node.name).__mro__[1:]
                   if not base.__module__.startswith("slicesched")]
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("__")
                    and not any(hasattr(base, item.name) for base in outside)):
                yield node.name, item.name, item.lineno


# every method name the benchmark's worker wraps:
# "slicesched.engine:Simulation.run_episode" names run_episode
WRAPPED = set(re.findall(r"slicesched\.\w+:\w+\.(\w+)", WORKER.read_text()))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_method_is_called(path):
    uncalled = [f"{cls}.{name} (line {line})"
                for cls, name, line in _methods(path)
                if name not in LOADED | WRAPPED]
    assert not uncalled, (f"{path.name} defines methods that nothing in the "
                          f"package or the benchmark calls: {uncalled}")
