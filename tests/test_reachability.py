"""Every library module is reached from a product entry point.

A static import closure over ``src/repro`` (stdlib :mod:`ast` only).  The
seeds are every module under ``repro.cli``, ``repro.service``,
``repro.dse`` and ``repro.experiments``.  ``from pkg import name``
resolves through ``pkg/__init__``'s re-export to the submodule that
defines ``name``; only ``import pkg``, ``from parent import pkg`` or a
name the ``__init__`` defines itself follows a whole package
``__init__``.  A lazy package's ``_EXPORTS`` table (see
:mod:`repro._lazy`) counts as the ``from .x import name`` statement each
entry stands for.  So a package re-export alone does not keep a module
alive: one that only tests, examples or benchmarks import fails this
test.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = ("repro.cli", "repro.service", "repro.dse", "repro.experiments")


def _modules() -> dict[str, Path]:
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        found[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return found


MODULES = _modules()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _nodes(module: str) -> list[ast.AST]:
    """Every AST node of ``module``, plus one ``from .x import name`` per
    entry of a lazy ``_EXPORTS`` table."""
    tree = ast.parse(MODULES[module].read_text())
    nodes = list(ast.walk(tree))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in node.targets
        ):
            for name, path in ast.literal_eval(node.value).items():
                relative = path.lstrip(".")
                nodes.append(
                    ast.ImportFrom(
                        module=relative or None,
                        names=[ast.alias(name)],
                        level=len(path) - len(relative),
                    )
                )
    return nodes


def _base(module: str, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    package = module if _is_package(module) else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return ".".join(filter(None, (package, node.module)))


def _defining(package: str, name: str) -> str:
    """Follow ``package/__init__``'s re-export of ``name`` to its module."""
    for node in _nodes(package):
        if isinstance(node, ast.ImportFrom) and any(
            (alias.asname or alias.name) == name for alias in node.names
        ):
            return _target(package, node, name) or package
    return package


def _target(module: str, node: ast.ImportFrom, name: str) -> str | None:
    base = _base(module, node)
    if f"{base}.{name}" in MODULES:
        return f"{base}.{name}"
    if base not in MODULES:
        return None
    if _is_package(base) and base != module:
        return _defining(base, name)
    return base


def _imports(module: str):
    for node in _nodes(module):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (_target(module, node, alias.name) for alias in node.names)


def reachable() -> set[str]:
    todo = [m for m in MODULES if any(m == s or m.startswith(s + ".") for s in SEEDS)]
    seen = set(todo)
    while todo:
        for name in _imports(todo.pop()):
            if name in MODULES and name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_every_library_module_is_reached_from_a_product_entry_point():
    reached = reachable()
    unreached = sorted(
        name
        for name, path in MODULES.items()
        if path.name != "__init__.py" and name not in reached
    )
    assert not unreached, f"no product path imports: {unreached}"
