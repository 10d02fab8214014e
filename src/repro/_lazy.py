"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules lists
them in one name -> submodule table instead of importing every
submodule up front::

    _EXPORTS = {"BatchMapper": ".engine", "QueueFull": "..batch.queue"}
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

A name's submodule is imported on first access and the value cached in
the package's globals, so later lookups never reach ``__getattr__``.
Importing the package itself then costs nothing, and a caller that
needs only stdlib-light modules (the service client) never loads NumPy
or SciPy.  Table values are module paths relative to the package, with
the same leading-dot rules as ``from .x import name``.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """The module ``__getattr__`` and ``__dir__`` for ``exports``."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
