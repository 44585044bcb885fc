"""Lazy package exports (PEP 562).

A package lists what it re-exports in one table, module by module, and
imports a module only when one of its names is first read.  So ``import
repro`` and a subpackage import cost no more than their ``__init__``, and a
command loads only the modules it runs::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".graph": ("KnowledgeGraph",),
    })

A name the table does not hold raises :class:`AttributeError`, so
``hasattr``, ``from package import submodule`` and ``import *`` behave as
with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a module name (relative to ``package`` when it starts
    with a dot) to the names re-exported from it.  A name is imported from
    its module on first access and then bound on the package, so later
    reads are plain attribute lookups.
    """
    homes = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = homes.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | homes.keys())

    return __getattr__, __dir__, list(homes)
