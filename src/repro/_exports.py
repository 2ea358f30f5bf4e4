"""Lazy package exports: a subpackage loads a submodule on first use.

Every subpackage ``__init__`` keeps its docstring and ``__all__`` and lists
which submodule defines each public name in one ``{submodule: names}``
table::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "kernel": ("Simulator", "SimulationError"),
        "signal": ("Signal",),
    })

The pair is the package's module-level ``__getattr__`` / ``__dir__``
(PEP 562).  ``from repro.events import Simulator`` imports
``repro.events.kernel`` and nothing else of the package, so a study loads
only the views it runs.  The first access caches the object in the package
namespace, so later lookups never reach ``__getattr__``.  A name outside
the table that names a submodule still resolves to it (``repro.link.memo``
without an ``import repro.link.memo``); any other unknown name raises the
standard ``AttributeError``.  ``dir()`` and ``from package import *``
cover every table name.

This module is stdlib-only.  Lint rule RPL009 (:mod:`repro._lint`) keeps
every subpackage ``__init__`` on its table: it flags an import of the
package's own submodules that runs when the package is imported.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of *package* for its export *table*.

    *table* maps a submodule name (relative to *package*) to the public
    names that submodule defines.
    """
    owners = {name: submodule for submodule, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name in owners:
            value = getattr(importlib.import_module(f"{package}.{owners[name]}"), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__
