"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that promotes names from its submodules declares them in a
table, ``{module: (name, ...)}``, and binds the two hooks this module
builds::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.config": ("MachineConfig", "to_dict"),
    })

Importing the package then imports none of its submodules.  The first
read of a promoted name imports the module that defines it and caches
the value in the package namespace, so every later read is a plain
attribute hit.  A read of any other name tries it as a submodule, so
``repro.harness`` works after a bare ``import repro``.  Static tools see
the names through the package's ``if TYPE_CHECKING:`` import block;
``tests/test_imports.py`` checks that block, the table and ``__all__``
agree.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, table: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` hooks of *package*, which
    re-exports each module's names in *table* on first use."""
    origin = {name: module for module, names in table.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
