"""Lazy package exports (PEP 562).

Every ``repro`` package ``__init__`` declares which submodule defines
each public name and imports nothing else: a name's submodule is
imported on first attribute access.  ``from repro.obs import
analyze_saved`` therefore loads ``repro.obs.profile`` and what it needs,
not the whole ``repro.obs`` tree, and ``import repro.cli`` stays cheap.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], table: Mapping[str, Sequence[str]]
) -> tuple[dict[str, str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(exports, __getattr__, __dir__)`` for the package ``namespace``.

    ``table`` maps a module (relative to the package, like ``".trace"``,
    or absolute) to the public names it defines.  ``exports`` is its
    inverse, name → module, in table order: the package derives
    ``__all__`` from it.  A resolved name is cached in ``namespace``, so
    ``__getattr__`` runs once per name.
    """
    package = namespace["__name__"]
    exports = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return exports, __getattr__, __dir__
