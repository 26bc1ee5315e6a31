"""Lazy package exports (PEP 562).

A package re-exports some names from submodules that import scipy at
module top.  Importing those eagerly would make every ``import`` of the
package pay for scipy, even on paths that never touch the names (the
paper's artifact runs on numpy alone).  Such a package lists the names in
a table instead; :func:`lazy_exports` builds the module ``__getattr__``
that imports the defining submodule on first access, and a ``__dir__``
that lists the names before they are resolved.

Usage, at the end of a package ``__init__``::

    if TYPE_CHECKING:  # the real names, for type checkers
        from repro.petri.analysis import ReachabilityGraph

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.petri.analysis": ("ReachabilityGraph",),
    })

A resolved name is stored in the package namespace, so it is the very
object its submodule defines and later lookups never reach
``__getattr__``.  Code *inside* the package ``__init__`` cannot see a lazy
name as a global; it imports it from the submodule where it needs it.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are *namespace*.

    *exports* maps each defining submodule to the names the package
    re-exports from it lazily.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
