"""Package re-exports that are imported on first access (PEP 562).

A package ``__init__`` imports eagerly what every bed runs and names the
rest here, so ``import repro.harness`` does not compile the experiment
drivers, the schedule explorer or the trace exporters for a process that
never calls them::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        ".experiments": ("ALL_EXPERIMENTS", "Scale"),
    })

The first access of a name imports its module and binds the name in the
package, so later accesses are plain attribute reads.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(package: str, namespace: dict,
                 names_by_module: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``, whose
    globals are ``namespace``: each name in ``names_by_module`` resolves
    from its (relative) module when first read."""
    module_of = {name: module for module, names in names_by_module.items()
                 for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(module_of))

    return __getattr__, __dir__
