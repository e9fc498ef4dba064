"""Steiner triple systems with few parallel classes: constructions, bound
certificates, and exact/heuristic chromatic-index computation.

The package root imports nothing at start-up.  ``stskit.X`` and ``from stskit
import X`` import the submodule ``X`` if there is one, and otherwise the
library submodules in dependency order until one lists ``X`` in its
``__all__``, which is the one list of each module's public names.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("core", "numtheory", "factorisation", "constructions", "analysis", "generator")
# The submodules whose names the root does not re-export.
_OTHER_SUBMODULES = ("cli", "rng")


def __getattr__(name: str):
    if name in _SUBMODULES or name in _OTHER_SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [n for sub in _SUBMODULES for n in import_module(f"{__name__}.{sub}").__all__]
    for sub in _SUBMODULES:
        module = import_module(f"{__name__}.{sub}")
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
