"""Desk-scale simulation lab for coset-state authentication, permuting ZX
verifiers with strong completeness, idealized provably-correct obfuscation,
and the NIZK argument of knowledge for QMA built from them.

``import qmalab`` registers every layer in ``sys.modules`` and on the package
at once, but runs a layer's body only on its first attribute access
(``importlib.util.LazyLoader``), so a run that never touches a state vector
does not load the quantum simulator.  ``LazyLoader`` is not thread-safe
before Python 3.12; the lab is single-threaded.
"""

import importlib.util
import sys

__all__ = [
    "ati",
    "csa",
    "gf2",
    "nizknp",
    "obfstack",
    "permver",
    "protocol",
    "simstate",
    "toycrypto",
    "zxham",
]

__version__ = "0.1.0"

for _name in __all__:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module
