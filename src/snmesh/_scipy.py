"""Two pieces of scipy, each loaded from its own file, without scipy's
package inits.

``from scipy.special import erf, expi`` runs scipy.special's package
``__init__``, which loads some 300 modules (scipy's array-API compat layer,
and through it ``numpy.f2py`` and ``numpy.testing``) that no solve uses, and
``scipy.integrate``'s init loads sparse, linalg and optimize besides.  The
solver needs one file of each:

- ``erf`` and ``expi`` (Ei) live in the compiled extension
  ``scipy/special/_special_ufuncs``; loading that one file gives the same
  compiled functions, so every value is the same bit for bit.  Where the
  file or either name is missing (another scipy layout), the package import
  is the fallback.
- The DOP853 tableau of ``integrate`` lives in
  ``scipy/integrate/_ivp/dop853_coefficients.py``, which imports only
  numpy.  The file arrived with DOP853 itself (scipy 1.4), so a missing
  file raises ``ImportError`` naming it, with no fallback.
"""

import importlib.machinery
import importlib.util
from pathlib import Path


def _locate(stem, suffixes):
    """Path of the file ``stem`` + one of ``suffixes`` in scipy's package
    tree, or None; does not import scipy."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in suffixes:
            path = Path(root, stem + suffix)
            if path.is_file():
                return path
    return None


def _load(stem, suffixes):
    """The module in scipy's file ``stem`` + a suffix under a private name,
    or None where there is no such file."""
    path = _locate(stem, suffixes)
    if path is None:
        return None
    # An extension's init function is named after the last part of its
    # module name, so the private name keeps the file's own stem.
    spec = importlib.util.spec_from_file_location(
        f"{__package__}.{Path(stem).name}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _special_functions():
    """``(erf, expi)`` from the extension file, else from scipy.special."""
    module = _load("special/_special_ufuncs", importlib.machinery.EXTENSION_SUFFIXES)
    if hasattr(module, "erf") and hasattr(module, "expi"):
        return module.erf, module.expi
    from scipy.special import erf, expi

    return erf, expi


def dop853_coefficients():
    """scipy's DOP853 coefficient module (``N_STAGES``, ``C``, ``A``, ``B``,
    ``E3``, ``E5`` and the dense-output arrays)."""
    stem = "integrate/_ivp/dop853_coefficients"
    module = _load(stem, (".py",))
    if module is None:
        raise ImportError(f"scipy/{stem}.py not found")
    return module


erf, expi = _special_functions()
