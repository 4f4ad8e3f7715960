"""scipy's compiled ``erf`` and ``expi`` (Ei), without scipy.special's init.

``from scipy.special import erf, expi`` runs scipy.special's package
``__init__``, which loads some 300 modules (scipy's array-API compat layer,
and through it ``numpy.f2py`` and ``numpy.testing``) that no solve uses.
The two ufuncs live in the compiled extension
``scipy/special/_special_ufuncs``; loading that one file gives the same
compiled functions, so every value is the same bit for bit.  Where the file
or either name is missing (another scipy layout), the package import is
the fallback.
"""

import importlib.machinery
import importlib.util
from pathlib import Path

# An extension's init function is named after the last part of its module
# name, so the private name keeps the file's own stem.
_MODULE_NAME = f"{__package__}._special_ufuncs"


def _extension_path():
    """Path of scipy's ``_special_ufuncs`` extension, or None; does not
    import scipy."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "special", "_special_ufuncs" + suffix)
            if path.is_file():
                return path
    return None


def _load():
    """``(erf, expi)`` from the extension file, else from scipy.special."""
    path = _extension_path()
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, str(path))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(_MODULE_NAME, loader)
        )
        loader.exec_module(module)
        if hasattr(module, "erf") and hasattr(module, "expi"):
            return module.erf, module.expi
    from scipy.special import erf, expi

    return erf, expi


erf, expi = _load()
