"""The solvers' LAPACK and ARPACK routines, loaded without `scipy.linalg`
or `scipy.sparse.linalg`.

Those imports cost about 0.3 s each, and the second 27 MB, nearly all of
it code magres never uses; the extensions that hold the routines,
`_flapack` and `_arpacklib`, load in a few ms. Each is registered under
its own name, so a later package import reuses it and its routine
objects. Both are private to SciPy: on any failure the same routines come
from a package import. `cscale` drives `_arpacklib` through the
state-dict interface of SciPy 1.17, hence the `scipy>=1.17` floor.
"""

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES

NAME = "scipy.linalg._flapack"
ARPACK = "scipy.sparse.linalg._eigen.arpack._arpacklib"


def _load(name, public):
    """SciPy's extension module `name`, loaded from its file alone, or on
    any failure (a private name may move) the module `public`, imported."""
    if name in sys.modules:
        return sys.modules[name]
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        stem = os.path.join(root, *name.split(".")[1:])
        path = next(p for p in (stem + s for s in EXTENSION_SUFFIXES)
                    if os.path.isfile(p))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:
        return importlib.import_module(public)
    return sys.modules.setdefault(name, module)


_lib = _load(NAME, "scipy.linalg.lapack")
_arpack = _load(ARPACK, ARPACK)  # its fallback: the package's slower route

dpttrf, dpttrs, dstebz, dstein = (_lib.dpttrf, _lib.dpttrs, _lib.dstebz,
                                  _lib.dstein)
zgttrf, zgttrs, zgeev, zgeev_lwork = (_lib.zgttrf, _lib.zgttrs, _lib.zgeev,
                                      _lib.zgeev_lwork)
znaupd_wrap, zneupd_wrap = _arpack.znaupd_wrap, _arpack.zneupd_wrap
