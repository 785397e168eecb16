"""The solvers' LAPACK routines, loaded without `scipy.linalg`.

`import scipy.linalg` costs about 0.3 s, nearly all of it array-API
support magres never uses; the Fortran extension `_flapack` that holds
the routines loads in a few ms. It is registered under its own name, so a
later `import scipy.linalg` (ARPACK's) reuses it and its routine objects.
`_flapack` is private to SciPy: on any failure the same routines come
from `scipy.linalg.lapack`.
"""

import importlib.machinery
import importlib.util
import os
import sys

NAME = "scipy.linalg._flapack"


def _flapack():
    if NAME in sys.modules:
        return sys.modules[NAME]
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = next(p for p in (os.path.join(root, "linalg", "_flapack" + s)
                            for s in importlib.machinery.EXTENSION_SUFFIXES)
                if os.path.isfile(p))
    spec = importlib.util.spec_from_file_location(NAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(NAME, module)


try:
    _lib = _flapack()
except Exception:  # a private name may move: take the public import
    from scipy.linalg import lapack as _lib

dpttrf, dpttrs, dstebz, dstein = (_lib.dpttrf, _lib.dpttrs, _lib.dstebz,
                                  _lib.dstein)
zgttrf, zgttrs, zgeev, zgeev_lwork = (_lib.zgttrf, _lib.zgttrs, _lib.zgeev,
                                      _lib.zgeev_lwork)
