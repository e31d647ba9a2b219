"""numpy's own OpenBLAS, called through ``ctypes`` on caller-kept buffers.

numpy's wheels bundle OpenBLAS with its LAPACK, built for 64-bit
integers (ILP64) and exporting each routine as ``scipy_<name>_64_``.
numpy wraps only part of it, and its wrappers copy their inputs; through
``ctypes`` the rest runs in place.  ``LIBRARY`` is the copy numpy has
already loaded, found once at import from numpy's build record and the
directory its wheel keeps shared libraries in; nothing new is loaded.
It is None wherever numpy was built against another BLAS or LAPACK, or
the library cannot be found, and callers then keep to numpy's routines.
"""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Optional

import numpy as np


def _lapack_record() -> dict:
    try:
        return dict(np.show_config(mode="dicts")["Build Dependencies"]["lapack"])
    except (AttributeError, KeyError, TypeError):  # a numpy without this record
        return {}


def lapack_name() -> Optional[str]:
    """The LAPACK named in numpy's build record, or None."""
    name = _lapack_record().get("name")
    return None if name is None else str(name)


class OpenBLAS:
    """Entry points of one loaded ILP64 OpenBLAS.

    Fortran takes every argument by reference, so each is passed as an
    address: ``L``, ``U`` and ``N`` are those of the one-letter flags,
    and integers are ``ctypes.c_int64`` the caller keeps.  gfortran's ABI
    appends one hidden length per character argument, passed by value,
    so callers pass those too (``1`` each).
    """

    def __init__(self, lib: ctypes.CDLL):
        self._flags = ctypes.create_string_buffer(b"LUN")
        self.L = ctypes.addressof(self._flags)
        self.U = self.L + 1
        self.N = self.L + 2
        # dpotrf(uplo, n, a, lda, info): Cholesky factorization in place.
        self.dpotrf = self._entry(lib, "scipy_dpotrf_64_", 5, 1)
        # dtrsv(uplo, trans, diag, n, a, lda, x, incx): triangular solve
        # of one right-hand side, in place in x.
        self.dtrsv = self._entry(lib, "scipy_dtrsv_64_", 8, 3)
        self._threads = lib.scipy_openblas_get_num_threads64_
        self._threads.argtypes = []
        self._threads.restype = ctypes.c_int

    @staticmethod
    def _entry(lib, symbol, pointers, lengths):
        fn = getattr(lib, symbol)
        fn.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
        fn.restype = None
        return fn

    def threads(self) -> int:
        """The number of threads OpenBLAS runs its kernels on."""
        return int(self._threads())


def _load() -> Optional[OpenBLAS]:
    record = _lapack_record()
    if record.get("name") != "scipy-openblas":
        return None
    if "USE64BITINT" not in str(record.get("openblas configuration", "")):
        return None
    mode = ctypes.DEFAULT_MODE | getattr(os, "RTLD_NOLOAD", 0)
    package = Path(np.__file__).parent
    # Linux and Windows wheels keep it beside the package, macOS ones inside.
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("libscipy_openblas64_*")):
            try:
                # RTLD_NOLOAD: only the copy numpy has loaded, never a second.
                return OpenBLAS(ctypes.CDLL(str(path), mode=mode))
            except (OSError, AttributeError):
                continue
    return None


LIBRARY = _load()
