"""Stencil kernel backend selection.

The compiled backend is the C library built from ``stencil.c`` next to this
file by ``python setup.py build_ext --inplace`` (or ``pip install
--no-build-isolation -e .``) and loaded with ctypes. When the library is not
there, or fails to load, the numpy reference implementation is used. Both
produce bit-identical fields, check their arguments the same way and never
write into their inputs; the parity tests load both backends directly.
"""

import ctypes
import importlib.machinery
import os
from pathlib import Path

import numpy as np

from wavebound.kernels import reference
from wavebound.kernels.reference import checked_arrays

# file name stem of the compiled library; no Python module has this name
LIBRARY = "_stencil_c"
BUILD_COMMAND = "python setup.py build_ext --inplace"


def library_path(directory):
    """The compiled kernel library built into ``directory``, or None."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(directory, LIBRARY + suffix)
        if path.is_file():
            return path
    return None


def load(path):
    """The compiled ``advance_steps`` from the library at ``path``.

    It takes the arguments of the reference backend and returns the same
    bits. Like the reference backend, it copies its inputs into a ring of
    three levels that the C loop cycles through, so they are never written.
    """
    c_steps = ctypes.CDLL(os.fspath(path)).advance_steps
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    c_steps.argtypes = (ptr, ptr, ptr, size, ptr, size, ptr)
    c_steps.restype = None

    def advance_steps(u_prev, u_curr, lam2, right=None):
        """Advance the recurrence len(lam2) steps in C; see the reference backend."""
        u_prev, u_curr, lam2, right = checked_arrays(u_prev, u_curr, lam2, right)
        ring = (u_prev.copy(), u_curr.copy(), np.empty_like(u_curr))
        c_steps(
            ring[0].ctypes.data, ring[1].ctypes.data, ring[2].ctypes.data, u_curr.size,
            lam2.ctypes.data, lam2.size, None if right is None else right.ctypes.data,
        )
        k = lam2.size % 3
        return ring[k], ring[(k + 1) % 3]

    return advance_steps


advance_steps = reference.advance_steps
BACKEND = "python"
_library = library_path(Path(__file__).parent)
if _library is not None:
    try:
        advance_steps, BACKEND = load(_library), "compiled"
    except OSError:
        pass  # not a loadable library here: keep the numpy kernel
