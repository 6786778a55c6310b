"""Kernel backend selection: the stencil update and the snapshot pass.

The compiled backend is the C library built from ``stencil.c`` next to this
file by ``python setup.py build_ext --inplace`` (or ``pip install
--no-build-isolation -e .``) and loaded with ctypes. When the library is not
there, fails to load or lacks either function, the numpy reference
implementation is used for both, so ``BACKEND`` names the one backend that
serves ``advance_steps`` and ``snapshot_pass``. Both backends produce
bit-identical results, check their arguments the same way and never write
into their inputs; the parity tests load both backends directly.
"""

import ctypes
import importlib.machinery
import os
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from wavebound.kernels import reference
from wavebound.kernels.reference import Snapshot, checked_arrays, checked_snapshot

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


class Backend(NamedTuple):
    """The two kernel functions, both from one backend."""

    advance_steps: Callable
    snapshot_pass: Callable


def load(path) -> Backend:
    """The compiled backend from the library at ``path``.

    Its functions take the arguments of the reference backend and return
    the same bits. Raises OSError when the file is not a loadable library
    and AttributeError when it lacks one of the functions (a library built
    from an older ``stencil.c``, whose snapshot function had other
    arguments under another name).
    """
    lib = ctypes.CDLL(os.fspath(path))
    c_steps, c_pass = lib.advance_steps, lib.snapshot_pass
    ptr, size, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    c_steps.argtypes = (ptr, ptr, ptr, size, ptr, size, ptr)
    c_steps.restype = None
    c_pass.argtypes = (ptr, ptr, ptr, ptr, ptr, ptr, size, ptr, real, real, ptr, ptr)
    c_pass.restype = None

    def advance_steps(u_prev, u_curr, lam2, right=None):
        """Advance the recurrence len(lam2) steps in C; see the reference backend.

        Like the reference backend, it copies its inputs into a ring of
        three levels that the C loop cycles through, so they are never
        written. The third level is left uninitialised: the C loop zeroes
        it outside its first band.
        """
        u_prev, u_curr, lam2, right = checked_arrays(u_prev, u_curr, lam2, right)
        ring = (u_prev.copy(), u_curr.copy(), np.empty_like(u_curr))
        c_steps(
            ring[0].ctypes.data, ring[1].ctypes.data, ring[2].ctypes.data, u_curr.size,
            lam2.ctypes.data, lam2.size, None if right is None else right.ctypes.data,
        )
        k = lam2.size % 3
        return ring[k], ring[(k + 1) % 3]

    def snapshot_pass(u_prev, u_curr, v_prev, v_curr, h, dt, lam2):
        """One snapshot's step, antiderivative and six norms in C; see the reference backend."""
        u_prev, u_curr, v_prev, v_curr, lam2 = checked_snapshot(
            u_prev, u_curr, v_prev, v_curr, lam2
        )
        u_next, v_next = np.empty_like(u_curr), np.empty_like(u_curr)
        norms = np.empty(6)
        info = np.empty(3, dtype=np.intp)
        c_pass(
            u_prev.ctypes.data, u_curr.ctypes.data, u_next.ctypes.data,
            v_prev.ctypes.data, v_curr.ctypes.data, v_next.ctypes.data, v_next.size,
            lam2.ctypes.data, h, dt,
            norms.ctypes.data, info.ctypes.data,
        )
        finite, first, last = info.tolist()
        return Snapshot(u_next, v_next, norms.tolist(), bool(finite), (first, last))

    return Backend(advance_steps, snapshot_pass)


advance_steps, snapshot_pass = reference.advance_steps, reference.snapshot_pass
BACKEND = "python"
_library = library_path(Path(__file__).parent)
if _library is not None:
    try:
        advance_steps, snapshot_pass = load(_library)
        BACKEND = "compiled"
    except (OSError, AttributeError):
        pass  # not a loadable library with both functions: keep numpy for both
