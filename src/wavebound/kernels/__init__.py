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
from wavebound.kernels.reference import Snapshots, checked_arrays

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
    from an older ``stencil.c``, whose snapshot function had another name:
    the last one, ``snapshot_levels``, also took two antiderivatives).
    """
    lib = ctypes.CDLL(os.fspath(path))
    c_steps, c_pass = lib.advance_steps, lib.snapshot_run
    ptr, size, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    c_steps.argtypes = (ptr, ptr, ptr, size, ptr, size, ptr)
    c_steps.restype = None
    c_pass.argtypes = (ptr, ptr, size, ptr, size, real, real, ptr, ptr)
    c_pass.restype = size

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

    def snapshot_pass(u_prev, u_curr, h, dt, lam2):
        """k snapshot levels' steps and norms in C; see the reference backend.

        One array that this call allocates holds the new levels, a ring of
        three (k when k < 3), then three antiderivative slots, then the
        norms; the levels it returns are views into it, or the given
        ``u_curr`` after one level.
        """
        u_prev, u_curr, lam2, _ = checked_arrays(u_prev, u_curr, lam2, snapshot=True)
        n, k = u_curr.size, lam2.size
        r = min(k, 3)
        work = np.empty((r + 3) * n + 6 * k)
        extents = np.empty((k, 2), dtype=np.intp)
        finite_steps = c_pass(
            u_prev.ctypes.data, u_curr.ctypes.data, n, lam2.ctypes.data, k, h, dt,
            work.ctypes.data, extents.ctypes.data,
        )
        m = min(finite_steps + 1, k)
        ring = work[: r * n].reshape(r, n)
        u_before = ring[(m - 2) % 3] if m > 1 else u_curr
        norms = work[(r + 3) * n :].reshape(k, 6)[:m]
        return Snapshots(norms, extents[:m], finite_steps == k, u_before, ring[(m - 1) % 3])

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
