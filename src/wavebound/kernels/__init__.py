"""Stencil kernel backend selection.

The compiled extension is preferred when it imported successfully at build
time; otherwise the numpy reference implementation is used. Both produce
bit-identical fields. Set WAVEBOUND_KERNEL=python or =compiled to force a
backend, for example to run the test suite on the fallback kernel; the
parity tests import both backends directly instead.
"""

import os

import numpy as np

_requested = os.environ.get("WAVEBOUND_KERNEL", "auto").strip().lower()

if _requested in ("auto", "", "compiled", "c"):
    try:
        from wavebound.kernels import _stencil as _impl

        BACKEND = "compiled"
    except ImportError:
        if _requested in ("compiled", "c"):
            raise ImportError(
                "WAVEBOUND_KERNEL=compiled but the extension is not built; "
                "reinstall with a C compiler available"
            ) from None
        from wavebound.kernels import reference as _impl

        BACKEND = "python"
elif _requested in ("python", "numpy", "reference"):
    from wavebound.kernels import reference as _impl

    BACKEND = "python"
else:
    raise ImportError(f"unknown WAVEBOUND_KERNEL value {_requested!r}")


def advance_steps(u_prev, u_curr, lam2, left=None, right=None):
    """Advance the three-level recurrence; see the reference backend."""
    u_prev = np.ascontiguousarray(u_prev, dtype=np.float64)
    u_curr = np.ascontiguousarray(u_curr, dtype=np.float64)
    lam2 = np.ascontiguousarray(lam2, dtype=np.float64)
    if left is not None:
        left = np.ascontiguousarray(left, dtype=np.float64)
    if right is not None:
        right = np.ascontiguousarray(right, dtype=np.float64)
    return _impl.advance_steps(u_prev, u_curr, lam2, left, right)
