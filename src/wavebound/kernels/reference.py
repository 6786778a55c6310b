"""Pure numpy implementation of the three-level stencil update.

This is the fallback backend used when the compiled extension is not
available. The arithmetic is written to match the compiled kernel operation
for operation, so the two backends produce bit-identical fields.
"""

import numpy as np


def advance_steps(u_prev, u_curr, lam2, left=None, right=None):
    """Advance the recurrence len(lam2) steps.

    lam2[s] is the squared Courant factor (a(t) dt / h)^2 frozen at the time
    level consumed by step s. ``left`` and ``right`` optionally prescribe the
    boundary values of each new level (default zero). The input arrays are
    consumed as scratch; the returned pair is the final (previous, current).

    Each step evaluates ``2 b - a + lam (b[2:] - 2 b + b[:-2])`` on the
    interior in that order, writing into the new level and one scratch array
    allocated once per call instead of fresh temporaries per step.
    """
    a = u_prev
    b = u_curr
    c = np.empty_like(b)
    lap = np.empty(max(b.size - 2, 0))
    for s in range(len(lam2)):
        lam = lam2[s]
        inner = c[1:-1]
        np.multiply(2.0, b[1:-1], out=lap)
        np.subtract(lap, a[1:-1], out=inner)
        np.multiply(2.0, b[1:-1], out=lap)
        np.subtract(b[2:], lap, out=lap)
        np.add(lap, b[:-2], out=lap)
        np.multiply(lam, lap, out=lap)
        np.add(inner, lap, out=inner)
        c[0] = 0.0 if left is None else left[s]
        c[-1] = 0.0 if right is None else right[s]
        a, b, c = b, c, a
    return a, b
