"""Pure numpy implementation of the three-level stencil update.

This is the fallback backend used when the compiled kernel is not built.
The arithmetic is written to match the compiled kernel operation for
operation, so the two backends produce bit-identical fields. Both take their
arguments through :func:`checked_arrays`.
"""

import numpy as np


def checked_arrays(u_prev, u_curr, lam2, right):
    """The kernel arguments as contiguous float64 arrays, or ValueError.

    The compiled kernel indexes raw pointers, so every length it relies on
    is checked here, before any backend reads a value.
    """
    u_prev = np.ascontiguousarray(u_prev, dtype=np.float64)
    u_curr = np.ascontiguousarray(u_curr, dtype=np.float64)
    lam2 = np.ascontiguousarray(lam2, dtype=np.float64)
    if u_prev.ndim != 1 or u_curr.ndim != 1 or lam2.ndim != 1:
        raise ValueError("u_prev, u_curr and lam2 must be 1-D arrays")
    if u_prev.size != u_curr.size:
        raise ValueError(f"u_prev has {u_prev.size} nodes but u_curr has {u_curr.size}")
    if u_curr.size < 3:
        raise ValueError(f"the stencil needs at least 3 nodes, got {u_curr.size}")
    if right is not None:
        right = np.ascontiguousarray(right, dtype=np.float64)
        if right.ndim != 1 or right.size < lam2.size:
            raise ValueError(
                f"right must be 1-D with at least {lam2.size} values, got shape {right.shape}"
            )
    return u_prev, u_curr, lam2, right


def advance_steps(u_prev, u_curr, lam2, right=None):
    """Advance the recurrence len(lam2) steps.

    lam2[s] is the squared Courant factor (a(t) dt / h)^2 frozen at the time
    level consumed by step s. ``right`` optionally prescribes the right
    boundary value of each new level; the left one is zero, as is the right
    one by default. The inputs are never written: the returned pair is the
    final (previous, current), in arrays this call allocates.

    Like the compiled kernel, the levels cycle through a ring of three
    arrays that starts as copies of the inputs. Each step evaluates
    ``2 b - a + lam (b[2:] - 2 b + b[:-2])`` on the interior in that order,
    writing into the new level and one scratch array allocated once per call
    instead of fresh temporaries per step.
    """
    u_prev, u_curr, lam2, right = checked_arrays(u_prev, u_curr, lam2, right)
    ring = (u_prev.copy(), u_curr.copy(), np.empty_like(u_curr))
    lap = np.empty(u_curr.size - 2)
    for s in range(lam2.size):
        a, b, c = ring[s % 3], ring[(s + 1) % 3], ring[(s + 2) % 3]
        lam = lam2[s]
        inner = c[1:-1]
        np.multiply(2.0, b[1:-1], out=lap)
        np.subtract(lap, a[1:-1], out=inner)
        np.multiply(2.0, b[1:-1], out=lap)
        np.subtract(b[2:], lap, out=lap)
        np.add(lap, b[:-2], out=lap)
        np.multiply(lam, lap, out=lap)
        np.add(inner, lap, out=inner)
        c[0] = 0.0
        c[-1] = 0.0 if right is None else right[s]
    k = lam2.size % 3
    return ring[k], ring[(k + 1) % 3]
