"""Pure numpy implementation of the stencil update and the snapshot pass.

This is the fallback backend used when the compiled kernel is not built.
The arithmetic is written to match the compiled kernel operation for
operation, so the two backends produce bit-identical results. Both take
their arguments through :func:`checked_arrays` and :func:`checked_levels`,
and, like the compiled kernel, neither warns on overflow: callers check.
"""

import numpy as np

from wavebound.grids import centered_diff, cumtrapz, trapz_sq


def checked_levels(**levels):
    """The named field levels as contiguous float64 arrays, or ValueError.

    The compiled kernel indexes raw pointers, so every length it relies on
    is checked here, before any backend reads a value: the levels are 1-D,
    of one length, and at least 3 nodes long.
    """
    arrays = [np.ascontiguousarray(f, dtype=np.float64) for f in levels.values()]
    names = list(levels)
    for name, f in zip(names, arrays):
        if f.ndim != 1:
            raise ValueError(f"{name} must be a 1-D array, got shape {f.shape}")
        if f.size != arrays[0].size:
            raise ValueError(f"{names[0]} has {arrays[0].size} nodes but {name} has {f.size}")
    if arrays[0].size < 3:
        raise ValueError(f"the stencil needs at least 3 nodes, got {arrays[0].size}")
    return arrays


def checked_arrays(u_prev, u_curr, lam2, right):
    """The stepping arguments as contiguous float64 arrays, or ValueError."""
    u_prev, u_curr = checked_levels(u_prev=u_prev, u_curr=u_curr)
    lam2 = np.ascontiguousarray(lam2, dtype=np.float64)
    if lam2.ndim != 1:
        raise ValueError(f"lam2 must be a 1-D array, got shape {lam2.shape}")
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
    with np.errstate(over="ignore", invalid="ignore"):
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


def snapshot_norms(u_prev, u_curr, u_next, v_prev, v_curr, h, dt):
    """One snapshot's antiderivative and squared trapezoid norms.

    Returns ``v_next``, the cumulative trapezoid of ``u_next``, and the six
    norms ``trapz_sq(f, h)`` for ``f`` = ``u_curr``, ``D u_curr``,
    ``D v_curr``, ``D v_curr - u_curr``, ``u_t`` and ``v_t``, where ``D`` is
    the centered difference and the time derivatives are centered across
    the three levels. The inputs are never written.
    """
    u_prev, u_curr, u_next, v_prev, v_curr = checked_levels(
        u_prev=u_prev, u_curr=u_curr, u_next=u_next, v_prev=v_prev, v_curr=v_curr
    )
    with np.errstate(over="ignore", invalid="ignore"):
        v_next = cumtrapz(u_next, h)
        dv = centered_diff(v_curr, h)
        fields = (
            u_curr,
            centered_diff(u_curr, h),
            dv,
            dv - u_curr,
            (u_next - u_prev) / (2.0 * dt),
            (v_next - v_prev) / (2.0 * dt),
        )
        return v_next, [trapz_sq(f, h) for f in fields]
