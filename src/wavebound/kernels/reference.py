"""Pure numpy implementation of the stencil update and the snapshot pass.

This is the fallback backend used when the compiled kernel is not built.
The arithmetic is written to match the compiled kernel operation for
operation, so the two backends produce bit-identical results. Both take
their arguments through :func:`checked_arrays` and :func:`checked_snapshot`,
and, like the compiled kernel, neither warns on overflow: callers check.
"""

from typing import NamedTuple

import numpy as np

from wavebound.grids import cumtrapz, nonzero_extent, snapshot_norms


class Snapshots(NamedTuple):
    """What one snapshot pass over k consecutive levels returns.

    The pass takes m <= k levels: all k, or fewer when a step is not finite.
    """

    # m x 6: per level, trapz_sq of u_curr, D u_curr, D v_curr,
    # D v_curr - u_curr, u_t and v_t
    norms: np.ndarray
    # m x 2: per level, the first and last node where u_curr != 0.0 (NaN
    # counts, -0.0 does not), or (n, -1) when there is none
    extents: np.ndarray
    # whether the last step taken is finite; a non-finite value persists,
    # so this covers every level after it
    finite: bool
    # the last two levels and their antiderivatives, to continue from
    u_prev: np.ndarray
    u_curr: np.ndarray
    v_prev: np.ndarray
    v_curr: np.ndarray


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


def checked_lam2(lam2):
    """The squared Courant factors as a contiguous 1-D float64 array, or ValueError.

    They must be finite: the kernels step only the live band, which is exact
    because ``lam * 0.0`` is zero, and ``inf * 0.0`` is NaN.
    """
    lam2 = np.ascontiguousarray(lam2, dtype=np.float64)
    if lam2.ndim != 1:
        raise ValueError(f"lam2 must be a 1-D array, got shape {lam2.shape}")
    finite = np.isfinite(lam2)
    if not finite.all():
        raise ValueError(f"lam2 must be finite, got {lam2[~finite][0]}")
    return lam2


def checked_arrays(u_prev, u_curr, lam2, right):
    """The stepping arguments as contiguous float64 arrays, or ValueError."""
    u_prev, u_curr = checked_levels(u_prev=u_prev, u_curr=u_curr)
    lam2 = checked_lam2(lam2)
    if right is not None:
        right = np.ascontiguousarray(right, dtype=np.float64)
        if right.ndim != 1 or right.size < lam2.size:
            raise ValueError(
                f"right must be 1-D with at least {lam2.size} values, got shape {right.shape}"
            )
    return u_prev, u_curr, lam2, right


def checked_snapshot(u_prev, u_curr, v_prev, v_curr, lam2):
    """The snapshot pass's levels and its steps' factors as float64 arrays, or ValueError.

    ``lam2`` holds the squared Courant factor of each level's step, at least one.
    """
    lam2 = checked_lam2(lam2)
    if lam2.size == 0:
        raise ValueError("the snapshot pass takes at least one lam2, got 0")
    levels = checked_levels(u_prev=u_prev, u_curr=u_curr, v_prev=v_prev, v_curr=v_curr)
    return (*levels, lam2)


def _live_band(u_prev, u_curr, right):
    """[lo, hi]: the nodes where either level has a nonzero bit pattern.

    With ``right`` given the right edge counts as live. With nothing live it
    is (n, -1), an empty band.
    """
    lo, hi = nonzero_extent((u_prev.view(np.uint64) | u_curr.view(np.uint64)) != 0)
    if right is not None:
        hi = u_curr.size - 1
        lo = min(lo, hi)
    return lo, hi


def _step(c, a, b, lam, lap, lo, end):
    """Write the step at the interior nodes [lo, end) of ``c``; ``lap`` is scratch.

    ``2 b - a + lam (b[j+1] - 2 b + b[j-1])`` in that order, as the compiled
    kernel computes it.
    """
    if end <= lo:
        return
    inner, lap = c[lo:end], lap[: end - lo]
    np.multiply(2.0, b[lo:end], out=lap)
    np.subtract(lap, a[lo:end], out=inner)
    np.multiply(2.0, b[lo:end], out=lap)
    np.subtract(b[lo + 1 : end + 1], lap, out=lap)
    np.add(lap, b[lo - 1 : end - 1], out=lap)
    np.multiply(lam, lap, out=lap)
    np.add(inner, lap, out=inner)


def advance_steps(u_prev, u_curr, lam2, right=None):
    """Advance the recurrence len(lam2) steps.

    lam2[s] is the squared Courant factor (a(t) dt / h)^2 frozen at the time
    level consumed by step s; every factor must be finite. ``right``
    optionally prescribes the right boundary value of each new level; the
    left one is zero, as is the right one by default. The inputs are never
    written: the returned pair is the final (previous, current), in arrays
    this call allocates.

    Like the compiled kernel, the levels cycle through a ring of three
    arrays that starts as copies of the inputs, and step s updates only the
    band ``[lo - (s + 1), hi + (s + 1)]`` around the nodes ``[lo, hi]``
    where the inputs have a nonzero bit pattern. Outside it the full sweep
    would write +0.0 over +0.0, so the result is the full sweep's bit for
    bit. The scratch array of :func:`_step` is allocated once per call
    instead of fresh temporaries per step.
    """
    u_prev, u_curr, lam2, right = checked_arrays(u_prev, u_curr, lam2, right)
    n = u_curr.size
    ring = (u_prev.copy(), u_curr.copy(), np.empty_like(u_curr))
    lap = np.empty(n - 2)
    lo, hi = _live_band(u_prev, u_curr, right)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(lam2.size):
            a, b, c = ring[s % 3], ring[(s + 1) % 3], ring[(s + 2) % 3]
            if lo <= hi:
                lo, hi = lo - 1, hi + 1
            j0, end = max(lo, 1), min(hi + 1, n - 1)
            if s == 0:
                # the new array holds the full sweep's +0.0 outside the first band
                c[1:j0] = 0.0
                c[max(end, j0) : -1] = 0.0
            _step(c, a, b, lam2[s], lap, j0, end)
            c[0] = 0.0
            c[-1] = 0.0 if right is None else right[s]
    k = lam2.size % 3
    return ring[k], ring[(k + 1) % 3]


def _snapshot_level(u_prev, u_curr, v_prev, v_curr, h, dt, lam):
    """One snapshot level: the full-width step, its antiderivative, norms, finiteness and extent."""
    n = u_curr.size
    u_next = np.zeros_like(u_curr)
    with np.errstate(over="ignore", invalid="ignore"):
        _step(u_next, u_prev, u_curr, lam, np.empty(n - 2), 1, n - 1)
        v_next = cumtrapz(u_next, h)
        u_t = (u_next - u_prev) / (2.0 * dt)
        v_t = (v_next - v_prev) / (2.0 * dt)
    norms = snapshot_norms(u_curr, v_curr, u_t, v_t, h)
    finite = bool(np.all(np.isfinite(u_next)))
    return u_next, v_next, norms, finite, nonzero_extent(u_curr != 0.0)


def snapshot_pass(u_prev, u_curr, v_prev, v_curr, h, dt, lam2):
    """k consecutive snapshot levels' steps, antiderivatives and squared trapezoid norms.

    ``lam2`` holds k finite squared Courant factors. Of the levels
    ``(u_prev, u_curr, next_0, next_1, ...)``, level i takes the full-width
    step from the i-th and (i+1)-th to ``next_i`` at ``lam2[i]``, with zero
    edges, and integrates it by cumulative trapezoid. Its snapshot is the
    (i+1)-th level: the six norms of ``grids.snapshot_norms`` of it and its
    antiderivative, with the time derivatives centered across the three
    levels, and the extent of its nonzero values. The pass stops after the
    first level whose step is not finite. Returns :class:`Snapshots`; the
    inputs are never written.
    """
    u_prev, u_curr, v_prev, v_curr, lam2 = checked_snapshot(u_prev, u_curr, v_prev, v_curr, lam2)
    norms, extents = [], []
    for lam in lam2:
        u_next, v_next, level_norms, finite, extent = _snapshot_level(
            u_prev, u_curr, v_prev, v_curr, h, dt, lam
        )
        norms.append(level_norms)
        extents.append(extent)
        u_prev, u_curr, v_prev, v_curr = u_curr, u_next, v_curr, v_next
        if not finite:
            break
    return Snapshots(
        np.array(norms), np.array(extents, dtype=np.intp), finite, u_prev, u_curr, v_prev, v_curr
    )
