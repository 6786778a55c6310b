"""Adaptive composite Simpson quadrature for smooth scalar integrands.

Used for the scalar coefficient integrals (log-ratio cross-check, total
variation) and for regenerating the pinned data constants. Grid-function
integrals use the trapezoid helpers in :mod:`wavebound.grids` instead.
"""

import math

from wavebound.errors import AccuracyError

DEFAULT_TOL = 1e-10
MAX_DEPTH = 60
# longest chunk adaptive_simpson_chunked adapts over
CHUNK_LENGTH = 1.0


def _simpson(f, a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a, b, tol=DEFAULT_TOL, max_depth=MAX_DEPTH):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Raises :class:`AccuracyError` (with the achieved estimate attached) when
    some subinterval still disagrees at the maximum bisection depth.
    """
    if b == a:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol=tol, max_depth=max_depth)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(f, a, b, fa, fm, fb)
    total = 0.0
    converged = True
    # (a, b, fa, fm, fb, S(a,b), local tol, depth)
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, b0, fa0, fm0, fb0, s0, tol0, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        s_left = _simpson(f, a0, m0, fa0, flm, fm0)
        s_right = _simpson(f, m0, b0, fm0, frm, fb0)
        delta = s_left + s_right - s0
        width_floor = (b0 - a0) <= 1e-15 * (abs(a0) + abs(b0) + 1.0)
        if abs(delta) <= 15.0 * tol0 or width_floor:
            total += s_left + s_right + delta / 15.0
        elif depth >= max_depth:
            total += s_left + s_right + delta / 15.0
            converged = False
        else:
            half_tol = 0.5 * tol0
            stack.append((a0, m0, fa0, flm, fm0, s_left, half_tol, depth + 1))
            stack.append((m0, b0, fm0, frm, fb0, s_right, half_tol, depth + 1))
    if not converged:
        raise AccuracyError(
            f"adaptive quadrature on [{a}, {b}] did not converge to tol={tol}",
            achieved=total,
        )
    if not math.isfinite(total):
        raise AccuracyError(
            f"adaptive quadrature on [{a}, {b}] produced a non-finite value",
            achieved=total,
        )
    return total


def adaptive_simpson_chunked(f, a, b, tol=DEFAULT_TOL):
    """Adaptive Simpson with a pre-split into bounded-length chunks.

    The single-interval rule can alias oscillatory or kinked integrands (its
    first probes may agree by chance on a long interval). Splitting into
    chunks no longer than ``CHUNK_LENGTH`` before adapting removes that
    failure mode; the tolerance is divided across chunks.
    """
    if b < a:
        return -adaptive_simpson_chunked(f, b, a, tol=tol)
    n_chunks = min(max(1, int(math.ceil((b - a) / CHUNK_LENGTH))), 4096)
    edges = [a + (b - a) * k / n_chunks for k in range(n_chunks + 1)]
    chunk_tol = tol / n_chunks
    total = 0.0
    achieved_ok = True
    for lo, hi in zip(edges[:-1], edges[1:]):
        try:
            total += adaptive_simpson(f, lo, hi, tol=chunk_tol)
        except AccuracyError as exc:
            total += exc.achieved if exc.achieved is not None else 0.0
            achieved_ok = False
    if not achieved_ok:
        raise AccuracyError(
            f"chunked quadrature on [{a}, {b}] did not converge to tol={tol}",
            achieved=total,
        )
    return total
