"""Independent ground-truth generators.

Nothing here touches the time stepper: closed-form traveling-wave solutions
for constant speed, composite Gauss-Legendre quadrature for the velocity
antiderivative and its exact moment, the bound constant by refined
trapezoid, log-log order estimation, and the exact growth slope of the
squared norm for constant speed, ``M^2 / (2 c)`` from the velocity moment
``M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from wavebound.errors import AccuracyError, OracleError
from wavebound.initial_data import InitialData

# composite Gauss-Legendre rule: equal panels over the support, each panel
# integrated at two orders whose difference is the panel's error estimate
PANELS = 4096
GAUSS_ORDER = 12
CHECK_ORDER = 8
# bisection rounds for panels whose two orders disagree, and the panel cap
MAX_SPLITS = 20
MAX_PANELS = 64 * PANELS
# most points handed to a sampler in one call; bounds the temporaries
BLOCK_POINTS = 8192
# tolerance of the velocity antiderivative table, relative to max(1, ∫|u1|)
V1_TOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    value: float
    error_estimate: float
    method: str


# ---------------------------------------------------------------------------
# composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _legendre(order: int):
    # numpy.polynomial is imported here, not at module load: the CLI never
    # needs it unless an oracle integrates numerically
    from numpy.polynomial.legendre import leggauss

    return leggauss(order)


def _gauss(f, lo, hi, order=GAUSS_ORDER):
    """Gauss-Legendre rule of ``order`` on each interval ``[lo[i], hi[i]]``.

    ``f`` is sampled at most ``BLOCK_POINTS`` points per call.
    """
    nodes, weights = _legendre(order)
    out = np.empty(lo.size)
    per = BLOCK_POINTS // order
    for start in range(0, lo.size, per):
        a = lo[start : start + per]
        b = hi[start : start + per]
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * nodes
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        out[start : start + per] = half * (fx @ weights)
    return out


def _panel_integrals(f, lo: float, hi: float, tol: float):
    """Panel edges over ``[lo, hi]``, the integral of ``f`` on each panel, and the tolerance met.

    Starts from ``PANELS`` equal panels and bisects every panel whose two
    Gauss orders differ by more than its share (its width over ``hi - lo``)
    of ``tol`` times max(1, the first pass's sum of |panel integrals|), so
    that roundoff in large values is not taken for an error. Raises
    :class:`AccuracyError`, with the achieved total attached, when a value is
    not finite or some panel still disagrees after ``MAX_SPLITS`` rounds or
    ``MAX_PANELS`` panels.
    """
    edges = np.linspace(lo, hi, PANELS + 1)
    for split in range(MAX_SPLITS + 1):
        a, b = edges[:-1], edges[1:]
        fine = _gauss(f, a, b)
        if not split:
            size = float(np.sum(np.abs(fine)))
            tol *= size if 1.0 < size < np.inf else 1.0
        diff = np.abs(fine - _gauss(f, a, b, CHECK_ORDER))
        bad = ~(diff <= tol * (b - a) / (hi - lo))
        if not bad.any():
            return edges, fine, tol
        if not np.isfinite(diff).all() or edges.size + np.count_nonzero(bad) > MAX_PANELS:
            break
        edges = np.sort(np.concatenate((edges, 0.5 * (a[bad] + b[bad]))))
    worst = int(np.argmax(np.where(bad, diff, -1.0)))
    raise AccuracyError(
        f"Gauss-Legendre panels on [{lo}, {hi}] did not converge to tol={tol}: "
        f"orders {CHECK_ORDER} and {GAUSS_ORDER} differ by {diff[worst]:.3g} "
        f"on [{a[worst]}, {b[worst]}]",
        achieved=float(np.sum(fine)),
    )


# ---------------------------------------------------------------------------
# closed-form traveling-wave solution for constant speed
# ---------------------------------------------------------------------------


def _v1_evaluator(data: InitialData):
    """Antiderivative of the initial velocity as a vectorized callable, and its tolerance.

    Uses the family's closed form (tolerance ``V1_TOL``) when available,
    otherwise a cumulative composite Gauss-Legendre table over the support
    plus one Gauss rule from the query point's panel edge to the point,
    evaluated in blocks of queries so that no temporary grows with the
    number of points.
    """
    if data.v1_exact is not None:
        return (lambda x: np.asarray(data.v1_exact(x), dtype=float)), V1_TOL

    L = data.support_radius
    edges, panels, tol = _panel_integrals(data.u1, -L, L, tol=V1_TOL)
    cum = np.concatenate(([0.0], np.cumsum(panels)))

    def evaluator(x):
        flat = np.ravel(np.asarray(x, dtype=float))
        out = np.empty_like(flat)
        step = BLOCK_POINTS // GAUSS_ORDER
        for start in range(0, flat.size, step):
            # clipped: 0 left of the support, the full integral right of it
            xs = np.clip(flat[start : start + step], -L, L)
            k = np.searchsorted(edges, xs, side="right") - 1
            out[start : start + step] = cum[k] + _gauss(data.u1, edges[k], xs)
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])

    return evaluator, tol


def _moment(data: InitialData):
    """The velocity moment and the tolerance of the table it is read from."""
    v1, tol = _v1_evaluator(data)
    return float(v1(data.support_radius) - v1(-data.support_radius)), tol


def moment(data: InitialData) -> float:
    """The integral of the initial velocity over the line, independent of any grid.

    It is the antiderivative's rise across the support: the family's closed
    form when it has one, the composite Gauss-Legendre table otherwise.
    """
    return _moment(data)[0]


def dalembert(data: InitialData, t: float, x, speed: float = 1.0):
    """Exact solution for constant speed: averaged traveling copies of the
    displacement plus the difference of the velocity antiderivative."""
    if speed <= 0.0:
        raise OracleError(f"speed must be positive, got {speed}")
    xs = np.asarray(x, dtype=float)
    v1, _ = _v1_evaluator(data)
    u0 = lambda y: np.asarray(data.u0(y), dtype=float)
    right = xs - speed * t
    left = xs + speed * t
    out = 0.5 * (u0(right) + u0(left)) + (v1(left) - v1(right)) / (2.0 * speed)
    return out if np.asarray(x).ndim else float(out)


# ---------------------------------------------------------------------------
# order of convergence
# ---------------------------------------------------------------------------


def convergence_order(errors_at_h) -> float:
    """Least-squares slope of log error against log h."""
    pairs = list(errors_at_h)
    if len(pairs) < 2:
        raise OracleError("need at least two (h, error) pairs")
    h = np.array([p[0] for p in pairs], dtype=float)
    err = np.array([p[1] for p in pairs], dtype=float)
    if np.any(err <= 0.0):
        raise OracleError("errors must be positive for a log-log fit")
    if np.any(np.diff(h) >= 0.0):
        raise OracleError("h values must be strictly decreasing")
    slope, _ = np.polyfit(np.log(h), np.log(err), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# bound constant
# ---------------------------------------------------------------------------


def _refined_trapz_sq(values_fn, lo, hi, n):
    x = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    s = 0.0
    for start in range(0, n, BLOCK_POINTS):
        f = values_fn(x[start : start + BLOCK_POINTS])
        s += float(np.sum(f * f))
    ends = values_fn(x[[0, -1]])
    return h * (s - 0.5 * ends[0] * ends[0] - 0.5 * ends[1] * ends[1])


def i0_squared(data: InitialData, a0: float) -> OracleResult:
    """Bound constant squared, regenerated independently of the solver grid.

    The antiderivative norm uses a dense trapezoid over the support with a
    refinement step as the error estimate; smooth compactly supported
    integrands make this converge far below the tolerances the bounds use.
    The trapezoid samples in blocks of ``BLOCK_POINTS`` nodes.
    """
    L = data.support_radius
    v1, _ = _v1_evaluator(data)
    u0_fn = lambda x: np.asarray(data.u0(x), dtype=float)

    n = 1 << 17
    v_coarse = _refined_trapz_sq(v1, -L, L, n // 2 + 1)
    v_fine = _refined_trapz_sq(v1, -L, L, n + 1)
    u_coarse = _refined_trapz_sq(u0_fn, -L, L, n // 2 + 1)
    u_fine = _refined_trapz_sq(u0_fn, -L, L, n + 1)
    value = v_fine + a0 * a0 * u_fine
    est = abs(v_fine - v_coarse) + a0 * a0 * abs(u_fine - u_coarse)
    return OracleResult(value=value, error_estimate=est, method="refined-trapezoid")


# ---------------------------------------------------------------------------
# growth slope for constant speed
# ---------------------------------------------------------------------------


def growth_slope(data: InitialData, speed: float = 1.0) -> OracleResult:
    """Exact late-time slope of the squared norm for constant speed.

    By d'Alembert the solution equals ``M / (2 c)`` on ``|x| < c t - R``,
    with ``M`` the velocity moment and ``R`` the support radius, and once
    ``c t > R`` the two edge regions travel without changing shape. So the
    squared norm is affine in t with slope ``M^2 / (2 c)``. The error
    estimate carries the moment's quadrature tolerance through that formula.
    """
    if speed <= 0.0:
        raise OracleError(f"speed must be positive, got {speed}")
    m, tol = _moment(data)
    return OracleResult(
        value=m * m / (2.0 * speed),
        error_estimate=abs(m) * tol / speed,
        method="moment-closed-form",
    )
