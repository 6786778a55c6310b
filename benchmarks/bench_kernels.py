"""Benchmark the compiled kernels against the numpy fallback.

Runs the same multi-step advance through both backends, then the same
snapshot pass (antiderivative and six squared trapezoid norms) on an 8001-node
snapshot, checks that the results are bit-identical, and reports
throughput and microseconds per snapshot. Build the compiled kernel first
(``python setup.py build_ext --inplace``), then invoke directly:

    python benchmarks/bench_kernels.py [n_points] [n_steps]
"""

import sys
import time
from pathlib import Path

import numpy as np

from wavebound import kernels
from wavebound.grids import cumtrapz
from wavebound.initial_data import bump
from wavebound.kernels import reference

# the compiled backend the package loaded, or None if it runs on numpy
_stencil = (
    kernels.load(kernels.library_path(Path(kernels.__file__).parent))
    if kernels.BACKEND == "compiled"
    else None
)

# nodes of the snapshot pass problem: the dense workload's grid size
SNAPSHOT_POINTS = 8001


def make_problem(n_points, n_steps):
    x = np.linspace(-200.0, 200.0, n_points)
    u = np.asarray(bump(x / 50.0), dtype=float)
    lam2 = 0.5 + 0.3 * np.sin(np.linspace(0.0, 4.0, n_steps)) ** 2
    return u, lam2


def time_backend(advance, u, lam2, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        prev, curr = u.copy(), u.copy()
        t0 = time.perf_counter()
        prev, curr = advance(prev, curr, lam2)
        best = min(best, time.perf_counter() - t0)
        result = curr
    return best, result


def snapshot_problem(n_points):
    """Three consecutive levels of a stepped bump and the first two antiderivatives."""
    u, lam2 = make_problem(n_points, 3)
    h, dt = 400.0 / (n_points - 1), 0.9 * 400.0 / (n_points - 1)
    u_prev, u_curr = reference.advance_steps(u, u, lam2[:2])
    _, u_next = reference.advance_steps(u_prev, u_curr, lam2[2:])
    v_prev, v_curr = cumtrapz(u_prev, h), cumtrapz(u_curr, h)
    return (u_prev, u_curr, u_next, v_prev, v_curr, h, dt)


def time_snapshot(snapshot_norms, args, repeats=200):
    """Best-of-five mean seconds per call over ``repeats`` calls, and the last result."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            result = snapshot_norms(*args)
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best, result


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def main():
    n_points = int(sys.argv[1]) if len(sys.argv) > 1 else 20001
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    u, lam2 = make_problem(n_points, n_steps)
    node_steps = n_points * n_steps
    snapshot = snapshot_problem(SNAPSHOT_POINTS)

    t_py, out_py = time_backend(reference.advance_steps, u, lam2)
    print(f"python   backend: {t_py:8.4f} s   {node_steps / t_py / 1e6:8.1f} M node-steps/s")
    s_py, norms_py = time_snapshot(reference.snapshot_norms, snapshot)
    print(f"python   snapshot pass: {s_py * 1e6:8.1f} us per snapshot ({SNAPSHOT_POINTS} nodes)")

    if _stencil is None:
        print(f"compiled backend: not built (run `{kernels.BUILD_COMMAND}` to compare)")
        return

    t_c, out_c = time_backend(_stencil.advance_steps, u, lam2)
    print(f"compiled backend: {t_c:8.4f} s   {node_steps / t_c / 1e6:8.1f} M node-steps/s")
    print(f"speedup: {t_py / t_c:.2f}x")
    s_c, norms_c = time_snapshot(_stencil.snapshot_norms, snapshot)
    print(f"compiled snapshot pass: {s_c * 1e6:8.1f} us per snapshot ({SNAPSHOT_POINTS} nodes)")
    print(f"snapshot speedup: {s_py / s_c:.2f}x")
    identical = (
        np.array_equal(out_py, out_c)
        and same_bits(norms_py[0], norms_c[0])
        and same_bits(norms_py[1], norms_c[1])
    )
    print(f"bit-identical results: {identical}")
    if not identical:
        raise SystemExit("backend mismatch")


if __name__ == "__main__":
    main()
