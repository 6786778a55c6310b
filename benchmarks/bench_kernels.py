"""Benchmark the compiled kernels against the numpy fallback.

Runs the same multi-step advance through both backends, then one call of
the ``refine`` benchmark workload's finest level (``const:1`` ``bump``,
``t_end`` 3, 32001 nodes, the call ``solver.evolve_final`` makes), then the
snapshot pass (each level's step, the antiderivatives and six squared
trapezoid norms): one level per call on an 8001-node snapshot, as a run
whose snapshots are apart calls it, and every level of the ``dense``
benchmark workload's run in the one call ``solver.run`` makes (``example1``
``derivative-velocity``, ``t_end`` 50, 8001 nodes, one snapshot per step).
It checks that the results are bit-identical and reports throughput,
milliseconds per refine call and microseconds per snapshot. Build the
compiled kernel first (``python setup.py build_ext --inplace``), then
invoke directly:

    python benchmarks/bench_kernels.py [n_points] [n_steps]
"""

import sys
import time
from pathlib import Path

import numpy as np

from wavebound import kernels, solver
from wavebound.config import ExperimentConfig
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

# the refine workload's finest level
REFINE_CONFIG = ExperimentConfig(profile="const:1", data="bump", t_end=3.0, n_points=32001)

# the dense workload's run: one snapshot per step
DENSE_CONFIG = ExperimentConfig(
    profile="example1", data="derivative-velocity", t_end=50.0, n_points=8001, snapshots=100000
)


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


def refine_problem():
    """The arguments of the one kernel call ``evolve_final`` makes for REFINE_CONFIG."""
    profile, _, grid, u0, u1, lam2 = solver._resolve(REFINE_CONFIG)
    return u0, solver.first_step(u0, u1, profile.a0, grid), lam2[1 : grid.n_steps]


def snapshot_problem(n_points):
    """The snapshot pass's arguments for one level: two consecutive levels of a
    stepped bump, h, dt and the squared Courant factor of its step."""
    u, lam2 = make_problem(n_points, 3)
    h, dt = 400.0 / (n_points - 1), 0.9 * 400.0 / (n_points - 1)
    u_prev, u_curr = reference.advance_steps(u, u, lam2[:2])
    return u_prev, u_curr, h, dt, lam2[2:]


def dense_problem():
    """The arguments of the one snapshot pass ``solver.run`` makes for DENSE_CONFIG.

    Its snapshot levels are 1..n_steps, all consecutive.
    """
    profile, _, grid, u0, u1, lam2 = solver._resolve(DENSE_CONFIG)
    return u0, solver.first_step(u0, u1, profile.a0, grid), grid.h, grid.dt, lam2[1:]


def time_calls(fn, args, calls, repeats=5):
    """Best-of-``repeats`` mean seconds per call over ``calls`` calls, and the last result."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            result = fn(*args)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best, result


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def same_snapshots(a, b):
    """Whether two snapshot passes returned the same bits."""
    return (
        a.finite is b.finite
        and np.array_equal(a.extents, b.extents)
        and same_bits(a.norms, b.norms)
        and all(same_bits(x, y) for x, y in zip(a[3:], b[3:]))
    )


def main():
    n_points = int(sys.argv[1]) if len(sys.argv) > 1 else 20001
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    u, lam2 = make_problem(n_points, n_steps)
    node_steps = n_points * n_steps
    refine = refine_problem()
    refine_nodes = f"{REFINE_CONFIG.n_points} nodes x {refine[2].size} steps"
    snapshot = snapshot_problem(SNAPSHOT_POINTS)
    dense = dense_problem()
    levels = dense[-1].size
    dense_levels = f"{DENSE_CONFIG.n_points} nodes, {levels} levels in one call"
    one_level = f"{SNAPSHOT_POINTS} nodes, one level per call"

    t_py, out_py = time_backend(reference.advance_steps, u, lam2)
    print(f"python   backend: {t_py:8.4f} s   {node_steps / t_py / 1e6:8.1f} M node-steps/s")
    r_py, refine_py = time_calls(reference.advance_steps, refine, calls=1, repeats=1)
    print(f"python   refine level: {r_py * 1e3:8.1f} ms per call ({refine_nodes})")
    s_py, snap_py = time_calls(reference.snapshot_pass, snapshot, calls=200)
    print(f"python   snapshot pass: {s_py * 1e6:8.1f} us per snapshot ({one_level})")
    d_py, dense_py = time_calls(reference.snapshot_pass, dense, calls=1, repeats=1)
    print(f"python   dense run: {d_py / levels * 1e6:8.1f} us per snapshot ({dense_levels})")

    if _stencil is None:
        print(f"compiled backend: not built (run `{kernels.BUILD_COMMAND}` to compare)")
        return

    t_c, out_c = time_backend(_stencil.advance_steps, u, lam2)
    print(f"compiled backend: {t_c:8.4f} s   {node_steps / t_c / 1e6:8.1f} M node-steps/s")
    print(f"speedup: {t_py / t_c:.2f}x")
    r_c, refine_c = time_calls(_stencil.advance_steps, refine, calls=1, repeats=3)
    print(f"compiled refine level: {r_c * 1e3:8.1f} ms per call ({refine_nodes})")
    print(f"refine speedup: {r_py / r_c:.2f}x")
    s_c, snap_c = time_calls(_stencil.snapshot_pass, snapshot, calls=200)
    print(f"compiled snapshot pass: {s_c * 1e6:8.1f} us per snapshot ({one_level})")
    print(f"snapshot speedup: {s_py / s_c:.2f}x")
    d_c, dense_c = time_calls(_stencil.snapshot_pass, dense, calls=1, repeats=3)
    print(f"compiled dense run: {d_c / levels * 1e6:8.1f} us per snapshot ({dense_levels})")
    print(f"dense run speedup: {d_py / d_c:.2f}x")
    identical = (
        np.array_equal(out_py, out_c)
        and all(same_bits(w, g) for w, g in zip(refine_py, refine_c))
        and same_snapshots(snap_py, snap_c)
        and same_snapshots(dense_py, dense_c)
    )
    print(f"bit-identical results: {identical}")
    if not identical:
        raise SystemExit("backend mismatch")


if __name__ == "__main__":
    main()
