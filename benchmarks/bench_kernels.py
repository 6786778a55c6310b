"""Benchmark the compiled kernels against the numpy fallback.

Runs the same multi-step advance through both backends, then the three
kernel calls of the ``refine`` benchmark workload (``const:1`` ``bump``,
``t_end`` 3, 8001, 16001 and 32001 nodes, one call per level as
``solver.evolve_final`` makes it), then the snapshot pass (each level's
step, the antiderivatives and six squared trapezoid norms): one level per
call on an 8001-node snapshot, as a run whose snapshots are apart calls
it, and every level of the ``dense``
benchmark workload's run in the one call ``solver.run`` makes (``example1``
``derivative-velocity``, ``t_end`` 50, 8001 nodes, one snapshot per step).
It checks that the results are bit-identical and reports throughput,
milliseconds per refine call and microseconds per snapshot. The header says
whether the CPU lists ``avx512f``, which selects the compiled step's 512-bit
copy at load time, or "unknown" where /proc/cpuinfo is absent. Build the
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

# the refine workload's levels
REFINE_CONFIGS = [
    ExperimentConfig(profile="const:1", data="bump", t_end=3.0, n_points=n)
    for n in (8001, 16001, 32001)
]

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


def cpu_flag(flag):
    """"yes" or "no" as /proc/cpuinfo lists ``flag``, or "unknown" without that file."""
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return "unknown"
    flags = (line.partition(":")[2].split() for line in text.splitlines()
             if line.startswith("flags"))
    return "yes" if any(flag in line for line in flags) else "no"


def refine_problem(config):
    """The arguments of the one kernel call ``evolve_final`` makes for ``config``."""
    profile, _, grid, u0, u1, lam2 = solver._resolve(config)
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
    refines = [refine_problem(config) for config in REFINE_CONFIGS]
    refine_sizes = [f"{args[0].size} nodes x {args[2].size} steps" for args in refines]
    snapshot = snapshot_problem(SNAPSHOT_POINTS)
    dense = dense_problem()
    levels = dense[-1].size
    dense_levels = f"{DENSE_CONFIG.n_points} nodes, {levels} levels in one call"
    one_level = f"{SNAPSHOT_POINTS} nodes, one level per call"

    print(f"cpu lists avx512f: {cpu_flag('avx512f')} (on x86-64, yes selects the compiled step's 512-bit copy)")
    t_py, out_py = time_backend(reference.advance_steps, u, lam2)
    print(f"python   backend: {t_py:8.4f} s   {node_steps / t_py / 1e6:8.1f} M node-steps/s")
    refine_py = []
    for args, size in zip(refines, refine_sizes):
        r_py, out = time_calls(reference.advance_steps, args, calls=1, repeats=1)
        refine_py.append((r_py, out))
        print(f"python   refine level: {r_py * 1e3:8.1f} ms per call ({size})")
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
    refine_same = True
    for args, size, (r_py, want) in zip(refines, refine_sizes, refine_py):
        r_c, got = time_calls(_stencil.advance_steps, args, calls=1, repeats=3)
        print(f"compiled refine level: {r_c * 1e3:8.1f} ms per call ({size}),"
              f" speedup {r_py / r_c:.2f}x")
        refine_same &= all(same_bits(w, g) for w, g in zip(want, got))
    s_c, snap_c = time_calls(_stencil.snapshot_pass, snapshot, calls=200)
    print(f"compiled snapshot pass: {s_c * 1e6:8.1f} us per snapshot ({one_level})")
    print(f"snapshot speedup: {s_py / s_c:.2f}x")
    d_c, dense_c = time_calls(_stencil.snapshot_pass, dense, calls=1, repeats=3)
    print(f"compiled dense run: {d_c / levels * 1e6:8.1f} us per snapshot ({dense_levels})")
    print(f"dense run speedup: {d_py / d_c:.2f}x")
    identical = (
        np.array_equal(out_py, out_c)
        and refine_same
        and same_snapshots(snap_py, snap_c)
        and same_snapshots(dense_py, dense_c)
    )
    print(f"bit-identical results: {identical}")
    if not identical:
        raise SystemExit("backend mismatch")


if __name__ == "__main__":
    main()
