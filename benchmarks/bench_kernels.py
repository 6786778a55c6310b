"""Benchmark the compiled stencil kernel against the numpy fallback.

Runs the same multi-step advance through both backends, checks that the
results are bit-identical, and reports throughput. Build the compiled
kernel first (``python setup.py build_ext --inplace``), then invoke
directly:

    python benchmarks/bench_kernels.py [n_points] [n_steps]
"""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from wavebound import kernels
from wavebound.initial_data import bump
from wavebound.kernels import reference

# the compiled backend, as the package would load it, or None if not built
_library = kernels.library_path(Path(kernels.__file__).parent)
_stencil = None if _library is None else SimpleNamespace(advance_steps=kernels.load(_library))


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


def main():
    n_points = int(sys.argv[1]) if len(sys.argv) > 1 else 20001
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    u, lam2 = make_problem(n_points, n_steps)
    node_steps = n_points * n_steps

    t_py, out_py = time_backend(reference.advance_steps, u, lam2)
    print(f"python   backend: {t_py:8.4f} s   {node_steps / t_py / 1e6:8.1f} M node-steps/s")

    if _stencil is None:
        print(f"compiled backend: not built (run `{kernels.BUILD_COMMAND}` to compare)")
        return

    t_c, out_c = time_backend(_stencil.advance_steps, u, lam2)
    print(f"compiled backend: {t_c:8.4f} s   {node_steps / t_c / 1e6:8.1f} M node-steps/s")
    print(f"speedup: {t_py / t_c:.2f}x")
    identical = np.array_equal(out_py, out_c)
    print(f"bit-identical results: {identical}")
    if not identical:
        raise SystemExit("backend mismatch")


if __name__ == "__main__":
    main()
