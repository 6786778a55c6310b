import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import math
from functools import lru_cache

import numpy as np
import pytest

from wavebound import kernels, solver
from wavebound.coefficients import CHUNK_LENGTH, MAX_CHUNKS, MAX_DEPTH, QUAD_TOL, CoefficientProfile
from wavebound.config import ExperimentConfig
from wavebound.initial_data import bump, bump_prime
from wavebound.oracles import _panel_integrals

REPO = Path(__file__).resolve().parent.parent
# the files setup.py builds the compiled kernel from
BUILD_SOURCES = (REPO / "src" / "wavebound" / "kernels" / "stencil.c", REPO / "setup.py")


@pytest.fixture(scope="session")
def run_cache():
    """Session cache of diagnostic series keyed by config fields.

    A returned series is not appended to again, so sharing across tests is
    safe and keeps the suite fast.
    """
    cache = {}

    def get(**kwargs):
        key = tuple(sorted(kwargs.items()))
        if key not in cache:
            cache[key] = solver.run(ExperimentConfig(**kwargs))
        return cache[key]

    return get


def formula_profile(name, a, a_prime):
    """A test profile from numpy formulas for a and a', with no tail bound."""
    return CoefficientProfile(
        name=name,
        a=lambda t: a(np.asarray(t, dtype=float)),
        a_prime=lambda t: a_prime(np.asarray(t, dtype=float)),
        tv_tail_hint=lambda T: math.inf,
    )


def depth_first_variation(profile, T):
    """The variation quadrature as a depth-first scalar loop: (total, converged).

    An oracle for ``coefficients.total_variation``: the same chunks, the same
    adaptive Simpson stop rule and summation order, one scalar a' call per
    sample. A converged finite total must equal the library's bit for bit,
    and any other total the estimate its ``AccuracyError`` carries.
    """

    def f(s):
        return abs(float(profile.a_prime(s)))

    n = min(max(1, math.ceil(T / CHUNK_LENGTH)), MAX_CHUNKS)
    edges = [T * k / n for k in range(n + 1)]
    total = 0.0
    converged = True
    for lo, hi in zip(edges[:-1], edges[1:]):
        fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
        subtotal = 0.0
        # the right half is pushed last, so it is summed first
        stack = [(lo, hi, fa, fm, fb, (hi - lo) / 6.0 * (fa + 4.0 * fm + fb), QUAD_TOL / n, 0)]
        while stack:
            a0, b0, fa0, fm0, fb0, s0, tol0, depth = stack.pop()
            m0 = 0.5 * (a0 + b0)
            flm, frm = f(0.5 * (a0 + m0)), f(0.5 * (m0 + b0))
            s_left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
            s_right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
            delta = s_left + s_right - s0
            done = abs(delta) <= 15.0 * tol0 or (b0 - a0) <= 1e-15 * (abs(a0) + abs(b0) + 1.0)
            if done or depth >= MAX_DEPTH or not math.isfinite(delta):
                subtotal += s_left + s_right + delta / 15.0
                converged = converged and done
            else:
                stack.append((a0, m0, fa0, flm, fm0, s_left, 0.5 * tol0, depth + 1))
                stack.append((m0, b0, fm0, frm, fb0, s_right, 0.5 * tol0, depth + 1))
        total += subtotal
    return total, converged


@lru_cache(maxsize=1)
def bump_constants() -> dict:
    """Quadrature values for the standard bump: mass, squared norms."""

    def integral(f):
        return float(np.sum(_panel_integrals(f, -1.0, 1.0, tol=1e-13)[1]))

    return {
        "integral": integral(bump),
        "l2_sq": integral(lambda y: bump(y) ** 2),
        "prime_l2_sq": integral(lambda y: bump_prime(y) ** 2),
    }


def read_archive(path):
    """The records of a snapshot archive, each the float64 array [t, u...]."""
    records = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            records.append(np.load(fh))
    return records


def copy_package(root):
    """Copy the imported ``wavebound`` package into ``root``, without its library."""
    package = Path(kernels.__file__).resolve().parent.parent
    shutil.copytree(package, root / "wavebound", ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return root


def c_compiler():
    """The C compiler setup.py would use, or skip the test when there is none."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc!r} not found), so the compiled kernel cannot be built")
    return cc


def fresh_library(directory, sources=BUILD_SOURCES):
    """The compiled kernel library in ``directory`` if it was built from ``sources``.

    That is, when it is newer than every source and loads with both kernel
    functions; otherwise None. A library built from an older ``stencil.c``
    may still load with both functions, so loading alone cannot tell.
    """
    path = kernels.library_path(directory)
    if path is None:
        return None
    built = path.stat().st_mtime_ns
    if any(source.stat().st_mtime_ns >= built for source in sources):
        return None
    try:
        kernels.load(path)
    except (OSError, AttributeError):
        return None
    return path


@pytest.fixture(scope="session")
def numpy_root(tmp_path_factory):
    """A directory holding a ``wavebound`` package with no compiled kernel."""
    return copy_package(tmp_path_factory.mktemp("numpy"))


@pytest.fixture(scope="session")
def compiled_root(tmp_path_factory):
    """A directory holding a ``wavebound`` package whose compiled kernel is built.

    That is the imported package's own directory when its library is built
    in place from the current sources (see ``fresh_library``). Otherwise the
    package is copied into a temporary directory and ``setup.py build_ext``
    builds the library into the copy, with the flags setup.py gives it.
    """
    package = Path(kernels.__file__).resolve().parent.parent
    if fresh_library(package / "kernels") is not None:
        return package.parent
    c_compiler()
    root = copy_package(tmp_path_factory.mktemp("compiled"))
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(root), "--build-temp", str(root / "build")],
        cwd=REPO, check=True, capture_output=True, timeout=300,
    )
    return root


@pytest.fixture(scope="session")
def compiled_backend(compiled_root):
    """The compiled backend, loaded as the package loads it."""
    path = kernels.library_path(compiled_root / "wavebound" / "kernels")
    assert path is not None, "setup.py build_ext built no compiled kernel with a C compiler present"
    return kernels.load(path)


@pytest.fixture(scope="session")
def compiled_steps(compiled_backend):
    """The compiled backend's ``advance_steps``."""
    return compiled_backend.advance_steps
