import importlib.machinery
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import REPO, c_compiler, fresh_library
from wavebound import kernels, solver
from wavebound.config import ExperimentConfig
from wavebound.grids import cumtrapz
from wavebound.initial_data import bump
from wavebound.kernels import BACKEND, advance_steps
from wavebound.kernels import reference


def bump_field(n=801, half_width=4.0):
    x = np.linspace(-half_width, half_width, n)
    return np.asarray(bump(x), dtype=float), x


def test_zero_state_stays_zero():
    u = np.zeros(101)
    a, b = advance_steps(u.copy(), u.copy(), np.full(7, 0.81))
    assert np.all(a == 0.0) and np.all(b == 0.0)


def test_single_step_matches_direct_formula():
    u, _ = bump_field()
    lam = 0.64
    prev = 0.9 * u
    expect = np.empty_like(u)
    expect[1:-1] = 2.0 * u[1:-1] - prev[1:-1] + lam * (u[2:] - 2.0 * u[1:-1] + u[:-2])
    expect[0] = expect[-1] = 0.0
    _, curr = advance_steps(prev.copy(), u.copy(), np.array([lam]))
    assert np.array_equal(curr, expect)


def test_boundary_value_arrays_are_honored():
    u = np.ones(51)
    right = np.array([-1.0, -2.0])
    _, curr = advance_steps(u.copy(), u.copy(), np.array([0.5, 0.5]), right)
    assert curr[0] == 0.0 and curr[-1] == -2.0


def test_one_cell_per_step_propagation():
    u, x = bump_field(n=801, half_width=4.0)
    h = x[1] - x[0]
    steps = 25
    _, curr = advance_steps(u.copy(), u.copy(), np.full(steps, 0.81))
    outside = np.abs(x) > 1.0 + steps * h + 0.5 * h
    assert np.all(curr[outside] == 0.0)


def snapshot_field(rng, size, scale):
    """Normal draws times ``scale``, with zeros, -0.0 and subnormals mixed in."""
    x = scale * rng.standard_normal(size)
    pick = rng.random(size)
    x[pick < 0.15] = 0.0
    x[(pick >= 0.15) & (pick < 0.3)] = -0.0
    subnormal = (pick >= 0.3) & (pick < 0.4)
    x[subnormal] = rng.integers(-(2**40), 2**40, int(subnormal.sum())) * 5e-324
    return x


def bits(u):
    """The IEEE bit patterns of a float64 array: -0.0 and NaN payloads count."""
    return np.ascontiguousarray(u).view(np.uint64)


def value_bits(u):
    """The bit patterns with every NaN replaced by one NaN; -0.0 still counts.

    IEEE 754 leaves open which operand's NaN an operation returns when both
    are NaN, and the C compiler may swap the operands of a sum or product:
    both backends give NaN at the same nodes, but not always of the same sign.
    """
    u = np.asarray(u, dtype=np.float64)
    return bits(np.where(np.isnan(u), np.nan, u))


def test_backends_are_bit_identical(compiled_steps):
    u, _ = bump_field(n=2001, half_width=6.0)
    prev = u.copy()
    lam2 = 0.5 + 0.3 * np.sin(np.linspace(0.0, 3.0, 400)) ** 2
    a_ref, b_ref = reference.advance_steps(prev, u, lam2)
    a_c, b_c = compiled_steps(prev, u, lam2)
    assert np.array_equal(bits(b_ref), bits(b_c))
    assert np.array_equal(bits(a_ref), bits(a_c))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 300),
    steps=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
    lam_max=st.floats(0.0, 1.5),
    with_right=st.booleans(),
)
def test_backends_agree_bit_for_bit(compiled_steps, n, steps, seed, lam_max, with_right):
    # signed zeros and subnormals mixed in, so a differing sign of zero or a
    # subnormal flushed to zero would show; sizes up to 300 cover every
    # remainder of a loop over vectors of eight lanes
    rng = np.random.default_rng(seed)
    u_prev, u_curr = snapshot_field(rng, n, 1.0), snapshot_field(rng, n, 1.0)
    lam2 = rng.uniform(0.0, lam_max, steps)
    right = snapshot_field(rng, steps, 1.0) if with_right else None
    want = reference.advance_steps(u_prev, u_curr, lam2, right)
    got = compiled_steps(u_prev, u_curr, lam2, right)
    for w, g in zip(want, got):
        assert np.array_equal(bits(w), bits(g))


def test_backends_agree_on_the_refine_precursor(compiled_steps):
    # the refine workload's 16001-node level: the scheme's precursor runs
    # ahead of the front and leaves subnormals that never reach zero, the
    # values that are slowest to step
    config = ExperimentConfig(profile="const:1", data="bump", t_end=3.0, n_points=16001)
    profile, _, grid, u0, u1, lam2 = solver._resolve(config)
    args = (u0, solver.first_step(u0, u1, profile.a0, grid), lam2[1 : grid.n_steps])
    want = reference.advance_steps(*args)
    got = compiled_steps(*args)
    for w, g in zip(want, got):
        assert np.array_equal(bits(w), bits(g))
    final = got[1]
    subnormals = np.count_nonzero((final != 0.0) & (np.abs(final) < np.finfo(float).tiny))
    assert subnormals > 100


# lengths cross numpy's pairwise-sum boundaries at 8 and 128 terms, and 8001
# is a grid size; scales reach subnormal squares, squares that overflow and
# finite levels whose antiderivatives overflow; a step's factor may overflow
# it, the current level may have +0.0 margins or be all +0.0, both levels
# may be a band of +0.0 margins as in the cone, and a non-finite value may
# sit in the current level and the previous one
@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(3, 300), st.just(8001)),
    k=st.sampled_from([1, 2, 3, 7]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-160, 1e-3, 1.0, 1e150, 1e160, 1e307]),
    h=st.floats(1e-4, 10.0),
    dt=st.floats(1e-4, 10.0),
    lam2=st.lists(st.one_of(st.floats(-2.0, 2.0), st.just(1e300)), min_size=7, max_size=7),
    special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    current=st.sampled_from(["drawn", "margins", "zeros", "bands"]),
)
def test_snapshot_pass_agrees_bit_for_bit(
    compiled_backend, n, k, seed, scale, h, dt, lam2, special, current
):
    rng = np.random.default_rng(seed)
    u_prev, u_curr = (snapshot_field(rng, n, scale) for _ in range(2))
    lam2 = np.array(lam2[:k])

    def band(*fields):
        lo, hi = np.sort(rng.integers(0, n, 2))
        for f in fields:
            f[:lo] = 0.0
            f[hi + 1 :] = 0.0

    if current == "margins":
        band(u_curr)
    elif current == "zeros":
        u_curr[:] = 0.0
    elif current == "bands":
        band(u_prev, u_curr)
    if special is not None:
        u_curr[rng.integers(0, n)] = special
        u_prev[rng.integers(0, n)] = special
    levels = (u_prev, u_curr)
    before = [bits(f).copy() for f in levels]
    want = reference.snapshot_pass(*levels, h, dt, lam2)
    got = compiled_backend.snapshot_pass(*levels, h, dt, lam2)
    m = len(want.norms)
    assert want.norms.shape == got.norms.shape == (m, 6)
    assert np.array_equal(value_bits(want.norms), value_bits(got.norms))
    assert want.extents.shape == got.extents.shape == (m, 2)
    assert np.array_equal(want.extents, got.extents)
    assert want.finite is got.finite is bool(np.all(np.isfinite(want.u_curr)))
    for w, g in zip(want[3:], got[3:]):
        assert np.array_equal(value_bits(w), value_bits(g))
    nonzero = np.flatnonzero(u_curr != 0.0)
    extent = (nonzero[0], nonzero[-1]) if nonzero.size else (n, -1)
    assert tuple(got.extents[0]) == extent
    for f, was in zip(levels, before):
        assert np.array_equal(bits(f), was)
    # one-level calls, one per level, take the same levels, and the pass
    # stops at the first whose step is not finite; each level is the
    # one-level definition fed the cumulative trapezoids of its inputs
    chain = levels
    for i in range(m):
        one = reference.snapshot_pass(*chain, h, dt, lam2[i : i + 1])
        with np.errstate(over="ignore", invalid="ignore"):
            integrals = [cumtrapz(f, h) for f in chain]
        defined = reference._snapshot_level(*chain, *integrals, h, dt, lam2[i])
        for snaps in (want, got):
            assert np.array_equal(value_bits(defined[2]), value_bits(snaps.norms[i]))
            assert tuple(snaps.extents[i]) == defined[4]
        assert np.array_equal(value_bits(one.norms), value_bits(got.norms[i : i + 1]))
        assert np.array_equal(one.extents, got.extents[i : i + 1])
        # the pass's step is the stepping kernel's step
        _, stepped = reference.advance_steps(chain[0], chain[1], lam2[i : i + 1])
        assert np.array_equal(value_bits(one.u_curr), value_bits(stepped))
        assert one.finite is (i < m - 1 or got.finite)
        chain = one[3:]
    assert got.finite is (m == k and bool(np.all(np.isfinite(chain[1]))))
    for w, g in zip(chain, got[3:]):
        assert np.array_equal(value_bits(w), value_bits(g))


def test_reference_backend_is_silent_on_overflow():
    # as the compiled backend is: the caller reports the non-finite result
    u, _ = bump_field(n=201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 2 u overflows in the step, the squares of the fields in the snapshot pass
        big = np.full(51, 1e308)
        _, stepped = reference.advance_steps(big, big, np.full(3, 0.8))
        snap_step = reference.snapshot_pass(big, big, 0.04, 0.03, 0.8)
        # a finite step whose levels' squares overflow
        snap = reference.snapshot_pass(0.5e160 * u, 1e160 * u, 0.04, 0.03, 0.8)
        # finite input levels whose antiderivatives overflow, as does the step's
        wide = np.full(51, 0.6e308)
        snap_wide = reference.snapshot_pass(wide, wide, 1.0, 1.0, 0.5)
    assert not np.all(np.isfinite(stepped))
    assert not snap_step.finite
    assert snap.finite
    norms = snap.norms[0].tolist()
    assert norms[:4] == [np.inf] * 4 and not any(map(np.isfinite, norms))
    assert snap_wide.finite and not np.all(np.isfinite(snap_wide.norms[0]))


@pytest.fixture(params=["python", "compiled"])
def pass_backend(request):
    if request.param == "python":
        return reference.snapshot_pass
    return request.getfixturevalue("compiled_backend").snapshot_pass


def test_snapshot_pass_rejects_bad_arguments(pass_backend):
    with pytest.raises(ValueError, match="u_prev has 50 nodes but u_curr has 49"):
        pass_backend(np.zeros(50), np.zeros(49), 0.1, 0.1, 0.5)
    with pytest.raises(ValueError, match="u_curr must be a 1-D array"):
        pass_backend(np.zeros(50), np.zeros((1, 50)), 0.1, 0.1, 0.5)
    with pytest.raises(ValueError, match="at least 3 nodes"):
        pass_backend(*[np.zeros(2)] * 2, 0.1, 0.1, lam2=0.5)
    levels = [np.zeros(50)] * 2
    with pytest.raises(ValueError, match="takes at least one lam2, got 0"):
        pass_backend(*levels, 0.1, 0.1, lam2=[])
    with pytest.raises(ValueError, match="lam2 must be a 1-D array"):
        pass_backend(*levels, 0.1, 0.1, lam2=np.full((2, 1), 0.5))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="lam2 must be finite"):
            pass_backend(*levels, 0.1, 0.1, lam2=bad)


def test_a_finite_step_whose_antiderivative_overflows_is_finite(pass_backend):
    # the step stays finite, the running sum of its trapezoids overflows:
    # finiteness is the step's, not the antiderivative's
    u = np.full(50, 0.6e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snap = pass_backend(u, u, 1.0, 1.0, [0.5, 0.5])
    assert np.all(np.isfinite(snap.u_curr))
    with np.errstate(over="ignore"):
        assert not np.isfinite(cumtrapz(snap.u_curr, 1.0)[-1])
    assert snap.finite and len(snap.norms) == 2


@pytest.fixture(params=["python", "compiled"])
def backend(request):
    if request.param == "python":
        return reference.advance_steps
    return request.getfixturevalue("compiled_steps")


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 7])
def test_backends_leave_their_inputs_unchanged(backend, steps):
    u, _ = bump_field(n=201)
    prev, curr = 0.9 * u, u.copy()
    lam2 = np.full(steps, 0.7)
    right = np.linspace(0.0, -1.0, steps)
    before = [bits(x).copy() for x in (prev, curr, lam2, right)]
    out_prev, out_curr = backend(prev, curr, lam2, right)
    for x, was in zip((prev, curr, lam2, right), before):
        assert np.array_equal(bits(x), was)
    # the results are new arrays: writing them leaves the inputs alone too
    out_prev[:] = 1.0
    out_curr[:] = 2.0
    assert np.array_equal(bits(prev), before[0]) and np.array_equal(bits(curr), before[1])


def test_rejects_arrays_that_are_not_1d(backend):
    u = np.zeros((2, 50))
    with pytest.raises(ValueError, match="1-D"):
        backend(u, u, np.full(3, 0.5))
    with pytest.raises(ValueError, match="1-D"):
        backend(np.zeros(50), np.zeros(50), np.full((3, 1), 0.5))


def test_rejects_levels_of_different_lengths(backend):
    # a shorter u_prev would otherwise be read past its end
    with pytest.raises(ValueError, match="u_prev has 10 nodes but u_curr has 100000"):
        backend(np.zeros(10), np.zeros(100_000), np.full(3, 0.5))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_rejects_fewer_than_three_nodes(backend, n):
    with pytest.raises(ValueError, match="at least 3 nodes"):
        backend(np.zeros(n), np.zeros(n), np.full(3, 0.5))


# the right edge is the kernel's only edge-value argument; the left edge is zero
@pytest.mark.parametrize("side", ["right"])
def test_rejects_edge_values_shorter_than_the_steps(backend, side):
    edges = {side: np.zeros(99)}
    with pytest.raises(ValueError, match=f"{side} must be 1-D with at least 100 values"):
        backend(np.zeros(50), np.zeros(50), np.full(100, 0.5), **edges)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rejects_non_finite_courant_factors(backend, bad):
    # the band is exact only for finite factors: inf * 0.0 is NaN in a full sweep
    with pytest.raises(ValueError, match=f"lam2 must be finite, got {bad}"):
        backend(np.zeros(50), np.zeros(50), np.array([0.5, bad, 0.5]))


def test_backend_name_is_reported():
    assert BACKEND in ("compiled", "python")


def test_kernel_benchmark_runs_and_keeps_the_names_perfbench_calls(compiled_root):
    # perfbench/run.py::kernel_reference loads the script by path and calls these
    script = REPO / "benchmarks" / "bench_kernels.py"
    env = dict(os.environ, PYTHONPATH=str(compiled_root))
    run = subprocess.run(
        [sys.executable, str(script), "2001", "50"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "bit-identical results: True" in run.stdout
    probe = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_kernels", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
names = (bench.make_problem, bench.time_backend, bench.reference.advance_steps,
         bench._stencil.advance_steps)
print(all(map(callable, names)))
"""
    run = subprocess.run(
        [sys.executable, "-c", probe, str(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True"]


# a stale library from an older stencil.c: the one whose snapshot pass
# returned raw sums, the one whose snapshot function took no step, the one
# whose snapshot pass took one level, and the one whose pass took the
# levels' antiderivatives
STALE_SYMBOLS = {
    "stale": "snapshot_sums",
    "stale-norms": "snapshot_norms",
    "stale-pass": "snapshot_pass",
    "stale-levels": "snapshot_levels",
}


@pytest.mark.parametrize("library", ["missing", "unloadable", *STALE_SYMBOLS])
def test_the_numpy_kernel_runs_without_a_loadable_library(tmp_path, numpy_root, library):
    root = numpy_root
    if library != "missing":
        root = tmp_path
        shutil.copytree(numpy_root / "wavebound", root / "wavebound")
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        target = root / "wavebound" / "kernels" / (kernels.LIBRARY + suffix)
        if library == "unloadable":
            target.write_bytes(b"")
        else:
            source = tmp_path / "stale.c"
            source.write_text(f"void advance_steps(void) {{}}\nvoid {STALE_SYMBOLS[library]}(void) {{}}\n")
            subprocess.run(
                [c_compiler(), "-shared", "-fPIC", "-o", str(target), str(source)],
                check=True, capture_output=True, timeout=120,
            )
        assert kernels.library_path(root / "wavebound" / "kernels") is not None
    probe = [
        sys.executable, "-c",
        "import wavebound.kernels as k; "
        "print(k.BACKEND, k.advance_steps.__module__, k.snapshot_pass.__module__)",
    ]
    env = dict(os.environ, PYTHONPATH=str(root))
    result = subprocess.run(probe, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    reference_module = "wavebound.kernels.reference"
    assert result.stdout.split() == ["python", reference_module, reference_module]


def test_parity_tests_skip_a_library_older_than_its_sources(tmp_path, compiled_root):
    # a library built from an older stencil.c may load with both functions,
    # so the parity tests take the in-place library only when it is newer
    # than the files it is built from
    built = kernels.library_path(compiled_root / "wavebound" / "kernels")
    library = tmp_path / built.name
    shutil.copy(built, library)
    sources = (tmp_path / "stencil.c", tmp_path / "setup.py")

    def touch(path, seconds):
        os.utime(path, ns=(seconds * 10**9, seconds * 10**9))

    for source in sources:
        source.write_text("")
        touch(source, 2 * 10**9)
    touch(library, 10**9)
    assert fresh_library(tmp_path, sources) is None
    touch(library, 3 * 10**9)
    assert fresh_library(tmp_path, sources) == library
    for source in sources:
        touch(source, 4 * 10**9)
        assert fresh_library(tmp_path, sources) is None
        touch(source, 2 * 10**9)
    # newer than its sources but built without the snapshot pass
    stub_dir = tmp_path / "stub"
    stub_dir.mkdir()
    stub = tmp_path / "stub.c"
    stub.write_text("void advance_steps(void) {}\n")
    subprocess.run(
        [c_compiler(), "-shared", "-fPIC", "-o", str(stub_dir / built.name), str(stub)],
        check=True, capture_output=True, timeout=120,
    )
    touch(stub_dir / built.name, 3 * 10**9)
    assert fresh_library(stub_dir, sources) is None


def plain_expression_steps(u_prev, u_curr, lam2, right=None):
    """The stencil as one numpy expression per step, fresh temporaries."""
    a, b = u_prev.copy(), u_curr.copy()
    for s, lam in enumerate(lam2):
        c = np.empty_like(b)
        c[1:-1] = 2.0 * b[1:-1] - a[1:-1] + lam * (b[2:] - 2.0 * b[1:-1] + b[:-2])
        c[0] = 0.0
        c[-1] = 0.0 if right is None else right[s]
        a, b = b, c
    return a, b


@pytest.mark.parametrize("with_edges", [False, True])
def test_scratch_buffers_are_bit_identical_to_the_plain_expression(with_edges):
    u, _ = bump_field(n=2001, half_width=6.0)
    prev = 0.97 * u
    lam2 = 0.5 + 0.3 * np.sin(np.linspace(0.0, 3.0, 400)) ** 2
    edges = (np.linspace(0.0, -2e-3, 400),) if with_edges else ()
    a_ref, b_ref = plain_expression_steps(prev, u, lam2, *edges)
    a_new, b_new = reference.advance_steps(prev.copy(), u.copy(), lam2, *edges)
    assert np.array_equal(a_ref, a_new)
    assert np.array_equal(b_ref, b_new)


# values a band edge may hold: every one has a nonzero bit pattern
_EDGE_VALUES = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.0, np.nan, np.inf, -np.inf])


def banded_field(rng, n, edge_values, zero_share):
    """+0.0 outside a random band, given values at its ends.

    Inside, a share ``zero_share`` of the nodes is -0.0 and the rest normal
    draws. One field in eight is all +0.0.
    """
    u = np.zeros(n)
    if rng.random() < 0.125:
        return u
    lo, hi = np.sort(rng.integers(0, n, 2))
    inside = rng.standard_normal(hi + 1 - lo)
    u[lo : hi + 1] = np.where(rng.random(inside.size) < zero_share, -0.0, inside)
    u[lo], u[hi] = edge_values
    return u


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 200),
    steps=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
    lam_max=st.floats(0.0, 1.5),
    with_right=st.booleans(),
    edges=st.lists(_EDGE_VALUES, min_size=4, max_size=4),
    # a band of -0.0 alone is live by its bits, though every value is zero
    zero_share=st.sampled_from([0.2, 1.0]),
)
# -0.0 alone: a band chosen by value would leave a -0.0 where the sweep writes +0.0
@example(n=3, steps=2, seed=0, lam_max=0.0, with_right=False, edges=[-0.0] * 4, zero_share=0.2)
def test_band_stepping_matches_the_full_sweep_bit_for_bit(
    compiled_steps, n, steps, seed, lam_max, with_right, edges, zero_share
):
    # the kernels step only the live band; the full-width expression steps
    # every node, and every bit must agree, signed zeros and subnormals
    # included, with NaN at the same nodes
    rng = np.random.default_rng(seed)
    u_prev = banded_field(rng, n, edges[:2], zero_share)
    u_curr = banded_field(rng, n, edges[2:], zero_share)
    lam2 = rng.uniform(0.0, lam_max, steps)
    right = rng.standard_normal(steps) if with_right else None
    with np.errstate(over="ignore", invalid="ignore"):
        want = plain_expression_steps(u_prev, u_curr, lam2, right)
    for backend in (reference.advance_steps, compiled_steps):
        got = backend(u_prev, u_curr, lam2, right)
        for w, g in zip(want, got):
            assert np.array_equal(value_bits(w), value_bits(g))
