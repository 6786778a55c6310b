import numpy as np
import pytest

from wavebound.initial_data import bump
from wavebound.kernels import BACKEND, advance_steps
from wavebound.kernels import reference

try:
    from wavebound.kernels import _stencil

    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False


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
    u = np.zeros(51)
    left = np.array([1.5, 2.5])
    right = np.array([-1.0, -2.0])
    _, curr = advance_steps(u.copy(), u.copy(), np.array([0.5, 0.5]), left, right)
    assert curr[0] == 2.5 and curr[-1] == -2.0


def test_one_cell_per_step_propagation():
    u, x = bump_field(n=801, half_width=4.0)
    h = x[1] - x[0]
    steps = 25
    _, curr = advance_steps(u.copy(), u.copy(), np.full(steps, 0.81))
    outside = np.abs(x) > 1.0 + steps * h + 0.5 * h
    assert np.all(curr[outside] == 0.0)


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")
def test_backends_are_bit_identical():
    u, _ = bump_field(n=2001, half_width=6.0)
    prev = u.copy()
    lam2 = 0.5 + 0.3 * np.sin(np.linspace(0.0, 3.0, 400)) ** 2
    a_ref, b_ref = reference.advance_steps(prev.copy(), u.copy(), lam2)
    a_c, b_c = _stencil.advance_steps(prev.copy(), u.copy(), lam2, None, None)
    assert np.array_equal(b_ref, b_c)
    assert np.array_equal(a_ref, a_c)


def test_backend_name_is_reported():
    assert BACKEND in ("compiled", "python")


def plain_expression_steps(u_prev, u_curr, lam2, left=None, right=None):
    """The stencil as one numpy expression per step, fresh temporaries."""
    a, b = u_prev.copy(), u_curr.copy()
    for s, lam in enumerate(lam2):
        c = np.empty_like(b)
        c[1:-1] = 2.0 * b[1:-1] - a[1:-1] + lam * (b[2:] - 2.0 * b[1:-1] + b[:-2])
        c[0] = 0.0 if left is None else left[s]
        c[-1] = 0.0 if right is None else right[s]
        a, b = b, c
    return a, b


@pytest.mark.parametrize("with_edges", [False, True])
def test_scratch_buffers_are_bit_identical_to_the_plain_expression(with_edges):
    u, _ = bump_field(n=2001, half_width=6.0)
    prev = 0.97 * u
    lam2 = 0.5 + 0.3 * np.sin(np.linspace(0.0, 3.0, 400)) ** 2
    edges = (np.linspace(0.0, 1e-3, 400), np.linspace(0.0, -2e-3, 400)) if with_edges else ()
    a_ref, b_ref = plain_expression_steps(prev, u, lam2, *edges)
    a_new, b_new = reference.advance_steps(prev.copy(), u.copy(), lam2, *edges)
    assert np.array_equal(a_ref, a_new)
    assert np.array_equal(b_ref, b_new)
