"""BFGS maximizer on known concave objectives."""

import math

import numpy as np
import pytest

from clonedyn.optim import MAX_HALVINGS, maximize_bfgs


def quadratic(center, scales):
    center = np.asarray(center, dtype=float)
    scales = np.asarray(scales, dtype=float)

    def value_and_grad(x):
        d = x - center
        return float(-0.5 * scales @ (d * d)), -scales * d

    return value_and_grad


def test_reaches_quadratic_maximum():
    res = maximize_bfgs(quadratic([1.0, -2.0], [3.0, 40.0]), np.zeros(2), gtol=1e-10, max_iters=100)
    assert res.converged
    assert res.x == pytest.approx([1.0, -2.0], abs=1e-9)


def test_ill_conditioned_still_converges():
    res = maximize_bfgs(
        quadratic([0.3, 5.0], [1.0, 2000.0]), np.array([4.0, -3.0]), gtol=1e-9, max_iters=200
    )
    assert res.converged
    assert res.x == pytest.approx([0.3, 5.0], abs=1e-7)


def test_nonquadratic_concave():
    # -exp(x) - exp(-x) - (y - 1)^4 has its maximum at (0, 1)
    def value_and_grad(x):
        vx = -np.exp(x[0]) - np.exp(-x[0])
        gy = -4.0 * (x[1] - 1.0) ** 3
        return float(vx - (x[1] - 1.0) ** 4), np.array([-np.exp(x[0]) + np.exp(-x[0]), gy])

    res = maximize_bfgs(value_and_grad, np.array([2.0, -1.0]), gtol=1e-8, max_iters=300)
    assert abs(res.x[0]) < 1e-8
    assert abs(res.x[1] - 1.0) < 1e-2  # quartic top is flat; gradient tol binds first


def test_value_never_decreases_from_start():
    vg = quadratic([2.0, 2.0], [1.0, 1.0])
    start = np.array([10.0, -10.0])
    res = maximize_bfgs(vg, start, gtol=1e-8, max_iters=3)
    assert res.value >= vg(start)[0]


def test_nan_start_raises():
    def bad(x):
        return float("nan"), np.zeros(2)

    with pytest.raises(ValueError):
        maximize_bfgs(bad, np.zeros(2), gtol=1e-8, max_iters=10)


def test_rejects_nonfinite_regions():
    # objective is -inf left of x=0; search must stay in the finite half
    def value_and_grad(x):
        if x[0] <= 0:
            return -np.inf, np.zeros(1)
        return float(np.log(x[0]) - x[0]), np.array([1.0 / x[0] - 1.0])

    res = maximize_bfgs(value_and_grad, np.array([3.0]), gtol=1e-10, max_iters=100)
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_the_exact_inverse_hessian_reaches_a_quadratic_maximum_in_one_step():
    scales = np.array([3.0, 40.0])
    res = maximize_bfgs(
        quadratic([1.0, -2.0], scales), np.zeros(2), gtol=1e-10, max_iters=100,
        h_inv0=np.diag(1.0 / scales),
    )  # fmt: skip
    assert res.converged
    assert res.iterations == 1
    assert res.x == pytest.approx([1.0, -2.0], abs=1e-12)


def test_converges_where_rounding_hides_the_last_gains():
    # the value carries an error of a few ulps, as a long float sum does;
    # near the top a step gains less than that, and only the slopes, which
    # are exact, show the increase
    vg = quadratic([0.3, 5.0], [1.0, 2000.0])

    def value_and_grad(x):
        value, grad = vg(x)
        return 1e8 + value + 5e-8 * math.sin(1e12 * x[0]), grad

    res = maximize_bfgs(value_and_grad, np.array([4.0, -3.0]), gtol=1e-9, max_iters=200)
    assert res.converged
    assert res.x == pytest.approx([0.3, 5.0], abs=1e-7)


def counted(value_and_grad):
    """value_and_grad that also records each point it is asked for."""
    points = []

    def wrapped(x):
        points.append(x.copy())
        return value_and_grad(x)

    return wrapped, points


def test_a_start_given_with_its_value_is_not_evaluated_again():
    vg, points = counted(quadratic([1.0, -2.0], [3.0, 40.0]))
    x0 = np.zeros(2)
    res = maximize_bfgs(vg, x0, gtol=1e-10, max_iters=100, start=vg(x0))
    assert res.converged
    assert sum(np.array_equal(p, x0) for p in points) == 1


def test_restarts_with_steepest_ascent_when_h_inv0_gives_no_ascent():
    # -identity turns the gradient downhill; steepest ascent with the unit
    # step lands on the maximum of this unit-curvature quadratic at once
    vg, points = counted(quadratic([1.0, -2.0], [1.0, 1.0]))
    res = maximize_bfgs(vg, np.zeros(2), gtol=1e-10, max_iters=100, h_inv0=-np.eye(2))
    assert points[1].tolist() == [1.0, -2.0]
    assert res.converged
    assert res.iterations == 1


def test_stops_at_the_start_when_the_line_search_finds_no_finite_value():
    def value_and_grad(x):
        if np.any(x != 0.0):
            return -math.inf, np.zeros(2)
        return 0.0, np.array([1.0, 1.0])

    vg, points = counted(value_and_grad)
    res = maximize_bfgs(vg, np.zeros(2), gtol=1e-10, max_iters=100)
    assert not res.converged
    assert (res.iterations, res.value) == (1, 0.0)
    assert res.x.tolist() == [0.0, 0.0]
    assert len(points) == 1 + MAX_HALVINGS  # the start, then every halving of the step


def test_stops_once_an_accepted_step_is_below_the_step_floor():
    # a linear objective never converges; an approximation this small makes
    # the first accepted step 1e-20, far below the float resolution of x
    def value_and_grad(x):
        return float(x.sum()), np.ones(2)

    res = maximize_bfgs(
        value_and_grad, np.zeros(2), gtol=1e-8, max_iters=100, h_inv0=1e-20 * np.eye(2)
    )
    assert not res.converged
    assert res.iterations == 1
    assert res.x.tolist() == [1e-20, 1e-20]
