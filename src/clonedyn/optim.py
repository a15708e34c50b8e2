"""Quasi-Newton ascent for smooth unconstrained maximization.

BFGS on the inverse-Hessian approximation with a backtracking line search
enforcing an Armijo sufficient-increase condition.  The approximation
starts from a given inverse of the negated Hessian at the start, or else
from the identity, rescaled after the first step.  If it stops producing
an ascent direction it is reset to the identity, which turns the step
into steepest ascent.

Near a maximum a step's gain can fall below the float resolution of the
value, and the value's rounding then decides the Armijo test.  So the
search also accepts a step whose value is within rounding of the current
one when the slopes at both ends show a sufficient increase (Hager and
Zhang's approximate Wolfe condition, SIAM J. Optim. 16, 2005).

Deterministic: no randomness, no tolerance-dependent branching beyond
the documented stopping rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ARMIJO_C = 1e-4
MAX_HALVINGS = 45
# values this close, relative to their size, differ by rounding alone
ROUNDING = 1e-12
# accepted steps this small cannot move the objective at float resolution
STEP_FLOOR = 1e-13


@dataclass(frozen=True)
class MaximizeResult:
    x: np.ndarray
    value: float
    grad: np.ndarray
    iterations: int
    converged: bool  # gradient inf-norm reached gtol


def maximize_bfgs(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    gtol: float,
    max_iters: int,
    h_inv0: np.ndarray | None = None,
    start: tuple[float, np.ndarray] | None = None,
) -> MaximizeResult:
    """Maximize a smooth function given a joint (value, gradient) callback.

    h_inv0, when given, is the starting inverse-Hessian approximation: the
    inverse of the negated Hessian at x0, symmetric positive definite.  With
    the exact one, a quadratic's maximum is one step away.  start, when
    given, is the (value, gradient) at x0, which is then not evaluated.

    The objective value never decreases from one returned iterate to the
    next by more than ROUNDING of its size; on a failed line search the
    current point is returned as-is.  Raises ValueError if the objective
    is not finite at x0.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = value_and_grad(x) if start is None else start
    g = np.asarray(g, dtype=np.float64)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the starting point")

    dim = x.size
    identity = np.eye(dim)
    h_inv = identity.copy() if h_inv0 is None else np.array(h_inv0, dtype=np.float64)
    converged = False
    iterations = 0

    for iterations in range(1, max_iters + 1):
        if float(np.max(np.abs(g))) <= gtol:
            converged = True
            iterations -= 1
            break

        direction = h_inv @ g
        slope = float(direction @ g)
        if slope <= 0.0:
            # curvature information went bad: restart from steepest ascent
            h_inv = identity.copy()
            direction = g.copy()
            slope = float(g @ g)

        step = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            x_new = x + step * direction
            f_new, g_new = value_and_grad(x_new)
            if np.isfinite(f_new) and (
                f_new >= f + ARMIJO_C * step * slope
                # the trapezoid rule on the slopes at both ends meets the Armijo test
                or f_new >= f - ROUNDING * abs(f)
                and float(np.dot(g_new, direction)) >= (2.0 * ARMIJO_C - 1.0) * slope
            ):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break

        s = x_new - x
        if float(np.max(np.abs(s))) <= STEP_FLOOR * (1.0 + float(np.max(np.abs(x)))):
            x, f, g = x_new, f_new, np.asarray(g_new, dtype=np.float64)
            break

        y = g - np.asarray(g_new, dtype=np.float64)  # curvature of the negated objective
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            if iterations == 1 and h_inv0 is None:
                h_inv = (sy / float(y @ y)) * identity
            rho = 1.0 / sy
            v = identity - rho * np.outer(s, y)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        # otherwise skip the update; h_inv stays positive definite

        x, f, g = x_new, f_new, np.asarray(g_new, dtype=np.float64)

    if not converged and float(np.max(np.abs(g))) <= gtol:
        converged = True
    return MaximizeResult(x=x, value=f, grad=g, iterations=iterations, converged=converged)
