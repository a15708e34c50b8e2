"""Empirical-Bayes fitting of the mixture by expectation-maximization.

The E-step evaluates each clone's posterior probability of being dynamic
under the current hyperparameters.  The M-step maximizes the expected
complete-data log-likelihood: the mixing weight has the closed-form
update pi = mean(responsibilities), and (alpha, beta) are pushed uphill
by BFGS in (log alpha, log beta) with analytic digamma gradients
(log-gamma and digamma are model's numpy kernels).  With
the responsibilities fixed, conjugacy makes that objective a weighted
sum over the distinct counts, offsets, count sums and offset sums
(model.ExpectedLoglik), so the M-step builds those histograms once and each
BFGS evaluation costs O(#distinct values); the per-observation kernels
run once per iteration, in the E-step.  The loop stops when the mean
squared change in responsibilities between successive iterations drops
below epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdentifiabilityError, OptimizerError, ValidationError
from .model import ExpectedLoglik, Hyperparams, PackedCohort, SeriesBatch
from .model import stable_responsibility, strictly_increasing
from .optim import maximize_bfgs

PI_FLOOR = 1e-6

MOMENT_START_BOUNDS = (1e-3, 1e3)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the EM loop and its inner quasi-Newton maximizer.

    inner_opt_tol bounds the gradient inf-norm of the per-clone-averaged
    expected complete-data log-likelihood in (log alpha, log beta).
    """

    epsilon: float = 1e-8
    max_em_iters: int = 500
    inner_opt_tol: float = 1e-8
    inner_opt_max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if not (self.epsilon > 0 and self.inner_opt_tol > 0):
            raise ValidationError("tolerances must be positive")
        if self.max_em_iters < 1 or self.inner_opt_max_iters < 1:
            raise ValidationError("iteration caps must be >= 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class FitResult:
    hyperparams: Hyperparams
    cohort: PackedCohort  # the fitted clones in canonical (person_id, clone_id) order
    prob_dynamic: np.ndarray  # responsibility of each clone of cohort
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    msq_change_trace: np.ndarray
    n_single_timepoint: int  # clones observed once; their responsibility is pi


def _mixture_loglik(ls: np.ndarray, ld: np.ndarray, pi: float) -> float:
    """Total log-likelihood of the two-component mixture over all clones.

    Each clone contributes log(pi * exp(ld) + (1 - pi) * exp(ls)) via
    log-sum-exp; the clone total is accumulated with exact compensated
    summation, so it does not depend on clone order.
    """
    per_clone = np.logaddexp(math.log(pi) + ld, math.log1p(-pi) + ls)
    return math.fsum(per_clone.tolist())


def convergence_stat(r_prev, r_next) -> float:
    """Mean squared change between successive responsibility vectors."""
    a = np.asarray(r_prev, dtype=np.float64)
    b = np.asarray(r_next, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ValidationError("responsibility vectors must be 1-d, non-empty and equal length")
    return math.fsum(((a - b) ** 2).tolist()) / a.size


def m_step(
    batch: SeriesBatch,
    responsibilities,
    hp_current: Hyperparams,
    cfg: FitConfig,
) -> Hyperparams:
    """One maximization step of the expected complete-data log-likelihood.

    responsibilities must align with the batch's clones.  The mixing
    weight update is the responsibility mean, clamped away from 0 and 1;
    (alpha, beta) are maximized by BFGS in log coordinates with the
    current values as the warm start, on the histogram form of
    ExpectedLoglik.  Never returns hyperparameters with a lower expected
    complete-data value than hp_current; OptimizerError when hp_current has
    no finite value, as the maximization then has no start.
    """
    r = np.asarray(responsibilities, dtype=np.float64)
    if r.shape != (batch.n,):
        raise ValidationError(f"expected {batch.n} responsibilities, got shape {r.shape}")
    if not np.all((r >= 0.0) & (r <= 1.0)):
        raise ValidationError("responsibilities must be finite and lie in [0, 1]")

    pi_new = float(np.clip(r.mean(), PI_FLOOR, 1.0 - PI_FLOOR))
    q = ExpectedLoglik(batch, r)
    q_incumbent = q.with_mixing_weight(hp_current)
    if not math.isfinite(q_incumbent):
        raise OptimizerError(
            "the incumbent hyperparameters have no finite expected complete-data "
            "log-likelihood, so the M-step has no starting point"
        )
    theta0 = np.array([math.log(hp_current.alpha), math.log(hp_current.beta)])
    result = maximize_bfgs(
        q.in_log_coords,
        theta0,
        gtol=cfg.inner_opt_tol,
        max_iters=cfg.inner_opt_max_iters,
    )
    candidate = Hyperparams(
        alpha=float(np.exp(result.x[0])), beta=float(np.exp(result.x[1])), pi=pi_new
    )

    q_candidate = q.with_mixing_weight(candidate)
    return candidate if math.isfinite(q_candidate) and q_candidate >= q_incumbent else hp_current


def _moment_start(batch: SeriesBatch, pi: float) -> Hyperparams:
    # method-of-moments on the pooled per-clone proportions: for a
    # Gamma(alpha, beta) proportion, mean m = alpha/beta and var v = alpha/beta^2
    lo, hi = MOMENT_START_BOUNDS
    proportions = batch.csum / batch.osum
    m = float(proportions.mean())
    v = float(proportions.var())
    if not (math.isfinite(m) and math.isfinite(v)) or m <= 0.0 or v <= 0.0:
        return Hyperparams(1.0, float(np.sqrt(lo * hi)), pi)
    beta0 = min(max(m / v, lo), hi)
    alpha0 = min(max(m * beta0, lo), hi)
    return Hyperparams(alpha0, beta0, pi)


def fit_em(cohort: PackedCohort, cfg: FitConfig) -> FitResult:
    """Fit (alpha, beta, pi) and per-clone responsibilities by EM.

    Initialization draws a hard 50/50 component label per clone from the
    seeded generator and treats the labels as responsibilities for the
    first M-step, with a method-of-moments (alpha, beta) warm start.
    Iterations then alternate E- and M-steps until the mean squared
    responsibility change falls below cfg.epsilon or max_em_iters is
    reached.  Deterministic given (cohort, cfg.seed); the clones may come
    in any order, and the result holds them in canonical order.
    """
    cohort = cohort.sorted()
    if len(cohort) < 2:
        raise ValidationError("need at least two clone series to fit")
    if not strictly_increasing(cohort.person_id, cohort.clone_id):
        raise ValidationError("duplicate (person_id, clone_id) keys in input")
    n_single = int(np.count_nonzero(cohort.n_times == 1))
    if n_single == len(cohort):
        raise IdentifiabilityError(
            "every clone is observed at a single time point; the mixture "
            "components coincide and pi is unidentified"
        )

    batch = SeriesBatch(cohort)
    rng = np.random.default_rng(cfg.seed)
    r = rng.integers(0, 2, size=batch.n).astype(np.float64)
    hp = _moment_start(batch, pi=float(np.clip(r.mean(), PI_FLOOR, 1.0 - PI_FLOOR)))

    loglik_trace: list[float] = []
    msq_trace: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_em_iters + 1):
        hp = m_step(batch, r, hp, cfg)
        ls, ld = batch.log_pmfs(hp.alpha, hp.beta)
        r_next = stable_responsibility(ls, ld, hp.pi)
        loglik_trace.append(_mixture_loglik(ls, ld, hp.pi))
        stat = convergence_stat(r, r_next)
        msq_trace.append(stat)
        r = r_next
        if stat < cfg.epsilon:
            converged = True
            break

    loglik = np.array(loglik_trace)
    loglik.flags.writeable = False
    msq = np.array(msq_trace)
    msq.flags.writeable = False
    r.flags.writeable = False
    return FitResult(
        hyperparams=hp,
        cohort=cohort,
        prob_dynamic=r,
        loglik_trace=loglik,
        iterations=iterations,
        converged=converged,
        msq_change_trace=msq,
        n_single_timepoint=n_single,
    )
