"""EM engine: likelihood assembly, E/M steps, and full fits against oracles."""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import minimize

import clonedyn.em as em
import clonedyn.model as model
from clonedyn import (
    CloneSeries,
    FitConfig,
    Hyperparams,
    IdentifiabilityError,
    PackedCohort,
    SeriesBatch,
    SimConfig,
    ValidationError,
    convergence_stat,
    fit_em,
    m_step,
    simulate,
)
from clonedyn.em import _mixture_loglik
from clonedyn.model import ExpectedLoglik, stable_responsibility

from oracles import pack


def series(counts, offsets, clone="c", person="p"):
    return CloneSeries(clone_id=clone, person_id=person, counts=counts, offsets=offsets)


def small_cohort(n=120, seed=5, **overrides):
    cfg = SimConfig(
        n_clones=n,
        alpha=overrides.pop("alpha", 1.0),
        beta=overrides.pop("beta", 150.0),
        pi=overrides.pop("pi", 0.3),
        n_followups=overrides.pop("n_followups", 3),
        n_persons=overrides.pop("n_persons", 4),
        seed=seed,
        **overrides,
    )
    return simulate(cfg)[0]


def loglik(cohort, hp):
    """The mixture log-likelihood of the cohort's clones."""
    ls, ld = SeriesBatch(cohort).log_pmfs(hp.alpha, hp.beta)
    return _mixture_loglik(ls, ld, hp.pi)


def prob_dynamic(batch, hp):
    """The E-step: each clone's responsibility, in batch order."""
    ls, ld = batch.log_pmfs(hp.alpha, hp.beta)
    return stable_responsibility(ls, ld, hp.pi)


class TestObservedLoglik:
    def test_single_timepoint_clone_ignores_pi(self):
        s = series([4], [100])
        values = {loglik(pack([s]), Hyperparams(1.0, 50.0, pi)) for pi in (0.05, 0.4, 0.93)}
        assert len(values) == 1
        expected, _ = SeriesBatch(pack([s])).log_pmfs(1.0, 50.0)
        assert values.pop() == pytest.approx(expected[0], rel=1e-14)

    def test_two_identical_clones_double_the_value(self):
        hp = Hyperparams(1.0, 80.0, 0.3)
        one = loglik(pack([series([3, 9], [50, 60], clone="a")]), hp)
        two = loglik(
            pack([series([3, 9], [50, 60], clone="a"), series([3, 9], [50, 60], clone="b")]), hp
        )
        assert two == 2.0 * one

    def test_matches_extended_precision_resummation(self):
        clones = small_cohort(n=100, seed=21)
        hp = Hyperparams(1.0, 200.0, 0.2)
        total = loglik(clones, hp)
        ls, ld = SeriesBatch(clones).log_pmfs(hp.alpha, hp.beta)
        with mp.workdps(50):
            pi = mp.mpf(0.2)
            reference = mp.fsum(
                mp.log(pi * mp.exp(mp.mpf(d)) + (1 - pi) * mp.exp(mp.mpf(s)))
                for s, d in zip(ls.tolist(), ld.tolist())
            )
            assert total == pytest.approx(float(reference), rel=1e-9)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValidationError):
            SeriesBatch(pack([]))


class TestEStep:
    def test_all_single_timepoint_gives_constant_pi(self):
        clones = [series([k], [100], clone=f"c{k}") for k in range(5)]
        probs = prob_dynamic(SeriesBatch(pack(clones)), Hyperparams(1.0, 100.0, 0.37))
        assert np.all(probs == 0.37)

    def test_zero_quotient_at_even_mixing_gives_half(self):
        s = series([8], [500])
        assert prob_dynamic(SeriesBatch(pack([s])), Hyperparams(1.0, 100.0, 0.5))[0] == 0.5

    def test_batch_equals_scalar_calls_bitwise(self):
        clones = small_cohort(n=80, seed=9, missing_rate=0.25)
        hp = Hyperparams(0.77, 260.0, 0.41)
        batch = prob_dynamic(SeriesBatch(clones), hp)
        scalar = np.array([prob_dynamic(SeriesBatch(pack([s])), hp)[0] for s in clones])
        assert np.all(batch == scalar)

    def test_output_order_is_canonical(self):
        clones = [
            series([1, 2], [10, 10], clone="z", person="p2"),
            series([5, 1], [10, 10], clone="a", person="p1"),
        ]
        result = fit_em(pack(clones), FitConfig())
        assert [s.key for s in result.cohort] == [("p1", "a"), ("p2", "z")]
        hp = result.hyperparams
        expected = [prob_dynamic(SeriesBatch(pack([s])), hp)[0] for s in (clones[1], clones[0])]
        assert result.prob_dynamic.tolist() == expected


class TestMStep:
    def test_half_ones_gives_half_pi(self):
        clones = small_cohort(n=10, seed=3)
        r = np.array([1.0] * 5 + [0.0] * 5)
        hp = m_step(SeriesBatch(clones), r, Hyperparams(1.0, 150.0, 0.5), FitConfig())
        assert hp.pi == 0.5

    def test_all_zero_responsibilities_fit_static_only(self):
        clones = small_cohort(n=60, seed=8)
        batch = SeriesBatch(clones)
        cfg = FitConfig(inner_opt_tol=1e-9)
        hp = m_step(batch, np.zeros(len(clones)), Hyperparams(1.0, 150.0, 0.5), cfg)
        assert hp.pi == pytest.approx(1e-6)

        # independent route: direct maximization of the static-only likelihood
        def negative_static(theta):
            ls, _ = batch.log_pmfs(math.exp(theta[0]), math.exp(theta[1]))
            return -sum(ls.tolist())

        direct = minimize(
            negative_static,
            [0.0, math.log(150.0)],
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        assert -negative_static([math.log(hp.alpha), math.log(hp.beta)]) == pytest.approx(
            -direct.fun, abs=1e-6
        )

    def test_gradient_norm_at_optimum_and_finite_differences(self):
        clones = small_cohort(n=150, seed=13)
        batch = SeriesBatch(clones)
        r = prob_dynamic(batch, Hyperparams(0.9, 140.0, 0.3))
        cfg = FitConfig(inner_opt_tol=1e-6)
        hp = m_step(batch, r, Hyperparams(0.9, 140.0, 0.3), cfg)

        def q_ab(alpha, beta):
            ls, ld = batch.log_pmfs(alpha, beta)
            return float(r @ ld + (1.0 - r) @ ls)

        dls_da, dls_db, dld_da, dld_db = batch.log_pmf_grads(hp.alpha, hp.beta)
        grad_alpha = float(r @ dld_da + (1.0 - r) @ dls_da)
        grad_beta = float(r @ dld_db + (1.0 - r) @ dls_db)

        # stopping rule: inf-norm of the per-clone-averaged gradient in log coords
        n = batch.n
        scaled = max(abs(grad_alpha) * hp.alpha / n, abs(grad_beta) * hp.beta / n)
        assert scaled <= cfg.inner_opt_tol

        # analytic gradients agree with central differences at a non-optimal point
        alpha, beta = 1.3, 117.0
        dls_da, dls_db, dld_da, dld_db = batch.log_pmf_grads(alpha, beta)
        ga = float(r @ dld_da + (1.0 - r) @ dls_da)
        gb = float(r @ dld_db + (1.0 - r) @ dls_db)
        ha, hb = 1e-5 * alpha, 1e-5 * beta
        fd_a = (q_ab(alpha + ha, beta) - q_ab(alpha - ha, beta)) / (2 * ha)
        fd_b = (q_ab(alpha, beta + hb) - q_ab(alpha, beta - hb)) / (2 * hb)
        assert ga == pytest.approx(fd_a, rel=1e-4)
        assert gb == pytest.approx(fd_b, rel=1e-4)

    def test_hessian_matches_central_differences_of_the_gradient(self):
        clones = small_cohort(n=150, seed=13)
        batch = SeriesBatch(clones)
        q = ExpectedLoglik(batch, prob_dynamic(batch, Hyperparams(0.9, 140.0, 0.3)))
        for theta in ([0.2, 4.8], [-1.5, 7.0], [2.0, 2.0]):
            theta = np.array(theta)
            h = 1e-5
            columns = [
                (q.in_log_coords(theta + step)[1] - q.in_log_coords(theta - step)[1]) / (2 * h)
                for step in np.eye(2) * h
            ]
            hessian = q.in_log_coords(theta, order=2)[2]
            assert hessian[0, 1] == hessian[1, 0]
            scale = np.max(np.abs(hessian))
            assert np.max(np.abs(hessian - np.column_stack(columns))) <= 1e-6 * scale

    def test_inner_solves_converge_in_few_evaluations(self, monkeypatch):
        """BFGS starts from the exact inverse Hessian, so each M-step of a fit
        takes a few near-Newton steps and ends at the gradient tolerance."""
        solves = []

        def counting(value_and_grad, x0, **kwargs):
            evaluations = []

            def counted(x):
                evaluations.append(x)
                return value_and_grad(x)

            result = unwrapped(counted, x0, **kwargs)
            solves.append((len(evaluations), result.converged))
            return result

        unwrapped = em.maximize_bfgs
        monkeypatch.setattr(em, "maximize_bfgs", counting)
        clones = small_cohort(n=4000, seed=17, n_persons=10, n_followups=5, missing_rate=0.3)
        assert fit_em(clones, FitConfig(seed=1)).converged
        assert len(solves) >= 3
        assert all(converged for _, converged in solves), solves
        assert sum(n for n, _ in solves) / len(solves) <= 6, solves

    def test_each_objective_evaluation_is_one_kernel_call(self, monkeypatch):
        """An M-step calls the log-gamma kernel once at the warm start, for the
        value, gradient and Hessian, then once per BFGS evaluation, which is
        never the warm start again, and not after BFGS returns."""
        events = []
        kernel, bfgs, step = model._log_gamma, em.maximize_bfgs, em.m_step

        def counting_kernel(x, order=0):
            events.append(f"kernel{order}")
            return kernel(x, order)

        def counting_bfgs(value_and_grad, x0, **kwargs):
            def counted(x):
                events.append("start" if np.array_equal(x, x0) else "eval")
                return value_and_grad(x)

            events.append("bfgs")
            result = bfgs(counted, x0, **kwargs)
            events.append("/bfgs")
            return result

        def counting_m_step(*args):
            events.append("m_step")
            hp = step(*args)
            events.append("/m_step")
            return hp

        monkeypatch.setattr(model, "_log_gamma", counting_kernel)
        monkeypatch.setattr(em, "maximize_bfgs", counting_bfgs)
        monkeypatch.setattr(em, "m_step", counting_m_step)
        clones = small_cohort(n=4000, seed=17, n_persons=10, n_followups=5, missing_rate=0.3)
        assert fit_em(clones, FitConfig(seed=1)).converged
        m_steps = re.findall(r"m_step (.*?) /m_step", " ".join(events))
        assert len(m_steps) >= 3
        for events_of_step in m_steps:
            assert re.fullmatch(r"kernel2 bfgs( eval kernel1)* /bfgs", events_of_step)

    @pytest.mark.parametrize(
        "theta",
        [[800.0, 5.0], [0.0, 800.0], [-800.0, 5.0], [0.0, -800.0], [math.nan, 5.0], [700.0, 5.0]],
    )
    def test_the_objective_is_minus_inf_where_it_cannot_be_evaluated(self, theta):
        """exp(theta) overflows or underflows, or (at alpha = 1e304) Q is not finite."""
        batch = SeriesBatch(small_cohort(n=50, seed=13))
        q = ExpectedLoglik(batch, prob_dynamic(batch, Hyperparams(0.9, 140.0, 0.3)))
        value, gradient = q.in_log_coords(np.array(theta))
        assert value == -math.inf
        assert gradient.tolist() == [0.0, 0.0]
        value, gradient, hessian = q.in_log_coords(np.array(theta), order=2)
        assert value == -math.inf
        assert gradient.tolist() == [0.0, 0.0]
        assert not np.any(np.isfinite(hessian))

    def test_never_decreases_expected_complete_loglik(self):
        clones = small_cohort(n=40, seed=2)
        rng = np.random.default_rng(0)
        r = rng.random(len(clones))
        batch = SeriesBatch(clones)
        start = Hyperparams(0.5, 300.0, 0.5)

        def q_full(hp):
            ls, ld = batch.log_pmfs(hp.alpha, hp.beta)
            return float(
                r @ (math.log(hp.pi) + ld) + (1.0 - r) @ (math.log1p(-hp.pi) + ls)
            )

        hp = m_step(batch, r, start, FitConfig())
        assert q_full(hp) >= q_full(start)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 1.5])
    def test_responsibilities_outside_the_unit_interval_raise(self, bad):
        clones = small_cohort(n=5, seed=3)
        r = np.array([0.2, 0.4, bad, 0.6, 0.8])
        with pytest.raises(ValidationError, match="responsibilities"):
            m_step(SeriesBatch(clones), r, Hyperparams(1.0, 150.0, 0.5), FitConfig())

    def test_misaligned_responsibilities_raise(self):
        clones = small_cohort(n=10, seed=3)
        with pytest.raises(ValidationError):
            m_step(SeriesBatch(clones), np.zeros(4), Hyperparams(1.0, 1.0, 0.5), FitConfig())


class TestConvergenceStat:
    def test_identical_vectors(self):
        assert convergence_stat([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_opposite_unit_vectors(self):
        assert convergence_stat([0.0, 1.0], [1.0, 0.0]) == 1.0

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(12)
        a = rng.random(1000)
        b = rng.random(1000)
        with mp.workdps(50):
            reference = float(
                mp.fsum((mp.mpf(x) - mp.mpf(y)) ** 2 for x, y in zip(a, b)) / 1000
            )
        assert convergence_stat(a, b) == pytest.approx(reference, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            convergence_stat([0.1], [0.1, 0.2])


class TestFitEm:
    def test_matches_grid_search_plus_refinement(self):
        clones = small_cohort(n=50, seed=31, beta=100.0)
        result = fit_em(clones, FitConfig(seed=4, inner_opt_tol=1e-10))
        ll_em = loglik(clones, result.hyperparams)

        batch = SeriesBatch(clones)

        def negative_loglik(theta):
            alpha, beta = math.exp(theta[0]), math.exp(theta[1])
            pi = 1.0 / (1.0 + math.exp(-theta[2]))
            ls, ld = batch.log_pmfs(alpha, beta)
            per = np.logaddexp(math.log(pi) + ld, math.log1p(-pi) + ls)
            return -math.fsum(per.tolist())

        scored = []
        for la in np.linspace(math.log(0.1), math.log(10.0), 9):
            for lb in np.linspace(math.log(10.0), math.log(1000.0), 9):
                for pi in np.linspace(0.05, 0.95, 7):
                    theta = (la, lb, math.log(pi / (1 - pi)))
                    scored.append((negative_loglik(theta), theta))
        scored.sort(key=lambda pair: pair[0])
        refined = min(
            minimize(
                negative_loglik,
                theta,
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 10000, "maxfev": 10000},
            ).fun
            for _, theta in scored[:8]
        )
        assert ll_em == pytest.approx(-refined, abs=1e-4)

    def test_deterministic_given_seed(self):
        clones = small_cohort(n=60, seed=14, missing_rate=0.1)
        a = fit_em(clones, FitConfig(seed=123))
        b = fit_em(clones, FitConfig(seed=123))
        assert a.hyperparams == b.hyperparams
        assert [s.key for s in a.cohort] == [s.key for s in b.cohort]
        assert np.array_equal(a.prob_dynamic, b.prob_dynamic)
        assert np.array_equal(a.loglik_trace, b.loglik_trace)
        assert np.array_equal(a.msq_change_trace, b.msq_change_trace)
        assert (a.iterations, a.converged) == (b.iterations, b.converged)

    def test_loglik_trace_monotone(self):
        for seed in range(4):
            clones = small_cohort(n=90, seed=40 + seed)
            result = fit_em(clones, FitConfig(seed=seed))
            assert np.all(np.diff(result.loglik_trace) >= -1e-6)

    def test_moment_start_falls_back_when_every_proportion_is_the_same(self):
        clones = [series([1, 3], [8, 8], clone=f"c{k}") for k in range(4)]  # 4 / 16 each
        hp = em._moment_start(SeriesBatch(pack(clones)), pi=0.5)
        assert (hp.alpha, hp.beta, hp.pi) == (1.0, 1.0, 0.5)

    def test_single_timepoint_only_design_raises(self):
        clones = [series([k + 1], [100], clone=f"c{k}") for k in range(5)]
        with pytest.raises(IdentifiabilityError):
            fit_em(pack(clones), FitConfig())

    def test_fewer_than_two_clones_raises(self):
        with pytest.raises(ValidationError):
            fit_em(pack([series([1, 2], [10, 10])]), FitConfig())

    def test_duplicate_keys_raise(self):
        clones = [series([1, 2], [10, 10]), series([3, 4], [10, 10])]
        with pytest.raises(ValidationError):
            fit_em(pack(clones), FitConfig())

    def test_non_convergence_is_flagged_not_raised(self):
        clones = small_cohort(n=80, seed=50)
        result = fit_em(clones, FitConfig(seed=1, max_em_iters=1))
        assert result.iterations == 1
        assert not result.converged

    def test_offset_scaling_moves_beta_not_alpha(self):
        clones = small_cohort(n=400, seed=60, n_persons=8)
        scaled = [
            CloneSeries(
                clone_id=s.clone_id,
                person_id=s.person_id,
                counts=s.counts,
                offsets=s.offsets * 10,
                times=s.times,
            )
            for s in clones
        ]
        base = fit_em(clones, FitConfig(seed=2))
        shifted = fit_em(pack(scaled), FitConfig(seed=2))
        assert shifted.hyperparams.beta == pytest.approx(10 * base.hyperparams.beta, rel=1e-3)
        assert shifted.hyperparams.alpha == pytest.approx(base.hyperparams.alpha, rel=1e-3)

    def test_single_timepoint_clones_are_flagged(self):
        clones = small_cohort(n=50, seed=70, missing_rate=0.4, n_followups=2)
        result = fit_em(clones, FitConfig(seed=3))
        expected = sum(1 for s in clones if s.n_times == 1)
        assert result.n_single_timepoint == expected
        assert expected > 0
        # a clone observed once carries no component information
        once = result.prob_dynamic[result.cohort.n_times == 1]
        assert np.all(once == result.hyperparams.pi)


def test_person_times_no_clone_uses_change_no_bit_of_the_fit():
    """Rows of the person-time table that no observation sits on, their totals
    interleaved among the used ones, add no zero-weight entry to the M-step's
    histograms, whose pairwise sums would then group differently."""
    used = simulate(SimConfig(n_clones=400, n_persons=8, beta=150.0, pi=0.3, seed=21))[0]
    # each person's follow-ups 0-2, which its clones use, then 3 and 4, which none does
    extra = np.random.default_rng(4).integers(used.pt_total.min(), used.pt_total.max(), (8, 2))
    padded = PackedCohort(
        used.clone_id,
        used.starts,
        used.counts,
        used.obs_pt // 3 * 5 + used.obs_pt % 3,
        np.repeat(np.unique(used.pt_person), 5),
        np.tile(np.arange(5), 8),
        np.hstack([used.pt_total.reshape(8, 3), extra]).ravel(),
    )
    assert np.unique(used.pt_total).size > 8  # past the unrolled part of numpy's pairwise sum
    assert not np.isin(extra, used.pt_total).any()
    assert used.pt_total.min() < extra.min() and extra.max() < used.pt_total.max()
    assert np.array_equal(padded.offsets, used.offsets)
    assert padded.used_rows().size == used.pt_total.size
    cfg = FitConfig(seed=3)
    a, b = fit_em(padded, cfg), fit_em(used, cfg)
    assert a.hyperparams == b.hyperparams
    assert np.array_equal(a.prob_dynamic, b.prob_dynamic)


@pytest.mark.parametrize("value", [0.0, -1e-8, math.inf, math.nan])
@pytest.mark.parametrize("field", ["epsilon", "inner_opt_tol"])
def test_tolerances_must_be_positive_and_finite(field, value):
    # an infinite epsilon stops EM after one iteration and calls it converged
    with pytest.raises(ValidationError, match="tolerances must be positive and finite"):
        FitConfig(**{field: value})
