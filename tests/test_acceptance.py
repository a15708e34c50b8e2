"""Acceptance suite: recovery, operating characteristics, oracle equivalence.

Each test prints one `[acceptance] <criterion>: PASS/FAIL` line.  The
heavy 60,000-clone experiments are cached in a session fixture so the
recovery, operating-characteristic, and convergence criteria share fits.
Reference point values and tolerance bands are fixed here; recovery
checks average a few fixed-seed replicates, mirroring how the reference
values were produced.
"""

import math

import numpy as np
import pytest

from clonedyn import (
    CloneSeries,
    FitConfig,
    Hyperparams,
    SeriesBatch,
    SimConfig,
    chi_square_dichotomized,
    classify,
    dynamic_counts_per_person,
    fit_em,
    loglinear_rate_ratio,
    operating_characteristics,
    simulate,
)
from clonedyn.classify import truth_of
from clonedyn.model import stable_responsibility

from oracles import log_per_time_marginal, log_shared_rate_marginal, pack, random_series_cases

N_CLONES = 60_000
FIT_SEED = 7


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


class Lab:
    """Runs and caches the shared simulation-fit experiments."""

    def __init__(self):
        self._fits = {}
        self._truths = {}

    def fit(self, alpha, beta, pi, n_followups, missing_rate, sim_seed, keep_truth=False):
        key = (alpha, beta, pi, n_followups, missing_rate, sim_seed)
        if key not in self._fits or (keep_truth and key not in self._truths):
            cfg = SimConfig(
                n_clones=N_CLONES,
                alpha=alpha,
                beta=beta,
                pi=pi,
                n_followups=n_followups,
                missing_rate=missing_rate,
                seed=sim_seed,
            )
            series, truth, _ = simulate(cfg)
            if key not in self._fits:
                self._fits[key] = fit_em(series, FitConfig(seed=FIT_SEED))
            if keep_truth:
                self._truths[key] = truth
        return self._fits[key]

    def truth(self, key):
        return self._truths[key]

    def all_fits(self):
        return dict(self._fits)


@pytest.fixture(scope="session")
def lab():
    return Lab()


@pytest.fixture(scope="session")
def followup_fits(lab):
    """(1, 200, 0.2) fits at 2/3/4 follow-ups; replicates for averaging."""
    reps = {2: 10, 3: 3, 4: 10}
    fits = {}
    for fu, n_reps in reps.items():
        fits[fu] = [
            lab.fit(1.0, 200.0, 0.2, fu, 0.0, 1000 + rep, keep_truth=(rep == 0))
            for rep in range(n_reps)
        ]
    return fits


def test_parameter_recovery(lab):
    """Hyperparameter recovery at 60,000 clones and three follow-ups."""
    bands = {
        (1.0, 100.0): ((0.95, 1.07), (97.0, 106.0)),
        (2.0, 200.0): ((1.90, 2.14), (194.0, 212.0)),
    }
    details = []
    ok = True
    for (alpha, beta), ((a_lo, a_hi), (b_lo, b_hi)) in bands.items():
        result = lab.fit(alpha, beta, 0.2, 3, 0.0, 1100 if alpha == 1.0 else 1101)
        hp = result.hyperparams
        ok &= a_lo <= hp.alpha <= a_hi
        ok &= b_lo <= hp.beta <= b_hi
        ok &= 0.19 <= hp.pi <= 0.21
        details.append(f"({alpha},{beta})->({hp.alpha:.4f},{hp.beta:.2f},{hp.pi:.4f})")
    report("parameter recovery", ok, "; ".join(details))


def test_followup_sensitivity_of_estimates(followup_fits):
    """Estimates stay in band at 2/3/4 follow-ups; the shape estimate's
    bias is larger with fewer follow-ups (10-replicate average)."""
    ok = True
    details = []
    for fu, fits in followup_fits.items():
        alpha_mean = float(np.mean([f.hyperparams.alpha for f in fits]))
        beta_mean = float(np.mean([f.hyperparams.beta for f in fits]))
        pi_mean = float(np.mean([f.hyperparams.pi for f in fits]))
        ok &= 0.98 <= alpha_mean <= 1.08
        ok &= 198.0 <= beta_mean <= 212.0
        ok &= 0.19 <= pi_mean <= 0.21
        details.append(f"{fu}FU: a={alpha_mean:.4f} b={beta_mean:.2f} pi={pi_mean:.4f}")

    bias2 = float(np.mean([f.hyperparams.alpha for f in followup_fits[2]])) - 1.0
    bias4 = float(np.mean([f.hyperparams.alpha for f in followup_fits[4]])) - 1.0
    ok &= bias2 > bias4
    details.append(f"alpha bias 2FU {bias2:+.5f} > 4FU {bias4:+.5f}")
    report("follow-up sensitivity of estimates", ok, "; ".join(details))


def test_missingness_robustness(lab, followup_fits):
    """Dropping 7/14/21% of non-baseline follow-ups leaves estimates in
    the same bands as the complete-data fits (3-replicate averages)."""
    ok = True
    details = []
    for rate in (0.07, 0.14, 0.21):
        fits = [lab.fit(1.0, 200.0, 0.2, 3, rate, 1200 + rep) for rep in range(3)]
        alpha_mean = float(np.mean([f.hyperparams.alpha for f in fits]))
        beta_mean = float(np.mean([f.hyperparams.beta for f in fits]))
        pi_mean = float(np.mean([f.hyperparams.pi for f in fits]))
        ok &= 0.98 <= alpha_mean <= 1.08
        ok &= 198.0 <= beta_mean <= 212.0
        ok &= 0.19 <= pi_mean <= 0.21
        details.append(f"{int(rate*100)}%: a={alpha_mean:.4f} b={beta_mean:.2f} pi={pi_mean:.4f}")
    report("missingness robustness", ok, "; ".join(details))


def test_operating_characteristics(lab, followup_fits):
    """Thresholded-call sensitivity/specificity by follow-up count."""
    targets = {0.75: {2: 0.70, 3: 0.90, 4: 0.97}, 0.95: {2: 0.64, 3: 0.88, 4: 0.96}}
    tolerance = 0.04
    sens = {}
    spec = {}
    for fu in (2, 3, 4):
        key = (1.0, 200.0, 0.2, fu, 0.0, 1000)
        result = lab.fit(1.0, 200.0, 0.2, fu, 0.0, 1000)
        truth = lab.truth(key)
        for threshold in (0.75, 0.95):
            calls = classify(result.prob_dynamic, result.cohort, threshold)
            oc = operating_characteristics(calls, truth_of(calls, truth), threshold)
            sens[(threshold, fu)] = oc.sensitivity
            spec[(threshold, fu)] = oc.specificity

    ok = True
    details = []
    for threshold, by_fu in targets.items():
        for fu, target in by_fu.items():
            value = sens[(threshold, fu)]
            ok &= abs(value - target) <= tolerance
            details.append(f"sens@{threshold}/{fu}FU={value:.3f} (target {target})")
    ok &= all(value >= 0.985 for value in spec.values())
    details.append(f"min spec={min(spec.values()):.4f}")
    # monotone: lower at the stricter threshold, higher with more follow-ups
    for fu in (2, 3, 4):
        ok &= sens[(0.95, fu)] <= sens[(0.75, fu)]
    for threshold in (0.75, 0.95):
        ok &= sens[(threshold, 2)] < sens[(threshold, 3)] < sens[(threshold, 4)]
    report("operating characteristics", ok, "; ".join(details))


def test_convergence_speed(lab, followup_fits):
    """Every 60,000-clone fit reaches the 1e-8 criterion within 50 EM steps."""
    fits = lab.all_fits()
    iterations = {key: fit.iterations for key, fit in fits.items()}
    ok = all(fit.converged for fit in fits.values())
    ok &= all(n <= 50 for n in iterations.values())
    report(
        "convergence speed",
        ok,
        f"{len(fits)} fits, iterations {min(iterations.values())}..{max(iterations.values())}",
    )


def test_oracle_equivalence_suite():
    """Closed-form log-densities against 1,000 quadrature evaluations,
    exact single-timepoint coincidence, and log-odds stability."""
    rng = np.random.default_rng(424242)
    worst = 0.0
    for counts, offsets, alpha, beta in random_series_cases(rng, 1000):
        s = CloneSeries(clone_id="c", person_id="p", counts=counts, offsets=offsets)
        (ls,), (ld,) = SeriesBatch(pack([s])).log_pmfs(alpha, beta)
        ls_ref = log_shared_rate_marginal(counts, offsets, alpha, beta)
        ld_ref = log_per_time_marginal(counts, offsets, alpha, beta)
        worst = max(worst, abs(ls - ls_ref) / abs(ls_ref), abs(ld - ld_ref) / abs(ld_ref))
    ok = worst <= 1e-6

    coincidence = True
    for _ in range(200):
        c = int(rng.integers(0, 10_001))
        o = int(rng.integers(max(c, 1), 10_000_001))
        s = CloneSeries(clone_id="c", person_id="p", counts=[c], offsets=[o])
        hp = Hyperparams(
            float(rng.uniform(0.1, 5.0)), float(rng.uniform(10.0, 1000.0)), 0.37
        )
        ls, ld = SeriesBatch(pack([s])).log_pmfs(hp.alpha, hp.beta)
        coincidence &= bool(ls[0] == ld[0])
        coincidence &= float(stable_responsibility(ls, ld, hp.pi)[0]) == 0.37
    ok &= coincidence

    stable = True
    for _ in range(500):
        t = int(rng.integers(1, 5))
        counts = rng.integers(0, 10_001, size=t)
        offsets = np.maximum(rng.integers(1, 10_000_001, size=t), counts)
        s = CloneSeries(clone_id="c", person_id="p", counts=counts, offsets=offsets)
        hp = Hyperparams(
            float(rng.uniform(0.1, 5.0)),
            float(rng.uniform(10.0, 1000.0)),
            float(rng.uniform(1e-4, 1.0 - 1e-4)),
        )
        ls, ld = SeriesBatch(pack([s])).log_pmfs(hp.alpha, hp.beta)
        value = float(stable_responsibility(ls, ld, hp.pi)[0])
        stable &= math.isfinite(value) and 0.0 <= value <= 1.0
    ok &= stable
    report(
        "oracle equivalence suite",
        ok,
        f"worst quadrature rel err {worst:.2e}; coincidence exact: {coincidence}; "
        f"log-odds stable: {stable}",
    )


def test_em_properties():
    """Monotone likelihood on 20 random cohorts, finite-difference
    gradient agreement, and bit-identical reruns."""
    rng = np.random.default_rng(99)
    monotone = True
    for trial in range(20):
        cfg = SimConfig(
            n_clones=int(rng.integers(60, 160)),
            alpha=float(rng.uniform(0.4, 2.5)),
            beta=float(rng.uniform(50.0, 500.0)),
            pi=float(rng.uniform(0.1, 0.5)),
            n_followups=int(rng.integers(2, 5)),
            missing_rate=float(rng.uniform(0.0, 0.3)),
            n_persons=int(rng.integers(2, 8)),
            seed=int(rng.integers(0, 2**32)),
        )
        series = simulate(cfg)[0]
        result = fit_em(series, FitConfig(seed=int(rng.integers(0, 2**32))))
        monotone &= bool(np.all(np.diff(result.loglik_trace) >= -1e-6))

    grads_ok = True
    for trial in range(5):
        cfg = SimConfig(
            n_clones=120,
            alpha=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(80.0, 400.0)),
            pi=0.3,
            n_followups=3,
            n_persons=4,
            seed=int(rng.integers(0, 2**32)),
        )
        batch = SeriesBatch(simulate(cfg)[0])
        r = rng.random(batch.n)
        alpha = float(rng.uniform(0.3, 3.0))
        beta = float(rng.uniform(30.0, 600.0))

        def q(a, b):
            ls, ld = batch.log_pmfs(a, b)
            return float(r @ ld + (1.0 - r) @ ls)

        dls_da, dls_db, dld_da, dld_db = batch.log_pmf_grads(alpha, beta)
        ga = float(r @ dld_da + (1.0 - r) @ dls_da)
        gb = float(r @ dld_db + (1.0 - r) @ dls_db)
        ha, hb = 1e-5 * alpha, 1e-5 * beta
        fd_a = (q(alpha + ha, beta) - q(alpha - ha, beta)) / (2 * ha)
        fd_b = (q(alpha, beta + hb) - q(alpha, beta - hb)) / (2 * hb)
        grads_ok &= abs(ga - fd_a) <= 1e-4 * abs(fd_a)
        grads_ok &= abs(gb - fd_b) <= 1e-4 * abs(fd_b)

    series = simulate(SimConfig(n_clones=150, n_persons=4, seed=314))[0]
    a = fit_em(series, FitConfig(seed=2718))
    b = fit_em(series, FitConfig(seed=2718))
    identical = (
        a.hyperparams == b.hyperparams
        and a.cohort.keys == b.cohort.keys
        and np.array_equal(a.prob_dynamic, b.prob_dynamic)
        and np.array_equal(a.loglik_trace, b.loglik_trace)
        and np.array_equal(a.msq_change_trace, b.msq_change_trace)
    )
    ok = monotone and grads_ok and identical
    report(
        "em properties",
        ok,
        f"monotone: {monotone}; gradient FD agreement: {grads_ok}; "
        f"bit-identical rerun: {identical}",
    )


def test_cli_pipeline_consistency(lab, followup_fits, tmp_path):
    """The file pipeline reproduces the in-memory fit bit-for-bit and its
    operating characteristics stay on target."""
    from clonedyn.cli import main, read_keyvalues

    key = (1.0, 200.0, 0.2, 2, 0.0, 1000)
    library_fit = lab.fit(*key[:4], key[4], key[5])
    truth = lab.truth(key)

    sim_dir, fit_dir, cls_dir = tmp_path / "sim", tmp_path / "fit", tmp_path / "cls"
    argv = [
        "simulate",
        "--n-clones", str(N_CLONES),
        "--alpha", "1.0", "--beta", "200.0", "--pi", "0.2",
        "--n-followups", "2", "--seed", "1000",
        "--output-dir", str(sim_dir),
    ]
    assert main(argv) == 0
    assert main([
        "fit",
        "--input", str(sim_dir / "cohort.tsv"),
        "--offsets", str(sim_dir / "offsets.tsv"),
        "--min-total-reads", "0",
        "--seed", str(FIT_SEED),
        "--output-dir", str(fit_dir),
    ]) == 0
    assert main([
        "classify",
        "--input", str(sim_dir / "cohort.tsv"),
        "--offsets", str(sim_dir / "offsets.tsv"),
        "--responsibilities", str(fit_dir / "responsibilities.tsv"),
        "--truth", str(sim_dir / "truth.tsv"),
        "--min-total-reads", "0",
        "--threshold", "0.75",
        "--output-dir", str(cls_dir),
    ]) == 0

    doc = read_keyvalues(fit_dir / "hyperparams.txt")
    hp = library_fit.hyperparams
    exact = (
        float(doc["alpha"]) == hp.alpha
        and float(doc["beta"]) == hp.beta
        and float(doc["pi"]) == hp.pi
        and int(doc["iterations"]) == library_fit.iterations
    )

    calls = classify(library_fit.prob_dynamic, library_fit.cohort, 0.75)
    oc = operating_characteristics(calls, truth_of(calls, truth), 0.75)
    cli_oc = read_keyvalues(cls_dir / "operating_characteristics.txt")
    oc_exact = (
        float(cli_oc["sensitivity"]) == oc.sensitivity
        and float(cli_oc["specificity"]) == oc.specificity
    )
    on_target = abs(oc.sensitivity - 0.70) <= 0.04 and oc.specificity >= 0.985
    ok = exact and oc_exact and on_target
    report(
        "cli pipeline consistency",
        ok,
        f"fit doc exact: {exact}; oc exact: {oc_exact}; "
        f"sens={oc.sensitivity:.3f} spec={oc.specificity:.4f}",
    )


def test_association_procedures():
    """Hand-checked association statistics plus an end-to-end synthetic
    two-stratum pipeline with different generated mixing weights."""
    counts = {}
    strata = {}
    for i in range(10):
        counts[f"a{i}"] = 0
    for i in range(10, 30):
        counts[f"a{i}"] = 100
    for i in range(20):
        counts[f"b{i}"] = 0
    for i in range(20, 30):
        counts[f"b{i}"] = 100
    strata.update({f"a{i}": 0 for i in range(30)})
    strata.update({f"b{i}": 1 for i in range(30)})
    chi = chi_square_dichotomized(counts, strata, cutoff=50)
    chi_ok = chi.stat == pytest.approx(20.0 / 3.0, rel=1e-12) and chi.pvalue == pytest.approx(
        0.00982327450752, rel=1e-9
    )

    ll = loglinear_rate_ratio(
        {"a0": 2, "a1": 4, "b0": 6, "b1": 6}, {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
    )
    ll_ok = ll.coef == pytest.approx(math.log(2.0), rel=1e-12)

    # two strata, 50 persons each, generated mixing weights 0.30 vs 0.15
    def stratum(tag, pi, seed):
        cfg = SimConfig(
            n_clones=12_500, pi=pi, alpha=1.0, beta=200.0, n_followups=3,
            n_persons=50, seed=seed,
        )
        series = simulate(cfg)[0]
        return [
            CloneSeries(
                clone_id=f"{tag}{s.clone_id}",
                person_id=f"{tag}{s.person_id}",
                counts=s.counts,
                offsets=s.offsets,
                times=s.times,
            )
            for s in series
        ]

    high = stratum("h", 0.30, 8801)
    low = stratum("l", 0.15, 8802)
    result = fit_em(pack(high + low), FitConfig(seed=9))
    calls = classify(result.prob_dynamic, result.cohort, 0.75)
    per_person = dynamic_counts_per_person(calls)
    stratum_map = {p: (1 if p.startswith("h") else 0) for p in per_person}
    dynamic_counts = {p: c.n_dynamic for p, c in per_person.items()}
    pipeline = loglinear_rate_ratio(dynamic_counts, stratum_map)
    pipeline_ok = pipeline.coef > 0.0 and pipeline.pvalue < 0.01

    ok = chi_ok and ll_ok and pipeline_ok
    report(
        "association procedures",
        ok,
        f"chi2 {chi.stat:.4f} (p={chi.pvalue:.4g}); loglinear {ll.coef:.4f}; "
        f"pipeline coef {pipeline.coef:.3f} (p={pipeline.pvalue:.3g})",
    )
