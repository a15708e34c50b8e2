"""Synthetic cohort generation for recovery and classification experiments.

Clones are spread evenly over a configurable number of simulated persons.
Each person-time gets an exponential total-read offset (rounded up to an
integer), a row of the cohort's person-time table.  Each clone draws, in
this order, a dynamic/static label, its missed follow-ups (the baseline is
never dropped; missingness removes later follow-ups independently per
clone-time), its Gamma proportions (one shared by a static clone's times,
one per time for a dynamic clone) and a Poisson count around proportion *
offset per observation.  The ground truth comes back as columns aligned
with the cohort: a TruthLabels row per clone, as truth.tsv holds it, and
the proportion behind each count.

Each count is drawn from a scalar mean, lam * float(offset), since numpy's
checks of an array parameter (~12 us a call; for a scalar, under 1 us) were
most of the loop's time.  Scalar calls draw what array calls draw, in
order, so a seed keeps its cohort, on purpose: person-block array draws
would be faster but change the stream, and a new stream can flip by chance
the acceptance suite's order of 2- and 4-FU alpha bias (+0.00122 against
-0.00015, each a mean with a standard error of 0.0014-0.0020).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import PackedCohort

# read depth calibrated against the reference operating characteristics
DEFAULT_OFFSET_MEAN = 4e4


@dataclass(frozen=True)
class SimConfig:
    n_clones: int = 60_000
    alpha: float = 1.0
    beta: float = 100.0
    pi: float = 0.2
    n_followups: int = 3
    offset_mean: float = DEFAULT_OFFSET_MEAN
    missing_rate: float = 0.0
    n_persons: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_clones < 1:
            raise ValidationError("n_clones must be >= 1")
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise ValidationError("alpha and beta must be positive and finite")
        if not 0.0 <= self.pi <= 1.0:
            raise ValidationError("pi must lie in [0, 1]")
        if self.n_followups < 2:
            raise ValidationError("n_followups must be >= 2")
        if not 0 < self.offset_mean < np.inf:
            raise ValidationError("offset_mean must be positive and finite")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValidationError("missing_rate must lie in [0, 1)")
        if not 1 <= self.n_persons <= self.n_clones:
            raise ValidationError("n_persons must lie in [1, n_clones]")
        if not (0 <= int(self.seed) < 2**64):
            raise ValidationError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class TruthLabels:
    """Per-clone ground truth as columns, as truth.tsv holds it: person_id and
    clone_id (object arrays of str) and dynamic (bool), one row per clone."""

    person_id: np.ndarray
    clone_id: np.ndarray
    dynamic: np.ndarray

    def __len__(self) -> int:
        return int(self.person_id.size)


def simulate(cfg: SimConfig) -> tuple[PackedCohort, TruthLabels, np.ndarray]:
    """Generate a cohort and its ground truth, deterministically per seed.

    Per-person generator streams are split off the root seed, so output
    is independent of any parallel scheduling of the person blocks.

    Returns (cohort, truth, lambdas).  The cohort is a PackedCohort in
    canonical (person_id, clone_id) order, its table listing every
    person-time, even one all its clones missed; truth labels its clones in
    that order; lambdas (float64, aligned with cohort.counts) is the proportion
    each count was drawn around, a static clone's single draw repeated at
    each of its times.
    """
    # np.random is imported on first use: stages that draw nothing never load it
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_persons)
    base, extra = divmod(cfg.n_clones, cfg.n_persons)
    per_person = base + (np.arange(cfg.n_persons) < extra)
    clone_width = max(6, len(str(cfg.n_clones - 1)))
    person_width = max(3, len(str(cfg.n_persons - 1)))

    alpha, scale, pi, missing_rate = cfg.alpha, 1.0 / cfg.beta, cfg.pi, cfg.missing_rate
    followups = range(1, cfg.n_followups)
    offsets = np.empty((cfg.n_persons, cfg.n_followups), dtype=np.int64)
    labels, times, lambdas, counts = [], [], [], []
    for j, child in enumerate(children):
        rng = np.random.default_rng(child)
        drawn = np.maximum(np.ceil(rng.exponential(cfg.offset_mean, size=cfg.n_followups)), 1.0)
        if drawn.max() >= 2.0**63:
            raise ValidationError("offset_mean draws an offset beyond a 64-bit integer")
        offsets[j] = drawn
        scaled = offsets[j].astype(np.float64).tolist()
        random, gamma, poisson = rng.random, rng.gamma, rng.poisson
        for _ in range(per_person[j]):
            dynamic = random() < pi
            if missing_rate > 0.0:
                missed = random(len(followups)).tolist()
                kept = [0, *(t for t, u in zip(followups, missed) if u >= missing_rate)]
            else:
                kept = [0, *followups]
            n = len(kept)
            lams = gamma(alpha, scale, n).tolist() if dynamic else [gamma(alpha, scale)] * n
            try:
                counts += [poisson(lam * scaled[t]) for lam, t in zip(lams, kept)]
            except ValueError as exc:  # a mean beyond what the generator can draw from
                raise ValidationError(f"cannot draw Poisson counts: {exc}") from None
            labels.append(dynamic)
            times += kept
            lambdas += lams

    times = np.array(times, dtype=np.int64)
    baseline = times == 0  # never dropped, so it starts each clone
    person = np.repeat(np.arange(cfg.n_persons), per_person)
    obs_pt = person[np.cumsum(baseline) - 1] * cfg.n_followups + times  # row of offsets.ravel()
    counts = np.minimum(np.array(counts, dtype=np.int64), offsets.ravel()[obs_pt])
    # ids are zero-padded, so generation order is canonical order
    person_ids = np.array([f"p{j:0{person_width}d}" for j in range(cfg.n_persons)], dtype=object)
    clone_ids = [f"c{i:0{clone_width}d}" for i in range(cfg.n_clones)]
    pt_person = np.repeat(person_ids, cfg.n_followups)
    pt_time = np.tile(np.arange(cfg.n_followups), cfg.n_persons)
    starts = np.flatnonzero(baseline)
    cohort = PackedCohort(clone_ids, starts, counts, obs_pt, pt_person, pt_time, offsets.ravel())
    truth = TruthLabels(cohort.person_id, cohort.clone_id, np.array(labels, dtype=bool))
    return cohort, truth, np.array(lambdas, dtype=np.float64)
