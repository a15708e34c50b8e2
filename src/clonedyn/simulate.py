"""Synthetic cohort generation for recovery and classification experiments.

Clones are spread evenly over a configurable number of simulated persons.
Each person-time gets an exponential total-read offset (rounded up to an
integer).  Each clone draws a dynamic/static label; static clones draw
one Gamma proportion shared across their observed times, dynamic clones
redraw it independently at every observed time.  Counts are Poisson
around proportion * offset.  The baseline time is never dropped;
missingness removes later follow-ups independently per clone-time.

The ground truth comes back as columns aligned with the cohort: a
TruthLabels row per clone, as truth.tsv holds it, and the proportion
behind each count.
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
    canonical (person_id, clone_id) order; truth labels its clones in that
    order; lambdas (float64, aligned with cohort.counts) is the proportion
    each count was drawn around, a static clone's single draw repeated at
    each of its times.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_persons)
    base, extra = divmod(cfg.n_clones, cfg.n_persons)

    clone_width = max(6, len(str(cfg.n_clones - 1)))
    person_width = max(3, len(str(cfg.n_persons - 1)))

    clones: list[tuple] = []
    labels: list[bool] = []
    lambdas: list[np.ndarray] = []
    clone_index = 0
    for j, child in enumerate(children):
        rng = np.random.default_rng(child)
        person_id = f"p{j:0{person_width}d}"
        offsets = np.maximum(np.ceil(rng.exponential(cfg.offset_mean, size=cfg.n_followups)), 1.0)
        if offsets.max() >= 2.0**63:
            raise ValidationError("offset_mean draws an offset beyond a 64-bit integer")
        offsets = offsets.astype(np.int64)

        n_here = base + (1 if j < extra else 0)
        for _ in range(n_here):
            clone_id = f"c{clone_index:0{clone_width}d}"
            clone_index += 1
            dynamic = bool(rng.random() < cfg.pi)
            if cfg.missing_rate > 0.0:
                keep = np.ones(cfg.n_followups, dtype=bool)
                keep[1:] = rng.random(cfg.n_followups - 1) >= cfg.missing_rate
                times = np.flatnonzero(keep)
            else:
                times = np.arange(cfg.n_followups)
            n_obs = times.size
            draws = rng.gamma(cfg.alpha, 1.0 / cfg.beta, size=n_obs if dynamic else 1)
            lams = draws if dynamic else np.repeat(draws, n_obs)
            obs_offsets = offsets[times]
            try:
                counts = np.minimum(rng.poisson(lams * obs_offsets), obs_offsets)
            except ValueError as exc:  # a mean beyond what the generator can draw from
                raise ValidationError(f"cannot draw Poisson counts: {exc}") from None

            clones.append((person_id, clone_id, counts, obs_offsets, times))
            labels.append(dynamic)
            lambdas.append(lams)

    # ids are zero-padded, so generation order is canonical order
    cohort = PackedCohort.from_clones(clones)
    truth = TruthLabels(cohort.person_id, cohort.clone_id, np.array(labels, dtype=bool))
    return cohort, truth, np.concatenate(lambdas)
