"""Two-component Gamma-Poisson mixture modeling of longitudinal clone counts.

Partitions T-cell receptor clonotype trajectories into dynamic clones,
whose per-read proportion is redrawn at every follow-up, and static
clones, whose proportion is shared across follow-ups.  Hyperparameters
are estimated by empirical Bayes with an EM algorithm; thresholded
responsibilities yield per-clone calls and cohort-level association
statistics.
"""

from .classify import (
    AssociationResult,
    Call,
    CallTable,
    ChiSquareResult,
    CloneCall,
    Direction,
    LogLinearResult,
    OperatingCharacteristics,
    PersonCounts,
    associate,
    chi_square_dichotomized,
    classify,
    dynamic_counts_per_person,
    loglinear_rate_ratio,
    operating_characteristics,
)
from .cohort import CohortTable, filter_clones, ingest
from .em import FitConfig, FitResult, convergence_stat, fit_em, m_step
from .errors import (
    CloneDynError,
    IdentifiabilityError,
    OptimizerError,
    ParseError,
    ValidationError,
)
from .model import CloneSeries, Hyperparams, PackedCohort, SeriesBatch
from .simulate import SimConfig, TruthLabels, simulate

__all__ = [
    "AssociationResult",
    "Call",
    "CallTable",
    "ChiSquareResult",
    "CloneCall",
    "CloneDynError",
    "CloneSeries",
    "CohortTable",
    "Direction",
    "FitConfig",
    "FitResult",
    "Hyperparams",
    "IdentifiabilityError",
    "LogLinearResult",
    "OperatingCharacteristics",
    "OptimizerError",
    "PackedCohort",
    "ParseError",
    "PersonCounts",
    "SeriesBatch",
    "SimConfig",
    "TruthLabels",
    "ValidationError",
    "associate",
    "chi_square_dichotomized",
    "classify",
    "convergence_stat",
    "dynamic_counts_per_person",
    "filter_clones",
    "fit_em",
    "ingest",
    "loglinear_rate_ratio",
    "m_step",
    "operating_characteristics",
    "simulate",
]
