"""Marginal log-densities for the two-component clone trajectory model.

A clone's template-read counts across its observed follow-up times are
Poisson draws around a latent per-read proportion scaled by each sample's
total reads.  The proportion is Gamma(alpha, beta) distributed and is
marginalized out analytically: once per clone for the static component
(a negative multinomial over the whole series) and once per time point
for the dynamic component (a product of negative binomials).  All
arithmetic is in natural-log space; counts can reach 1e4 and offsets 1e7
without overflow or underflow.

A PackedCohort observation is a count and a row of one person-time
table, which holds its time and offset: a total is held once per
person-time, not per observation.  ExpectedLoglik is the M-step's
objective: the responsibility-weighted sum of both log-densities over a
batch, evaluated on histograms of the batch's distinct values.

Every operation here is a pure function of its arguments and safe to map
over clones in parallel.

The special functions the model needs, log-gamma with its first two
derivatives (digamma and trigamma, from one kernel call, _log_gamma) and
the logistic (_expit), are small numpy kernels here, so the package's
only runtime dependency is numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError


def _check_columns(counts, offsets, order, starts, times) -> np.ndarray:
    """Check the int64 columns of series packed back to back, series i starting
    at starts[i], as one CloneSeries is checked; return the series' lengths.
    Within a series, order (the times, or the person-time rows) increases
    exactly when the times do; times holds every time."""
    if counts.ndim != 1 or np.any((n_times := np.diff(starts, append=counts.size)) < 1):
        raise ValidationError("counts must be a non-empty 1-d sequence")
    if offsets.shape != counts.shape:
        raise ValidationError(f"counts and offsets lengths differ: {counts.size} vs {offsets.size}")
    if np.any(counts < 0):
        raise ValidationError("counts must be non-negative")
    if np.any(offsets <= 0):
        raise ValidationError("offsets must be positive")
    if np.any(offsets < counts):
        raise ValidationError("each offset must be >= the matching count")
    if order.shape != counts.shape:
        raise ValidationError("times must align with counts")
    steps = np.diff(order)
    steps[starts[1:] - 1] = 1  # a series' first time follows nothing
    if np.any(times < 0) or np.any(steps <= 0):
        raise ValidationError("times must be non-negative and strictly increasing")
    return n_times


@dataclass(frozen=True)
class CloneSeries:
    """One clone's observed counts with the matching per-sample read totals.

    counts[k] is the clone's template reads at its k-th observed time and
    offsets[k] the total template reads of that person-time.  times[k]
    is the integer follow-up index of the observation; it defaults to
    0..T-1 and is used only for trend classification, never by the
    likelihood.
    """

    clone_id: str
    person_id: str
    counts: np.ndarray
    offsets: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        times = np.asarray(np.arange(counts.size) if self.times is None else self.times, np.int64)
        _check_columns(counts, offsets, times, np.zeros(1, dtype=np.int64), times)
        for name, arr in (("counts", counts), ("offsets", offsets), ("times", times)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def key(self) -> tuple[str, str]:
        return (self.person_id, self.clone_id)

    @property
    def n_times(self) -> int:
        return int(self.counts.size)


@dataclass(frozen=True)
class Hyperparams:
    """Gamma prior (shape alpha, rate beta on the proportion scale) and
    mixing weight pi = P(clone is dynamic)."""

    alpha: float
    beta: float
    pi: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")
        if not (math.isfinite(self.pi) and 0.0 < self.pi < 1.0):
            raise ValidationError(f"pi must lie strictly inside (0, 1), got {self.pi}")


# log-gamma, digamma and trigamma on [0, inf]: a value x below _SHIFT is
# raised to x + _SHIFT by the recurrence, and the Stirling / asymptotic
# series in 1/z is truncated where its next term is below 1e-15 relative
# at z = _SHIFT
_SHIFT = 8
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_GAMMALN_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
# the Bernoulli numbers B_2 to B_18: trigamma's terms fall more slowly
_TRIGAMMA_SERIES = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798
)  # fmt: skip


def _in_series(coefs: tuple[float, ...], s: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] * s ** (2k + 1)."""
    s2 = s * s
    acc = np.full_like(s, coefs[-1])
    for coef in coefs[-2::-1]:
        acc = acc * s2 + coef
    return acc * s


def _log_gamma(x, order: int = 0) -> tuple[np.ndarray, ...]:
    """log Gamma(x), then its derivatives up to the order-th (digamma at 1,
    trigamma at 2), for x in [0, inf], elementwise, from one shift, log and
    reciprocal: log-gamma is inf at 0 and at inf, digamma -inf at 0 and inf
    at inf, trigamma inf at 0 and 0 at inf."""
    z = np.array(x, dtype=np.float64, ndmin=1)
    small = z < _SHIFT
    low = z[small]
    z[small] += _SHIFT
    log_z, s = np.log(z), 1.0 / z
    # (z - 1/2)(log z - 1) rather than (z - 1/2) log z - z: inf, not nan, at inf
    out = [(z - 0.5) * (log_z - 1.0) + (_HALF_LOG_2PI - 0.5) + _in_series(_GAMMALN_SERIES, s)]
    if order >= 1:
        out.append(log_z - 0.5 * s - s * _in_series(_DIGAMMA_SERIES, s))
    if order >= 2:
        # 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k + 1)
        out.append(s + s * s * (0.5 + _in_series(_TRIGAMMA_SERIES, s)))
    # undo the shift: log Gamma(x) = log Gamma(x + _SHIFT) - log prod_k (x + k),
    # and the m-th derivative gains (-1)^m sum_k 1 / (x + k)^m
    with np.errstate(divide="ignore"):  # the poles at 0: log(0) = -inf, 1 / 0 = inf
        prod = low.copy()
        for k in range(1, _SHIFT):
            prod *= low + k
        out[0][small] -= np.log(prod)
        for m in range(1, order + 1):
            recip = 1.0 / (low + (_SHIFT - 1)) ** m
            for k in range(_SHIFT - 2, -1, -1):  # smallest terms first
                recip += 1.0 / (low + k) ** m
            out[m][small] += (-1) ** m * recip
    return tuple(values.reshape(np.shape(x)) for values in out)


def _gammaln(x):
    """log Gamma(x) for x in [0, inf], elementwise: inf at 0 and at inf."""
    return _log_gamma(x)[0]


def _digamma(x):
    """d/dx log Gamma(x) for x in [0, inf], elementwise: -inf at 0, inf at inf."""
    return _log_gamma(x, 1)[1]


def _expit(x):
    """1 / (1 + exp(-x)), elementwise: exactly 0 and 1 where exp saturates."""
    with np.errstate(over="ignore"):  # exp(-x) = inf gives exactly 0
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def _frozen(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def narrow_type(n: int) -> np.dtype:
    """The narrowest signed integer type that holds 0 to n."""
    return np.min_scalar_type(-n - 1)


def segment_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the ranges starts[i] : starts[i] + lengths[i], concatenated."""
    out_starts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - out_starts, lengths)


def strictly_increasing(*columns: np.ndarray) -> bool:
    """Whether the keys, one value from each column, strictly increase."""
    increasing, tied = np.zeros(max(columns[0].size - 1, 0), bool), True
    for column in columns:
        increasing |= tied & (column[1:] > column[:-1])
        tied &= column[1:] == column[:-1]
    return bool(increasing.all())


def changes(*columns: np.ndarray) -> np.ndarray:
    """Mask of the records whose key, one value from each column, differs
    from the record before (the first record's always does)."""
    new = np.zeros(columns[0].size, dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as np.unique(values) gives them; np.unique
    without an inverse, and np.union1d, import numpy.ma (over 10 ms)."""
    values = np.sort(values)
    return values[changes(values)]


def match_keys(table: Sequence[np.ndarray], keys: Sequence[np.ndarray]) -> np.ndarray:
    """Per key (one value from each column of keys), the row of the table
    columns that holds it, or -1 where none does; a key the table repeats
    gets its last row.

    Columns already equal match row for row.  Otherwise one stable lexsort
    of both key sets puts the table rows with a key right before the keys
    equal to it.
    """
    n = table[0].size
    if keys[0].size == n and all(map(np.array_equal, table, keys)):
        return np.arange(n)
    columns = [np.concatenate([t, k]) for t, k in zip(table, keys)]
    order = np.lexsort((np.arange(columns[0].size) >= n, *reversed(columns)))
    at = np.flatnonzero(order >= n)  # each key's place in the sorted keys
    # the last table row at or before each place, as a place and as a row
    before = np.maximum.accumulate(np.where(order < n, np.arange(order.size), -1))[at]
    row = np.where(before >= 0, order[before], 0)
    key = order[at]
    same = before >= 0
    for column in columns:
        same &= column[row] == column[key]
    rows = np.full(keys[0].size, -1, dtype=np.int64)
    rows[key - n] = np.where(same, row, -1)
    return rows


class PackedCohort:
    """Many clone series in one CSR table over one person-time table.

    Row r of the person-time table is a person pt_person[r], a time
    pt_time[r] and its total reads pt_total[r], the rows strictly increasing
    in (person, time): one total per person-time.  Clone i, clone_id[i]
    (object arrays of str, so an id costs its own length), owns the
    observations starts[i] up to starts[i + 1] (the last clone runs to the
    end): counts[k] sits on row obs_pt[k], all of them on rows of its
    person, person_id[i].  Construction checks, once and vectorized, the
    table's order and everything CloneSeries checks for one series; as a
    person has one row per time, a clone's times increase exactly when its
    rows do.  Indexing and iteration yield CloneSeries views built on demand.
    """

    def __init__(self, clone_id, starts, counts, obs_pt, pt_person, pt_time, pt_total):
        self.clone_id = _frozen(clone_id, object)
        self.starts = _frozen(starts, np.int64)
        self.counts = _frozen(counts, np.int64)
        self.pt_person = p = _frozen(pt_person, object)
        self.pt_time = t = _frozen(pt_time, np.int64)
        self.pt_total = o = _frozen(pt_total, np.int64)
        n = self.starts.size
        if self.starts.ndim != 1 or self.clone_id.shape != (n,):
            raise ValidationError("ids and starts must be 1-d and of equal length")
        if self.counts.ndim != 1 or (self.starts[0] != 0 if n else self.counts.size):
            raise ValidationError("counts must be 1-d with the first clone starting at 0")
        if o.ndim != 1 or p.shape != o.shape or t.shape != o.shape:
            raise ValidationError("the person-time columns must be 1-d and of equal length")
        obs_pt = np.asarray(obs_pt)
        integers = obs_pt.dtype.kind in "iu"
        if obs_pt.size and not (integers and obs_pt.min() >= 0 and obs_pt.max() < o.size):
            raise ValidationError(f"obs_pt must index the {o.size} rows of the person-time table")
        self.obs_pt = _frozen(obs_pt, narrow_type(o.size))
        if not strictly_increasing(p, t):
            raise ValidationError("person-time rows must increase in (person, time)")
        n_times = _check_columns(self.counts, o[self.obs_pt], self.obs_pt, self.starts, t)
        # the table is in person order: a clone's rows, which increase, are
        # all of one person when its first and last are
        person = np.append(0, np.cumsum(p[1:] != p[:-1]))
        first, last = self.obs_pt[self.starts], self.obs_pt[self.starts + n_times - 1]
        if np.any(person[first] != person[last]):
            raise ValidationError("a clone's observations must all be of one person")
        self.person_id = _frozen(p[first], object)
        self.n_times = _frozen(n_times, np.int64)

    @property
    def offsets(self) -> np.ndarray:
        """Per observation, its person-time's total reads: pt_total[obs_pt]."""
        return _frozen(self.pt_total[self.obs_pt], np.int64)

    @property
    def times(self) -> np.ndarray:
        """Per observation, its follow-up time: pt_time[obs_pt]."""
        return _frozen(self.pt_time[self.obs_pt], np.int64)

    def __len__(self) -> int:
        return int(self.starts.size)

    def __getitem__(self, i: int) -> CloneSeries:
        i = range(len(self))[i]
        span = slice(int(self.starts[i]), int(self.starts[i] + self.n_times[i]))
        rows = self.obs_pt[span]
        return CloneSeries(
            clone_id=str(self.clone_id[i]),
            person_id=str(self.person_id[i]),
            counts=self.counts[span],
            offsets=self.pt_total[rows],
            times=self.pt_time[rows],
        )

    def __iter__(self) -> Iterator[CloneSeries]:
        return (self[i] for i in range(len(self)))

    def segment_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-clone sums of a flat column, each accumulated left to right."""
        return np.add.reduceat(values, self.starts)

    def used_rows(self) -> np.ndarray:
        """The rows of the person-time table that some observation sits on, in order."""
        return np.flatnonzero(np.bincount(self.obs_pt, minlength=self.pt_total.size))

    def take(self, index) -> PackedCohort:
        """The clones at the given positions, in that order, on the same table."""
        index = np.asarray(index, dtype=np.int64)
        n_times = self.n_times[index]
        flat = segment_rows(self.starts[index], n_times)
        return PackedCohort(
            self.clone_id[index],
            np.cumsum(n_times) - n_times,
            self.counts[flat],
            self.obs_pt[flat],
            self.pt_person,
            self.pt_time,
            self.pt_total,
        )

    def sorted(self) -> PackedCohort:
        """The clones in canonical (person_id, clone_id) order; self if already
        so with no key repeated."""
        p, c = self.person_id, self.clone_id
        return self if strictly_increasing(p, c) else self.take(np.lexsort((c, p)))


class SeriesBatch:
    """Column-packed view of many clone series for vectorized evaluation.

    Transcendentals are evaluated once per distinct input value and
    gathered, and per-series reductions run left to right, so each
    series' log-densities come out bit-identical whether it is evaluated
    alone or inside a larger batch.  The batch keeps the order of the
    clones it is given.
    """

    def __init__(self, cohort: PackedCohort):
        if not len(cohort):
            raise ValidationError("need at least one clone series")
        self.cohort = cohort
        self.n = len(cohort)
        self.t = cohort.n_times.astype(np.float64)
        self._segment_sum = cohort.segment_sums

        flat_c = cohort.counts.astype(np.float64)
        self._flat_c = flat_c
        # distinct offsets of the table rows in use: a total no observation
        # has would add a zero weight to ExpectedLoglik's histograms, which
        # regroups their pairwise sums
        self._uniq_o = distinct(cohort.pt_total[cohort.used_rows()].astype(np.float64))
        self._inv_o = np.searchsorted(self._uniq_o, cohort.pt_total)[cohort.obs_pt]
        flat_o = self._uniq_o[self._inv_o]

        self.csum = self._segment_sum(flat_c)
        self.osum = self._segment_sum(flat_o)

        # distinct-value tables for the (alpha, beta)-dependent terms
        self._uniq_c, self._inv_c = np.unique(flat_c, return_inverse=True)
        self._sum_lgamma_c1 = self._segment_sum(_gammaln(self._uniq_c + 1.0)[self._inv_c])
        self._uniq_csum, self._inv_csum = np.unique(self.csum, return_inverse=True)
        self._uniq_osum, self._inv_osum = np.unique(self.osum, return_inverse=True)
        # alpha plus each distinct count, each distinct count sum and 0: a
        # kernel takes all three at once, as a numpy call costs tens of
        # microseconds whatever its size
        self._shapes = np.concatenate([self._uniq_c, self._uniq_csum, [0.0]])
        self._cuts = (self._uniq_c.size, self._uniq_c.size + self._uniq_csum.size)

        # sum_k c_k * log(o_k), with 0 * log(o) pinned to zero for zero counts
        log_o = np.log(self._uniq_o)[self._inv_o]
        self._sum_c_log_o = self._segment_sum(np.where(flat_c > 0.0, flat_c * log_o, 0.0))

    def log_pmfs(self, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-series static and dynamic marginal log-densities at (alpha, beta).

        With S_C and S_O a series' count and offset sums, the static
        log-density (a negative multinomial) is

            lgamma(S_C + alpha) - lgamma(alpha) - sum_k lgamma(c_k + 1)
            + alpha * (log beta - log(beta + S_O))
            + sum_k c_k * log(o_k) - S_C * log(beta + S_O)

        and the dynamic one (a product of negative binomials) is the sum of
        that expression over the observations, each taken alone.
        """
        if not (alpha > 0 and beta > 0):
            raise ValidationError(f"alpha and beta must be positive, got {alpha}, {beta}")
        log_beta = math.log(beta)
        gl_c, gl_csum, gl_alpha = _split(_gammaln(self._shapes + alpha), self._cuts)

        log_b_osum = np.log(self._uniq_osum + beta)[self._inv_osum]
        ls = (
            gl_csum[self._inv_csum]
            - gl_alpha
            - self._sum_lgamma_c1
            + alpha * (log_beta - log_b_osum)
            + self._sum_c_log_o
            - self.csum * log_b_osum
        )

        log_b_o = np.log(self._uniq_o + beta)[self._inv_o]
        ld = (
            self._segment_sum(gl_c[self._inv_c])
            - self.t * gl_alpha
            - self._sum_lgamma_c1
            + alpha * (self.t * log_beta - self._segment_sum(log_b_o))
            + self._sum_c_log_o
            - self._segment_sum(self._flat_c * log_b_o)
        )
        return ls, ld

    def log_pmf_grads(
        self, alpha: float, beta: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-series d/d alpha and d/d beta of both marginal log-densities.

        Returns (dls_da, dls_db, dld_da, dld_db).
        """
        if not (alpha > 0 and beta > 0):
            raise ValidationError(f"alpha and beta must be positive, got {alpha}, {beta}")
        log_beta = math.log(beta)
        dg_alpha = float(_digamma(alpha))
        a_over_b = alpha / beta

        b_osum = self._uniq_osum + beta
        log_b_osum = np.log(b_osum)[self._inv_osum]
        dls_da = _digamma(self._uniq_csum + alpha)[self._inv_csum] - dg_alpha + log_beta - log_b_osum
        dls_db = a_over_b - (self.csum + alpha) / b_osum[self._inv_osum]

        b_o = self._uniq_o + beta
        log_b_o = np.log(b_o)[self._inv_o]
        dld_da = (
            self._segment_sum(_digamma(self._uniq_c + alpha)[self._inv_c])
            - self.t * dg_alpha
            + self.t * log_beta
            - self._segment_sum(log_b_o)
        )
        dld_db = self.t * a_over_b - self._segment_sum((self._flat_c + alpha) / b_o[self._inv_o])
        return dls_da, dls_db, dld_da, dld_db


def _split(values: np.ndarray, cuts: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, float]:
    """A kernel's values on SeriesBatch's shapes: (per distinct count, per
    distinct count sum, at alpha)."""
    i, j = cuts
    return values[:i], values[i:j], float(values[j])


def _dot(w: np.ndarray, x: np.ndarray) -> float:
    # numpy's pairwise sum of the products: a BLAS dot may split long
    # vectors across threads, which costs more than the sum at these sizes
    # and makes the result depend on the thread count
    return float(np.sum(w * x))


class ExpectedLoglik:
    """Q(alpha, beta): the expected complete-data log-likelihood of the Gamma
    prior at fixed responsibilities r, less its (alpha, beta)-free terms.

    By conjugacy each clone's two log-densities depend on (alpha, beta)
    only through its counts and offsets (dynamic component, one term per
    observation) and its count and offset sums (static component), so Q
    is a weighted sum over the batch's distinct values of each:

        Q = sum_c W(c) lgamma(c + alpha) - S lgamma(alpha) + S alpha log(beta)
            - sum_o (alpha W(o) + WC(o)) log(o + beta)
            + sum_C V(C) lgamma(C + alpha)
            - sum_O (alpha V(O) + VC(O)) log(O + beta)

    where W and WC sum r and r * count over the observations with that
    count or offset, V and VC sum (1 - r) and (1 - r) * count sum over the
    clones with that count or offset sum, and S = sum r * n_times + sum (1 - r)
    is the expected number of Gamma-distributed proportions drawn.
    The histograms are built once; each evaluation then costs
    O(#distinct values), not O(#observations).
    """

    def __init__(self, batch: SeriesBatch, r: np.ndarray):
        self.n = batch.n
        r_obs = np.repeat(r, batch.cohort.n_times)
        one_minus_r = 1.0 - r
        self._c, self._o = batch._uniq_c, batch._uniq_o
        self._csum, self._osum = batch._uniq_csum, batch._uniq_osum
        self._shapes, self._cuts = batch._shapes, batch._cuts
        self._w_c = np.bincount(batch._inv_c, r_obs, self._c.size)
        self._w_o = np.bincount(batch._inv_o, r_obs, self._o.size)
        self._wc_o = np.bincount(batch._inv_o, r_obs * batch._flat_c, self._o.size)
        self._v_csum = np.bincount(batch._inv_csum, one_minus_r, self._csum.size)
        self._v_osum = np.bincount(batch._inv_osum, one_minus_r, self._osum.size)
        self._vc_osum = np.bincount(batch._inv_osum, one_minus_r * batch.csum, self._osum.size)
        self._n_draws = _dot(r, batch.t) + float(one_minus_r.sum())

    def in_log_coords(self, theta: np.ndarray, order: int = 1) -> tuple:
        """Q / n and its gradient in (log alpha, log beta), the BFGS objective,
        plus at order 2 its Hessian there, all from one kernel pass; -inf, a
        zero gradient and a nan Hessian where exp(theta) leaves (0, inf) or
        Q is not finite.

        Q's partials in (alpha, beta), Q_a and Q_b, are sums over the same
        histograms with digamma where Q has log-gamma, and with trigamma its
        second partials are

            Q_aa = sum_c W(c) trigamma(c + alpha) + sum_C V(C) trigamma(C + alpha)
                   - S trigamma(alpha)
            Q_ab = S / beta - sum_o W(o) / (o + beta) - sum_O V(O) / (O + beta)
            Q_bb = -S alpha / beta^2 + sum_o (alpha W(o) + WC(o)) / (o + beta)^2
                   + sum_O (alpha V(O) + VC(O)) / (O + beta)^2

        In log coordinates the gradient is (alpha Q_a, beta Q_b) / n and the Hessian
        [[alpha Q_a + alpha^2 Q_aa, alpha beta Q_ab], [., beta Q_b + beta^2 Q_bb]] / n.
        """
        failed = (-math.inf, np.zeros(2), np.full((2, 2), math.nan))[: order + 1]
        with np.errstate(over="ignore", invalid="ignore"):  # far out: inf or nan, then failed
            alpha, beta = float(np.exp(theta[0])), float(np.exp(theta[1]))
            if not (math.isfinite(alpha) and math.isfinite(beta) and alpha > 0 and beta > 0):
                return failed
            s, n = self._n_draws, self.n
            log_beta = math.log(beta)
            b_o, b_osum = self._o + beta, self._osum + beta
            log_b_o, log_b_osum = np.log(b_o), np.log(b_osum)
            inv_b_o, inv_b_osum = 1.0 / b_o, 1.0 / b_osum
            w_o = alpha * self._w_o + self._wc_o
            w_osum = alpha * self._v_osum + self._vc_osum
            kernels = [_split(k, self._cuts) for k in _log_gamma(self._shapes + alpha, order)]
            (gl_c, gl_csum, gl_alpha), (dg_c, dg_csum, dg_alpha) = kernels[:2]
            value = (
                _dot(self._w_c, gl_c)
                + _dot(self._v_csum, gl_csum)
                - s * (gl_alpha - alpha * log_beta)
                - _dot(w_o, log_b_o)
                - _dot(w_osum, log_b_osum)
            )
            if not math.isfinite(value):
                return failed
            d_alpha = (
                _dot(self._w_c, dg_c)
                + _dot(self._v_csum, dg_csum)
                - s * (dg_alpha - log_beta)
                - _dot(self._w_o, log_b_o)
                - _dot(self._v_osum, log_b_osum)
            )
            d_beta = s * alpha / beta - _dot(w_o, inv_b_o) - _dot(w_osum, inv_b_osum)
            gradient = np.array([d_alpha * (alpha / n), d_beta * (beta / n)])
            if order < 2:
                return value / n, gradient
            tg_c, tg_csum, tg_alpha = kernels[2]
            d_aa = _dot(self._w_c, tg_c) + _dot(self._v_csum, tg_csum) - s * tg_alpha
            d_ab = s / beta - _dot(self._w_o, inv_b_o) - _dot(self._v_osum, inv_b_osum)
            d_bb = (
                _dot(w_o, 1.0 / (b_o * b_o))
                + _dot(w_osum, 1.0 / (b_osum * b_osum))
                - s * alpha / (beta * beta)
            )
            h_aa = alpha * d_alpha + alpha * alpha * d_aa
            h_ab = alpha * beta * d_ab
            h_bb = beta * d_beta + beta * beta * d_bb
        return value / n, gradient, np.array([[h_aa, h_ab], [h_ab, h_bb]]) / n


def stable_responsibility(ls, ld, pi: float):
    """P(dynamic) from the two log-densities via a logistic of the prior
    log-odds plus ld - ls, never by exponentiating either density.

    Exactly equal component densities carry no information, so the
    posterior is pinned to the prior there (also makes single-timepoint
    series return pi exactly).
    """
    delta = np.asarray(ld) - np.asarray(ls)
    log_odds_prior = math.log(pi) - math.log1p(-pi)
    return np.where(delta == 0.0, pi, _expit(log_odds_prior + delta))
