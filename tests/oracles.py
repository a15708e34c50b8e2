"""Independent oracles used by the test suite.

The quadrature oracles evaluate the gamma-mixed Poisson marginals by direct
quadrature over the latent per-read rate, never through the conjugate
closed forms the package implements.  The integrand is integrated on the
log-rate axis, where it is strictly concave and free of endpoint
singularities:

    g(u) = A*u - B*exp(u) + K,   u = log(rate)

with A = sum(counts) + alpha, B = sum(offsets) + beta and K collecting
the rate-free terms.  Factorials are exact integers via math.factorial
and the remaining log-gamma comes from libm's lgamma, so no scipy.special
code is shared with the implementation under test.

The per-observation M-step objective evaluates the expected complete-data
log-likelihood the way the package did before it reduced it to weighted
histograms of distinct values: one pass of the batch's log-densities and
their gradients per evaluation, weighted by the responsibilities.

The row-by-row cohort reader at the end reads, validates and groups a
cohort table one record at a time with dicts, the way the package did
before it read cohorts into packed columns; the property tests hold the
packed reader to it.

The per-clone simulator, the offsets walk and the tuple-sorting cohort
writer after it are how the package simulated and wrote a cohort before
those stages worked on packed columns: one CloneSeries per clone, one
dict entry per observation, one Python tuple per row.  The table text
reference formats one value at a time, as the writers did before they
formatted whole columns.
"""

from __future__ import annotations

import csv
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad


def _rate_free_terms(counts, offsets, alpha: float, beta: float) -> float:
    k = alpha * math.log(beta) - math.lgamma(alpha)
    for c, o in zip(counts, offsets):
        if c > 0:
            k += c * math.log(o)
        k -= math.log(math.factorial(int(c)))
    return k


def _log_integral(a: float, b_tot: float) -> float:
    """log of integral exp(a*u - b_tot*exp(u)) du over the real line."""
    u_star = math.log(a / b_tot)

    def g(u: float) -> float:
        return a * (u - u_star) - b_tot * (math.exp(u) - math.exp(u_star))

    # expand outward until the integrand has dropped by >= 60 nats on each side
    lo = u_star - 1.0
    while g(lo) > -60.0:
        lo -= 1.0
    hi = u_star + 1.0
    while g(hi) > -60.0:
        hi += 1.0

    value, _ = quad(lambda u: math.exp(g(u)), lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)
    return math.log(value) + a * u_star - b_tot * math.exp(u_star)


def log_shared_rate_marginal(counts, offsets, alpha: float, beta: float) -> float:
    """log integral of prod_k Poisson(c_k; rate*o_k) * Gamma(rate; alpha, beta) d rate."""
    a_tot = float(sum(counts)) + alpha
    b_tot = float(sum(offsets)) + beta
    return _log_integral(a_tot, b_tot) + _rate_free_terms(counts, offsets, alpha, beta)


def log_per_time_marginal(counts, offsets, alpha: float, beta: float) -> float:
    """Sum of single-time shared-rate marginals: one integral per observation."""
    return math.fsum(
        log_shared_rate_marginal([c], [o], alpha, beta) for c, o in zip(counts, offsets)
    )


def mp_log_shared_rate_marginal(counts, offsets, alpha, beta, dps: int = 40) -> mp.mpf:
    """Extended-precision variant of log_shared_rate_marginal (mpmath quadrature)."""
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        beta = mp.mpf(beta)
        a_tot = mp.mpf(int(sum(counts))) + alpha
        b_tot = mp.mpf(int(sum(offsets))) + beta
        u_star = mp.log(a_tot / b_tot)
        peak = a_tot * u_star - b_tot * mp.exp(u_star)

        def f(u):
            return mp.exp(a_tot * u - b_tot * mp.exp(u) - peak)

        width = mp.mpf(1)
        while a_tot * (u_star - width) - b_tot * mp.exp(u_star - width) - peak > -150:
            width += 1
        hi = mp.mpf(1)
        while a_tot * (u_star + hi) - b_tot * mp.exp(u_star + hi) - peak > -150:
            hi += 1
        integral = mp.quad(f, [u_star - width, u_star, u_star + hi])

        k = alpha * mp.log(beta) - mp.loggamma(alpha)
        for c, o in zip(counts, offsets):
            c = int(c)
            if c > 0:
                k += c * mp.log(o)
            k -= mp.log(mp.factorial(c))
        return mp.log(integral) + peak + k


def mp_log_per_time_marginal(counts, offsets, alpha, beta, dps: int = 40) -> mp.mpf:
    with mp.workdps(dps):
        return mp.fsum(
            mp_log_shared_rate_marginal([c], [o], alpha, beta, dps=dps)
            for c, o in zip(counts, offsets)
        )


def mp_responsibility(counts, offsets, alpha, beta, pi, dps: int = 40) -> float:
    """Mixture posterior P(dynamic) assembled from the quadrature marginals."""
    with mp.workdps(dps):
        ld = mp_log_per_time_marginal(counts, offsets, alpha, beta, dps=dps)
        ls = mp_log_shared_rate_marginal(counts, offsets, alpha, beta, dps=dps)
        pi = mp.mpf(pi)
        wd = pi * mp.exp(ld)
        ws = (1 - pi) * mp.exp(ls)
        return float(wd / (wd + ws))


def m_step_objective(batch, r):
    """BFGS callback theta = (log alpha, log beta) -> (value, gradient) of
    sum_i r_i ld_i + (1 - r_i) ls_i, averaged over the batch's clones."""
    n = batch.n
    one_minus_r = 1.0 - r

    def weighted_value_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        with np.errstate(over="ignore"):
            alpha = float(np.exp(theta[0]))
            beta = float(np.exp(theta[1]))
        if not (math.isfinite(alpha) and math.isfinite(beta) and alpha > 0 and beta > 0):
            return -math.inf, np.zeros(2)
        ls, ld = batch.log_pmfs(alpha, beta)
        value = (r @ ld + one_minus_r @ ls) / n
        if not math.isfinite(value):
            return -math.inf, np.zeros(2)
        dls_da, dls_db, dld_da, dld_db = batch.log_pmf_grads(alpha, beta)
        grad_log_alpha = (r @ dld_da + one_minus_r @ dls_da) * (alpha / n)
        grad_log_beta = (r @ dld_db + one_minus_r @ dls_db) * (beta / n)
        return float(value), np.array([grad_log_alpha, grad_log_beta])

    return weighted_value_and_grad


def random_series_cases(rng: np.random.Generator, n_cases: int):
    """Random (counts, offsets, alpha, beta) tuples in the conjugacy test regime."""
    cases = []
    for _ in range(n_cases):
        t = int(rng.integers(1, 5))
        counts = rng.integers(0, 51, size=t)
        if counts.max() == 0:
            counts[int(rng.integers(0, t))] = int(rng.integers(1, 51))
        offsets = rng.integers(1, 100_001, size=t)
        offsets = np.maximum(offsets, counts)
        alpha = float(rng.uniform(0.1, 5.0))
        beta = float(rng.uniform(10.0, 1000.0))
        cases.append((counts, offsets, alpha, beta))
    return cases


class RowParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RowValidationError(Exception):
    pass


INT64_MAX = 2**63 - 1


def _row_int(value: str, what: str, line: int, minimum: int = 0) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise RowParseError(f"{what} is not an integer: {value!r}", line) from None
    if parsed < minimum:
        raise RowParseError(f"{what} must be >= {minimum}, got {parsed}", line)
    if parsed > INT64_MAX:
        raise RowParseError(f"{what} does not fit in a 64-bit integer: {value!r}", line)
    return parsed


def _row_records(path, width: int):
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        next(reader)
        records = []
        for line, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != width:
                raise RowParseError(f"{path}: expected {width} fields, got {len(record)}", line)
            for field in record:
                if field.startswith('"') or any(c in field for c in "\t\r\n"):
                    raise RowParseError(
                        f"{path}: field {field!r} cannot be written back to a table: it holds "
                        "a tab or line break, or starts with a quote",
                        line,
                    )
            records.append((record, line))
    if not records:
        raise RowValidationError(f"{path}: no data rows")
    return records


def row_ingest(path, offsets_path=None):
    """(rows, offsets) of a cohort table: rows are (person, time, clone, count)
    in file order, offsets the per person-time totals."""
    rows = []
    seen = set()
    derived: dict[tuple[str, int], int] = {}
    for (person, time, clone, count), line in _row_records(path, 4):
        time_index = _row_int(time, "time_index", line)
        count_value = _row_int(count, "count", line)
        key = (person, time_index, clone)
        if key in seen:
            raise RowParseError(f"duplicate (person_id, time_index, clone_id) {key}", line)
        seen.add(key)
        rows.append((person, time_index, clone, count_value))
        derived[(person, time_index)] = derived.get((person, time_index), 0) + count_value
    if offsets_path is None:
        for pt, total in derived.items():
            if total > INT64_MAX:
                raise RowValidationError(
                    f"person-time {pt} total reads do not fit in a 64-bit integer"
                )
        for pt, total in derived.items():
            if total <= 0:
                raise RowValidationError(
                    f"person-time {pt} has zero total reads; supply an explicit offsets file"
                )
        return rows, derived
    offsets = read_offsets_by_row(offsets_path)
    for person, time_index, clone, count in rows:
        total = offsets.get((person, time_index))
        if total is None:
            raise RowValidationError(
                f"offsets file does not cover person-time {(person, time_index)}"
            )
        if count > total:
            raise RowValidationError(
                f"count {count} for clone {clone!r} exceeds the offset {total} "
                f"at {(person, time_index)}"
            )
    return rows, offsets


def read_offsets_by_row(path):
    """offsets.tsv as a dict of total reads per (person, time), checked one record at a time."""
    offsets = {}
    for (person, time, total), line in _row_records(path, 3):
        key = (person, _row_int(time, "time_index", line))
        if key in offsets:
            raise RowParseError(f"duplicate person-time {key}", line)
        offsets[key] = _row_int(total, "total_reads", line, minimum=1)
    return offsets


def read_strata_by_row(path):
    """strata.tsv as a dict of stratum per person, checked one record at a time."""
    strata = {}
    for (person, stratum), line in _row_records(path, 2):
        value = _row_int(stratum, "stratum", line)
        if value not in (0, 1):
            raise RowParseError(f"stratum must be 0 or 1, got {value}", line)
        if person in strata:
            raise RowParseError(f"duplicate person {person!r}", line)
        strata[person] = value
    return strata


def row_filter(rows, offsets, min_total_reads: int, absent_as_zero: bool):
    """Kept clones as (person, clone, times, counts, offsets) tuples of lists,
    in (person, clone) order."""
    person_times: dict[str, list[int]] = {}
    for person, time_index in offsets:
        person_times.setdefault(person, []).append(time_index)
    for times in person_times.values():
        times.sort()
    by_clone: dict[tuple[str, str], dict[int, int]] = {}
    for person, time_index, clone, count in rows:
        by_clone.setdefault((person, clone), {})[time_index] = count
    out = []
    for person, clone in sorted(by_clone):
        observed = by_clone[(person, clone)]
        if sum(observed.values()) < min_total_reads:
            continue
        times = person_times[person] if absent_as_zero else sorted(observed)
        out.append(
            (
                person,
                clone,
                times,
                [observed.get(t, 0) for t in times],
                [offsets[(person, t)] for t in times],
            )
        )
    return out


def pack_clones(clones):
    """(person_id, clone_id, counts, offsets, times) tuples packed into a
    PackedCohort, in the order given, on a person-time table of one row per
    (person, time) the observations name.  Series that record two offsets
    at one person-time give that person-time two rows, which the
    constructor rejects."""
    from clonedyn.model import PackedCohort

    person_id, clone_id, counts, offsets, times = list(zip(*clones)) or [()] * 5
    n_times = np.fromiter(map(len, counts), np.int64, len(counts))
    keys = [
        (p, int(t), int(o)) for p, ts, os in zip(person_id, times, offsets) for t, o in zip(ts, os)
    ]
    table = sorted(set(keys))
    row = {key: r for r, key in enumerate(table)}
    pt_person, pt_time, pt_total = ([key[k] for key in table] for k in range(3))
    return PackedCohort(
        clone_id,
        np.cumsum(n_times) - n_times,
        np.concatenate([np.zeros(0, np.int64), *counts]),
        np.array([row[key] for key in keys], dtype=np.int64),
        pt_person,
        pt_time,
        pt_total,
    )


def pack(series):
    """The CloneSeries packed into a PackedCohort, in the order given."""
    return pack_clones((s.person_id, s.clone_id, s.counts, s.offsets, s.times) for s in series)


def simulate_series(cfg):
    """(series, labels, lambdas): the cohort drawn by cfg as one CloneSeries
    per clone, with the same generator calls in the same order as
    clonedyn.simulate."""
    from clonedyn.model import CloneSeries

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_persons)
    base, extra = divmod(cfg.n_clones, cfg.n_persons)
    clone_width = max(6, len(str(cfg.n_clones - 1)))
    person_width = max(3, len(str(cfg.n_persons - 1)))
    series, labels, lambdas = [], {}, {}
    clone_index = 0
    for j, child in enumerate(children):
        rng = np.random.default_rng(child)
        person_id = f"p{j:0{person_width}d}"
        offsets = np.maximum(
            np.ceil(rng.exponential(cfg.offset_mean, size=cfg.n_followups)), 1.0
        ).astype(np.int64)
        for _ in range(base + (1 if j < extra else 0)):
            clone_id = f"c{clone_index:0{clone_width}d}"
            clone_index += 1
            dynamic = bool(rng.random() < cfg.pi)
            if cfg.missing_rate > 0.0:
                keep = np.ones(cfg.n_followups, dtype=bool)
                keep[1:] = rng.random(cfg.n_followups - 1) >= cfg.missing_rate
                times = np.flatnonzero(keep)
            else:
                times = np.arange(cfg.n_followups)
            lams = rng.gamma(cfg.alpha, 1.0 / cfg.beta, size=times.size if dynamic else 1)
            obs_offsets = offsets[times]
            means = (lams if dynamic else lams[0]) * obs_offsets
            counts = np.minimum(rng.poisson(means), obs_offsets)
            series.append(CloneSeries(clone_id, person_id, counts, obs_offsets, times))
            labels[(person_id, clone_id)] = dynamic
            lambdas[(person_id, clone_id)] = lams
    return series, labels, lambdas


def offsets_by_walk(series):
    """Per-person-time totals of a series collection, walking every observation;
    RowValidationError at the first total that differs from one seen before."""
    offsets: dict[tuple[str, int], int] = {}
    for s in series:
        for t, o in zip(s.times, s.offsets):
            key = (s.person_id, int(t))
            if offsets.setdefault(key, int(o)) != int(o):
                raise RowValidationError(f"conflicting offsets recorded for person-time {key}")
    return offsets


def offset_columns(totals):
    """A {(person_id, time_index): total} dict as the (person_id, time_index,
    total_reads) columns, sorted on (person, time), that write_offsets takes."""
    keys = sorted(totals)
    return (
        np.array([p for p, _t in keys], dtype=object),
        np.array([t for _p, t in keys], dtype=np.int64),
        np.array([totals[key] for key in keys], dtype=np.int64),
    )


def cohort_text_by_sort(series) -> str:
    """cohort.tsv text of a series collection: one tuple per row, sorted on
    (person, time, clone)."""
    rows = [
        (s.person_id, int(t), s.clone_id, int(c))
        for s in series
        for t, c in zip(s.times, s.counts)
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    header = "person_id\ttime_index\tclone_id\tcount\n"
    return header + "".join(f"{p}\t{t}\t{c}\t{n}\n" for p, t, c, n in rows)


def write_strata(path, strata) -> None:
    """strata.tsv with one row per person, in person order."""
    lines = ["person_id\tstratum"] + [f"{p}\t{int(strata[p])}" for p in sorted(strata)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def read_responsibilities_by_row(path):
    """(person_id, clone_id, n_times, prob_dynamic) lists of responsibilities.tsv,
    checked one record at a time."""
    keys, n_times, prob = {}, [], []
    for (person, clone, n, value), line in _row_records(path, 4):
        if (person, clone) in keys:
            raise RowParseError(f"duplicate clone {(person, clone)}", line)
        keys[(person, clone)] = None
        try:
            prob.append(float(value))
        except ValueError:
            raise RowParseError(f"prob_dynamic is not a number: {value!r}", line) from None
        n_times.append(_row_int(n, "n_times", line, minimum=1))
        if not (math.isfinite(prob[-1]) and 0.0 <= prob[-1] <= 1.0):
            raise RowParseError(f"prob_dynamic must lie in [0, 1], got {value!r}", line)
    return [p for p, _ in keys], [c for _, c in keys], n_times, prob


def read_calls_by_row(path):
    """The CloneCall of each record of calls.tsv, checked one record at a time."""
    from clonedyn.classify import Call, CloneCall, Direction

    kinds = {
        ("dynamic", "expanding"): (Call.DYNAMIC, Direction.EXPANDING),
        ("dynamic", "contracting"): (Call.DYNAMIC, Direction.CONTRACTING),
        ("static", "na"): (Call.STATIC, Direction.NOT_APPLICABLE),
    }
    calls, keys = [], set()
    for (person, clone, prob, call, direction), line in _row_records(path, 5):
        if (person, clone) in keys:
            raise RowParseError(f"duplicate clone {(person, clone)}", line)
        keys.add((person, clone))
        kind = kinds.get((call, direction))
        if kind is None:
            raise RowParseError(
                f"call {call!r} with direction {direction!r}: expected dynamic with "
                "expanding or contracting, or static with na",
                line,
            )
        try:
            value = float(prob)
        except ValueError:
            raise RowParseError(f"prob_dynamic is not a number: {prob!r}", line) from None
        if not 0.0 <= value <= 1.0:
            raise RowParseError(f"prob_dynamic must lie in [0, 1], got {prob!r}", line)
        calls.append(CloneCall(person, clone, value, *kind))
    return calls


def read_truth_labels_by_row(path):
    """[person_id, clone_id, dynamic] lists of truth.tsv, checked one record at a time."""
    labels = {}
    for (person, clone, dynamic), line in _row_records(path, 3):
        if (person, clone) in labels:
            raise RowParseError(f"duplicate clone {(person, clone)}", line)
        value = _row_int(dynamic, "dynamic", line)
        if value not in (0, 1):
            raise RowParseError(f"dynamic must be 0 or 1, got {value}", line)
        labels[(person, clone)] = bool(value)
    return [[p for p, _ in labels], [c for _, c in labels], list(labels.values())]


def table_text_by_row(columns) -> str:
    """The text write_table writes for {name: column}, one value at a time: a
    str as it is, a bool as true or false, a float by repr, an integer by str."""

    def text(value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(int(value))

    rows = [list(columns), *zip(*columns.values())]
    return "".join("\t".join(map(text, row)) + "\n" for row in rows)
