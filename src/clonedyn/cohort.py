"""Tabular cohort ingestion, filtering, and deterministic file output.

Cohort files are UTF-8, tab-delimited, with a header row and long-format
records (person_id, time_index, clone_id, count).  Per-person-time
offsets are derived as the sum of counts over all clones at that
person-time, before any filtering, unless an explicit offsets sidecar is
supplied (simulated cohorts need one, because their counts are draws
around exogenous totals rather than a partition of them).

The cohort is read block by block straight into columns and held as one
packed table (see PackedCohort): no per-row or per-clone objects are made
on the way from file to fit.  Validation runs once over whole columns;
when a check fails, the offending record is looked up again so the error
names it.

All writers emit a canonical row order and shortest round-trip float
formatting, and replace the target file atomically.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .model import CloneSeries, PackedCohort, as_packed, segment_rows
from .simulate import SimTruth, TruthLabels

COHORT_COLUMNS = ("person_id", "time_index", "clone_id", "count")
OFFSETS_COLUMNS = ("person_id", "time_index", "total_reads")
STRATA_COLUMNS = ("person_id", "stratum")
TRUTH_COLUMNS = ("person_id", "clone_id", "dynamic")

INT64_MAX = int(np.iinfo(np.int64).max)
BLOCK_CHARS = 1 << 20  # text read at a time on the fast path
BLOCK_RECORDS = 1 << 16  # records parsed at a time by csv.reader


class CohortRows:
    """(person_id, time_index, clone_id, count) records of a packed cohort,
    in its order; built only when iterated."""

    def __init__(self, cohort: PackedCohort):
        self._cohort = cohort

    def __len__(self) -> int:
        return int(self._cohort.counts.size)

    def __iter__(self) -> Iterator[tuple[str, int, str, int]]:
        c = self._cohort
        return zip(
            np.repeat(c.person_id, c.n_times).tolist(),
            c.times.tolist(),
            np.repeat(c.clone_id, c.n_times).tolist(),
            c.counts.tolist(),
        )


@dataclass(frozen=True, eq=False)
class CohortTable:
    """Validated long-format cohort in columns, with its person-time totals.

    observed holds every clone with the rows it has, in (person_id,
    clone_id, time_index) order and with its offsets filled in; obs_pt
    gives the row of the person-time table (pt_person, pt_time, pt_total,
    sorted by person then time) behind each observation.  The person-time
    table is the offsets sidecar when one was given, else the per
    person-time sums of the unfiltered rows.
    """

    observed: PackedCohort
    obs_pt: np.ndarray
    pt_person: np.ndarray
    pt_time: np.ndarray
    pt_total: np.ndarray

    @property
    def rows(self) -> CohortRows:
        return CohortRows(self.observed)


def _columns(records: list[list[str]], lines: np.ndarray, width: int, path: Path):
    """Columns of the non-blank records; ParseError for a wrong field count."""
    if any(len(r) != width for r in records):
        for record, line in zip(records, lines.tolist()):
            if record and len(record) != width:
                raise ParseError(f"{path}: expected {width} fields, got {len(record)}", line)
        lines = lines[[bool(r) for r in records]]
        records = [r for r in records if r]
    flat = list(itertools.chain.from_iterable(records))
    return [flat[i::width] for i in range(width)], lines


def _csv_blocks(reader, lineno: int, width: int, path: Path):
    while records := list(itertools.islice(reader, BLOCK_RECORDS)):
        yield _columns(records, np.arange(lineno, lineno + len(records)), width, path)
        lineno += len(records)


def _blocks(handle, width: int, path: Path):
    """Every block of data records after the header, blank-only ones included."""
    limit = csv.field_size_limit()
    lineno = 2
    while text := handle.read(BLOCK_CHARS):
        if not text.endswith("\n"):
            text += handle.readline()
        if '"' not in text:
            text = text.replace("\r\n", "\n")  # unquoted CRLF records split as LF ones do
        if '"' in text or "\r" in text:
            # a quoted field may run past the block: csv.reader takes over
            rest = itertools.chain(io.StringIO(text, newline=""), handle)
            yield from _csv_blocks(csv.reader(rest, delimiter="\t"), lineno, width, path)
            return
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        numbers = np.arange(lineno, lineno + len(lines))
        lineno += len(lines)
        if (
            set(map(str.count, lines, itertools.repeat("\t"))) != {width - 1}
            or max(map(len, lines)) > limit
        ):
            yield _columns(list(csv.reader(lines, delimiter="\t")), numbers, width, path)
        else:
            flat = text.replace("\n", "\t").split("\t")
            if text.endswith("\n"):
                flat.pop()
            yield [flat[i::width] for i in range(width)], numbers


def _read_blocks(
    path: str | Path, columns: Sequence[str]
) -> Iterator[tuple[list[list[str]], np.ndarray]]:
    """Data records of a TSV with a header, as (columns of strings, line numbers) per block.

    Fields are what csv.reader with a tab delimiter gives.  A block of
    text with no quote, lone carriage return, blank line, overlong
    line or wrong field count is split on tabs and newlines directly,
    which gives the same fields; from the first quote or lone carriage
    return on, csv.reader parses the rest of the file.  Line numbers
    count records from 2, the header being 1, blank ones included.
    """
    path = Path(path)
    any_rows = False
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            header = next(csv.reader(handle, delimiter="\t"), None)
            if header is None:
                raise ValidationError(f"{path}: file is empty")
            if header != list(columns):
                raise ParseError(f"{path}: expected header {list(columns)}, got {header}", line=1)
            for block in _blocks(handle, len(columns), path):
                if len(block[1]):
                    any_rows = True
                    yield block
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not any_rows:
        raise ValidationError(f"{path}: no data rows")


def _read_columns(path: str | Path, columns: Sequence[str]) -> tuple[list[list[str]], np.ndarray]:
    """Every data record of a TSV with a header, as one list of fields per
    column, and the records' line numbers."""
    blocks = list(_read_blocks(path, columns))
    return (
        [list(itertools.chain.from_iterable(b[0][j] for b in blocks)) for j in range(len(columns))],
        np.concatenate([b[1] for b in blocks]),
    )


def _parse_int(value: str, what: str, lineno: int, minimum: int = 0) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {value!r}", lineno) from None
    if parsed < minimum:
        raise ParseError(f"{what} must be >= {minimum}, got {parsed}", lineno)
    if parsed > INT64_MAX:
        raise ParseError(f"{what} does not fit in a 64-bit integer: {value!r}", lineno)
    return parsed


def _int_column(values: Sequence[str], minimum: int = 0) -> np.ndarray:
    """int() of every value as int64; ValueError unless all lie in [minimum, INT64_MAX]."""
    try:
        parsed = np.array(list(map(int, values)), dtype=np.int64)
    except OverflowError:
        raise ValueError("integer out of the int64 range") from None
    if parsed.size and parsed.min() < minimum:
        raise ValueError(f"integer below {minimum}")
    return parsed


def _first_bad_record(cols, lines: np.ndarray, checks) -> tuple[int, ParseError]:
    """Index and ParseError of the first record failing one of (column, name, minimum)."""
    for i, line in enumerate(lines.tolist()):
        for column, what, minimum in checks:
            try:
                _parse_int(cols[column][i], what, line, minimum)
            except ParseError as exc:
                return i, exc
    raise AssertionError("no record fails the checks")  # pragma: no cover


def _int_values(values: Sequence[str], minimum: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """int64 of every value, and a mask of the values that are not integers in
    [minimum, INT64_MAX] (0 there)."""
    try:
        parsed = _int_column(values, minimum)
        return parsed, np.zeros(parsed.size, dtype=bool)
    except ValueError:
        parsed = np.zeros(len(values), dtype=np.int64)
        bad = np.zeros(len(values), dtype=bool)
        for i, value in enumerate(values):
            try:
                parsed[i] = _parse_int(value, "", 0, minimum)
            except ParseError:
                bad[i] = True
        return parsed, bad


def _float_values(values: Sequence[str]) -> np.ndarray:
    """float() of every value; nan where float() fails."""
    try:
        return np.fromiter(map(float, values), np.float64, len(values))
    except ValueError:
        parsed = np.full(len(values), np.nan)
        for i, value in enumerate(values):
            try:
                parsed[i] = float(value)
            except ValueError:
                pass
        return parsed


def _repeats(person: np.ndarray, clone: np.ndarray) -> np.ndarray:
    """Mask of the records whose (person, clone) key an earlier record has."""
    p, c = person, clone
    if np.all((p[1:] > p[:-1]) | ((p[1:] == p[:-1]) & (c[1:] > c[:-1]))):
        return np.zeros(p.size, dtype=bool)  # strictly increasing, as fit and classify write
    # setdefault gives each record the position of its key's first record
    first: dict[tuple[str, str], int] = {}
    positions = map(first.setdefault, zip(p.tolist(), c.tolist()), range(p.size))
    return np.fromiter(positions, np.int64, p.size) != np.arange(p.size)


def _key_columns(cols: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The person_id and clone_id columns (the first two) as object arrays."""
    return np.array(cols[0], dtype=object), np.array(cols[1], dtype=object)


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment int64 sums of non-negative values, saturated at INT64_MAX, and
    a mask of the segments whose exact sum does not fit in int64."""
    sums = np.add.reduceat(values, starts)
    overflow = np.zeros(starts.size, dtype=bool)
    ends = np.append(starts[1:], values.size)
    # float sums flag the only segments that can have wrapped around
    for i in np.flatnonzero(np.add.reduceat(values.astype(np.float64), starts) >= 2.0**62):
        overflow[i] = sum(values[starts[i] : ends[i]].tolist()) > INT64_MAX
    sums[overflow] = INT64_MAX
    return sums, overflow


def read_strata(path: str | Path) -> dict[str, int]:
    strata: dict[str, int] = {}
    cols, lines = _read_columns(path, STRATA_COLUMNS)
    for person, stratum, lineno in zip(*cols, lines.tolist()):
        value = _parse_int(stratum, "stratum", lineno)
        if value not in (0, 1):
            raise ParseError(f"stratum must be 0 or 1, got {value}", lineno)
        if person in strata:
            raise ParseError(f"duplicate person {person!r}", lineno)
        strata[person] = value
    return strata


def read_offsets(path: str | Path) -> dict[tuple[str, int], int]:
    offsets: dict[tuple[str, int], int] = {}
    cols, lines = _read_columns(path, OFFSETS_COLUMNS)
    for person, time, total, lineno in zip(*cols, lines.tolist()):
        key = (person, _parse_int(time, "time_index", lineno))
        if key in offsets:
            raise ParseError(f"duplicate person-time {key}", lineno)
        offsets[key] = _parse_int(total, "total_reads", lineno, minimum=1)
    return offsets


def read_truth_labels(path: str | Path) -> TruthLabels:
    """truth.tsv: one row per clone, dynamic 0 or 1; columns in file order."""
    cols, lines = _read_columns(path, TRUTH_COLUMNS)
    person, clone = _key_columns(cols)
    dynamic, bad = _int_values(cols[2])
    repeated = _repeats(person, clone)
    failing = np.flatnonzero(repeated | bad | (dynamic > 1))
    if failing.size:
        i = failing[0]
        line = int(lines[i])
        if repeated[i]:
            raise ParseError(f"duplicate clone {(person[i], clone[i])}", line)
        value = _parse_int(cols[2][i], "dynamic", line)
        raise ParseError(f"dynamic must be 0 or 1, got {value}", line)
    return TruthLabels(person, clone, dynamic == 1)


def _ranked(values: np.ndarray, first: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids in sorted order, and each value's position among them.

    values holds, for each record, the position of the first record with
    the same id; first maps each id to that position.
    """
    names = sorted(first)
    rank = np.zeros(values.size, dtype=np.int64)
    rank[np.fromiter(map(first.__getitem__, names), np.int64, len(names))] = np.arange(len(names))
    return np.array(names, dtype=object), rank[values]


def _read_cohort_columns(path: Path):
    """Sorted distinct person and clone ids; person, clone, time, count and
    line columns of every parsable record, in file order, with each id as
    its position among the sorted ones; and the ParseError of the first
    unparsable record (or None).

    Each id is held once, however many records name it.  Records after an
    unparsable one are still read, so a wrong field count anywhere in the
    file is reported first, as a whole-file check would.
    """
    first_person: dict[str, int] = {}
    first_clone: dict[str, int] = {}
    position = 0
    parts: list[tuple[np.ndarray, ...]] = []
    error = None
    for cols, lines in _read_blocks(path, COHORT_COLUMNS):
        if error is not None:
            continue
        try:
            times, counts = _int_column(cols[1]), _int_column(cols[3])
        except ValueError:
            n, error = _first_bad_record(cols, lines, ((1, "time_index", 0), (3, "count", 0)))
            times, counts = _int_column(cols[1][:n]), _int_column(cols[3][:n])
            cols, lines = [c[:n] for c in cols], lines[:n]
        # setdefault keeps the position of an id's first record
        at = range(position, position + lines.size)
        position += lines.size
        person = np.fromiter(map(first_person.setdefault, cols[0], at), np.int64, lines.size)
        clone = np.fromiter(map(first_clone.setdefault, cols[2], at), np.int64, lines.size)
        parts.append((person, clone, times, counts, lines))
    person, clone, time, count, line = (np.concatenate(c) for c in zip(*parts))
    person_names, person = _ranked(person, first_person)
    clone_names, clone = _ranked(clone, first_clone)
    return person_names, clone_names, person, clone, time, count, line, error


def _person_time_keys(person_names, person, time, pt_person, pt_time):
    """Integer keys that order like (person, time) pairs: of the rows, whose
    person is a position in person_names, and of the table (pt_person, pt_time)."""
    names = np.unique(np.concatenate([person_names, pt_person]))
    values = np.unique(np.concatenate([time, pt_time]))
    return (
        np.searchsorted(names, person_names)[person] * values.size + np.searchsorted(values, time),
        np.searchsorted(names, pt_person) * values.size + np.searchsorted(values, pt_time),
    )


def ingest(path: str | Path, offsets_path: str | Path | None = None) -> CohortTable:
    """Read and validate a cohort table.

    Offsets are computed from the full, unfiltered table so they reflect
    the whole repertoire; an explicit offsets file overrides the derived
    sums (it must cover every person-time and dominate every count).
    """
    person_names, clone_names, person, clone, time, count, line, error = _read_cohort_columns(
        Path(path)
    )

    order = np.lexsort((time, clone, person))  # stable: ties stay in file order
    person, clone, time, count, line = (a[order] for a in (person, clone, time, count, line))
    same_clone = (person[1:] == person[:-1]) & (clone[1:] == clone[:-1])
    repeats = np.flatnonzero(same_clone & (time[1:] == time[:-1])) + 1
    if repeats.size:
        # the earliest record that repeats a key seen before it; every record
        # read comes before the first unparsable one
        i = repeats[np.argmin(line[repeats])]
        dup_key = (person_names[person[i]], int(time[i]), clone_names[clone[i]])
        raise ParseError(f"duplicate (person_id, time_index, clone_id) {dup_key}", int(line[i]))
    if error is not None:
        raise error

    if offsets_path is not None:
        sidecar = sorted(read_offsets(offsets_path).items())
        pt_person = np.array([p for (p, _), _ in sidecar], dtype=object)
        pt_time = np.array([t for (_, t), _ in sidecar], dtype=np.int64)
        pt_total = np.array([total for _, total in sidecar], dtype=np.int64)
        row_key, pt_key = _person_time_keys(person_names, person, time, pt_person, pt_time)
        obs_pt = np.minimum(np.searchsorted(pt_key, row_key), pt_key.size - 1)
        covered = pt_key[obs_pt] == row_key
        bad = np.flatnonzero(~covered | (count > pt_total[obs_pt]))
        if bad.size:
            i = bad[np.argmin(line[bad])]
            pt = (person_names[person[i]], int(time[i]))
            if not covered[i]:
                raise ValidationError(f"offsets file does not cover person-time {pt}")
            raise ValidationError(
                f"count {int(count[i])} for clone {clone_names[clone[i]]!r} exceeds the "
                f"offset {int(pt_total[obs_pt[i]])} at {pt}"
            )
    else:
        row_key, _ = _person_time_keys(person_names, person, time, person_names[:0], time[:0])
        pt_key, obs_pt = np.unique(row_key, return_inverse=True)
        by_pt = np.argsort(obs_pt, kind="stable")
        pt_rows = np.flatnonzero(np.diff(obs_pt[by_pt], prepend=-1))
        pt_person, pt_time = person_names[person[by_pt[pt_rows]]], time[by_pt[pt_rows]]
        pt_total, overflow = _segment_sums(count[by_pt], pt_rows)
        # report the person-time whose first record comes first, as a row loop would
        for failing, message in (
            (overflow, "total reads do not fit in a 64-bit integer"),
            (pt_total <= 0, "has zero total reads; supply an explicit offsets file"),
        ):
            rows = np.flatnonzero(failing[obs_pt])
            if rows.size:
                i = rows[np.argmin(line[rows])]
                pt = (person_names[person[i]], int(time[i]))
                raise ValidationError(f"person-time {pt} {message}")

    starts = np.flatnonzero(np.concatenate([[True], ~same_clone]))
    observed = PackedCohort(
        person_names[person[starts]],
        clone_names[clone[starts]],
        starts,
        count,
        pt_total[obs_pt],
        time,
    )
    return CohortTable(observed, obs_pt, pt_person, pt_time, pt_total)


def filter_clones(
    table: CohortTable,
    min_total_reads: int,
    absent_as_zero: bool = True,
) -> PackedCohort:
    """Pack the clones whose recorded counts sum to at least min_total_reads,
    in canonical (person_id, clone_id) order.

    With absent_as_zero, a kept clone also gets an explicit zero count at
    every person-time where its person was sampled but the clone had no
    row, so contractions to zero stay in the model.  Offsets always come
    from the unfiltered table.
    """
    if min_total_reads < 0:
        raise ValidationError("min_total_reads must be >= 0")
    if min_total_reads > INT64_MAX:
        raise ValidationError("min_total_reads does not fit in a 64-bit integer")

    obs = table.observed
    totals, _ = _segment_sums(obs.counts, obs.starts)
    keep = np.flatnonzero(totals >= min_total_reads)
    if not absent_as_zero:
        return obs.take(keep)

    # each person's sampled times are one block of the person-time table
    new_person = np.concatenate([[True], table.pt_person[1:] != table.pt_person[:-1]])
    block_start = np.flatnonzero(new_person)
    block_len = np.diff(block_start, append=table.pt_person.size)
    block = (np.cumsum(new_person) - 1)[table.obs_pt[obs.starts[keep]]]
    n_times = block_len[block]
    starts = np.cumsum(n_times) - n_times
    pt_rows = segment_rows(block_start[block], n_times)

    # scatter each kept clone's recorded counts to their person-times
    obs_rows = segment_rows(obs.starts[keep], obs.n_times[keep])
    shift = np.repeat(starts - block_start[block], obs.n_times[keep])
    counts = np.zeros(pt_rows.size, dtype=np.int64)
    counts[table.obs_pt[obs_rows] + shift] = obs.counts[obs_rows]
    return PackedCohort(
        obs.person_id[keep],
        obs.clone_id[keep],
        starts,
        counts,
        table.pt_total[pt_rows],
        table.pt_time[pt_rows],
    )


def format_float(value: float) -> str:
    """Shortest decimal representation that round-trips the float."""
    return repr(float(value))


@contextmanager
def _atomic_file(path: str | Path) -> Iterator[io.TextIOBase]:
    """A text handle on a temporary file that replaces path in one rename when
    the block completes, created as open() would: mode 0o666 less the process
    umask."""
    path = Path(path)
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace path with text in one rename."""
    with _atomic_file(path) as handle:
        handle.write(text)


def write_table(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Replace path with a header and tab-joined rows, written BLOCK_RECORDS at a
    time; rows are typically a zip of whole columns of strings."""
    rows = iter(rows)
    with _atomic_file(path) as handle:
        handle.write("\t".join(columns) + "\n")
        while block := list(itertools.islice(rows, BLOCK_RECORDS)):
            handle.write("\n".join(map("\t".join, block)) + "\n")


def format_floats(values: np.ndarray) -> list[str]:
    """format_float of every value; each distinct value (bit pattern) is
    formatted once, which pays where values repeat, as proportions do."""
    bits, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True
    )
    return _gather(map(repr, bits.view(np.float64).tolist()), inverse)


def format_ints(values: np.ndarray) -> list[str]:
    """str of every integer; each distinct value is formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return _gather(map(str, distinct.tolist()), inverse)


def _gather(text: Iterable[str], inverse: np.ndarray) -> list[str]:
    return np.array(list(text), dtype=object)[inverse].tolist()


def _person_ranks(cohort: PackedCohort) -> np.ndarray:
    """Per observation, the rank of its clone's person among the cohort's persons."""
    return np.repeat(np.unique(cohort.person_id, return_inverse=True)[1], cohort.n_times)


def write_cohort(
    path: str | Path, cohort: CohortTable | PackedCohort | Iterable[CloneSeries]
) -> None:
    """Write cohort rows in canonical (person, time, clone) order."""
    cohort = as_packed(cohort.observed if isinstance(cohort, CohortTable) else cohort).sorted()
    # stable: the clones are in (person, clone) order, which stays within a person-time
    order = np.lexsort((cohort.times, _person_ranks(cohort)))
    rows = zip(
        np.repeat(cohort.person_id, cohort.n_times)[order].tolist(),
        format_ints(cohort.times[order]),
        np.repeat(cohort.clone_id, cohort.n_times)[order].tolist(),
        format_ints(cohort.counts[order]),
    )
    write_table(path, COHORT_COLUMNS, rows)


def write_offsets(path: str | Path, offsets: Mapping[tuple[str, int], int]) -> None:
    write_table(
        path,
        OFFSETS_COLUMNS,
        ((p, str(t), str(offsets[(p, t)])) for p, t in sorted(offsets)),
    )


def offsets_from_series(series: PackedCohort | Iterable[CloneSeries]) -> dict[tuple[str, int], int]:
    """Collect the per-person-time totals referenced by a series collection."""
    cohort = as_packed(series)
    person = _person_ranks(cohort)
    order = np.lexsort((cohort.times, person))  # stable: series order within a person-time
    times, offsets = cohort.times[order], cohort.offsets[order]
    leads = (np.diff(person[order], prepend=-1) != 0) | (np.diff(times, prepend=-1) != 0)
    conflicts = order[offsets != offsets[leads][np.cumsum(leads) - 1]]
    person_ids = np.repeat(cohort.person_id, cohort.n_times)
    if conflicts.size:
        i = conflicts.min()  # the first disagreement in series order
        key = (person_ids[i], int(cohort.times[i]))
        raise ValidationError(f"conflicting offsets recorded for person-time {key}")
    keys = zip(person_ids[order[leads]].tolist(), times[leads].tolist())
    return dict(zip(keys, offsets[leads].tolist()))


def write_truth(path: str | Path, truth: SimTruth) -> None:
    write_table(
        path,
        TRUTH_COLUMNS,
        ((p, c, str(int(truth.labels[(p, c)]))) for p, c in sorted(truth.labels)),
    )
