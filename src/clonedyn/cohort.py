"""Tabular cohort ingestion, filtering, and deterministic file output.

Cohort files are UTF-8, tab-delimited, with a header row and long-format
records (person_id, time_index, clone_id, count).  Per-person-time
offsets are derived as the sum of counts over all clones at that
person-time, before any filtering, unless an explicit offsets sidecar is
supplied (simulated cohorts need one, because their counts are draws
around exogenous totals rather than a partition of them).

Tables are read block by block.  A block is tokenized over its UTF-8
bytes: field boundaries are the positions of tabs and newlines, found
with numpy, so no Python object is made per field.  A block with a blank
line, a wrong field count or an overlong line is parsed by csv.reader
instead, and from the first quote or lone carriage return on csv.reader
parses the rest of the file; either way the fields are what csv.reader
gives.

The cohort goes from those bytes straight into columns and is held as
one packed table: integer fields of plain ASCII digits are parsed
vectorized by digit (any other field goes through int()), and each
distinct id is held once, as UTF-8 bytes, with records naming it by its
rank among the sorted ids.  Only filter_clones decodes ids, and only
those of the clones it keeps.  Validation runs once over whole columns;
when a check fails, the offending record is looked up again so the
error names it.

Writers take columns: write_cohort emits canonical (person, time, clone)
row order, the others keep the order of the columns they are given
(offsets_from_series and simulate give canonical order).  Floats get
shortest round-trip formatting, and every target file is replaced
atomically.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .model import PackedCohort, segment_rows
from .simulate import TruthLabels

COHORT_COLUMNS = ("person_id", "time_index", "clone_id", "count")
OFFSETS_COLUMNS = ("person_id", "time_index", "total_reads")
STRATA_COLUMNS = ("person_id", "stratum")
TRUTH_COLUMNS = ("person_id", "clone_id", "dynamic")

INT64_MAX = int(np.iinfo(np.int64).max)
BLOCK_CHARS = 1 << 20  # text read at a time on the fast path
BLOCK_RECORDS = 1 << 16  # records parsed at a time by csv.reader
DIGITS_MAX = 18  # any 18-digit integer fits in int64


class CohortRows:
    """(person_id, time_index, clone_id, count) records of a cohort table, in
    (person_id, clone_id, time_index) order; built only when iterated."""

    def __init__(self, table: CohortTable):
        self._table = table

    def __len__(self) -> int:
        return int(self._table.counts.size)

    def __iter__(self) -> Iterator[tuple[str, int, str, int]]:
        c = filter_clones(self._table, 0, absent_as_zero=False)
        return zip(
            np.repeat(c.person_id, c.n_times).tolist(),
            c.times.tolist(),
            np.repeat(c.clone_id, c.n_times).tolist(),
            c.counts.tolist(),
        )


class Ids:
    """Distinct ids held as UTF-8 bytes: id i is the first lengths[i] bytes
    of words[offsets[i]:], the words read as big-endian uint64."""

    def __init__(self, words: np.ndarray, offsets: np.ndarray, lengths: np.ndarray):
        self.words, self.offsets, self.lengths = words, offsets, lengths

    def __len__(self) -> int:
        return int(self.offsets.size)

    def decode(self, index) -> np.ndarray:
        """The ids at the given positions, as an object array of str."""
        lengths = self.lengths[index]
        n_words = _word_counts(lengths)
        data = self.words[segment_rows(self.offsets[index], n_words)].astype(">u8").tobytes()
        starts = 8 * (np.cumsum(n_words) - n_words)
        bounds = zip(starts.tolist(), (starts + lengths).tolist())
        return np.array([data[s:e].decode("utf-8") for s, e in bounds], dtype=object)


@dataclass(frozen=True, eq=False)
class CohortTable:
    """Validated long-format cohort in columns, with its person-time totals.

    Clone i is (person_names[person[i]], clone_names[clone[i]]): ranks
    into the sorted distinct ids, the clone ids still UTF-8 bytes.  It
    owns the observations starts[i] up to starts[i + 1] of the flat
    columns counts and times, in (person_id, clone_id, time_index) order.
    obs_pt gives the row of the person-time table (pt_person, pt_time,
    pt_total, sorted by person then time) behind each observation.  The
    person-time table is the offsets sidecar when one was given, else the
    per person-time sums of the unfiltered rows.
    """

    person_names: np.ndarray
    clone_names: Ids
    person: np.ndarray
    clone: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    times: np.ndarray
    obs_pt: np.ndarray
    pt_person: np.ndarray
    pt_time: np.ndarray
    pt_total: np.ndarray

    @property
    def rows(self) -> CohortRows:
        return CohortRows(self)


class _Block:
    """Data records of one block of a table and their line numbers.

    A block the byte tokenizer split keeps its text, the text's UTF-8
    bytes and the (records, width) byte offsets of the tab or newline
    that ends each field; a block csv.reader parsed keeps the columns of
    strings it gave.
    """

    def __init__(self, lines, width, text="", raw=None, ends=None, columns=None):
        self.lines, self.width = lines, width
        self._text, self._raw, self._ends, self._columns = text, raw, ends, columns

    def columns(self) -> list[list[str]]:
        """Every field as a str, one list per column."""
        if self._columns is None:
            flat = self._text.replace("\n", "\t").split("\t")
            flat.pop()  # after the last newline
            self._columns = [flat[i :: self.width] for i in range(self.width)]
        return self._columns

    def fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """UTF-8 bytes holding every field, and 8 bytes more, and the
        (records, width) offsets where each field starts and ends."""
        if self._raw is None:  # csv.reader's fields, laid end to end
            flat = [f.encode("utf-8") for record in zip(*self._columns) for f in record]
            lengths = np.fromiter(map(len, flat), np.int64, len(flat)).reshape(-1, self.width)
            ends = np.cumsum(lengths).reshape(lengths.shape)
            raw = np.frombuffer(b"".join(flat) + bytes(8), np.uint8)
            return raw, ends - lengths, ends
        ends = self._ends
        starts = np.empty_like(ends)
        starts[:, 1:] = ends[:, :-1] + 1
        starts[1:, 0] = ends[:-1, -1] + 1
        starts[:1, 0] = 0
        return self._raw, starts, ends


def _columns(records: list[list[str]], lines: np.ndarray, width: int, path: Path) -> _Block:
    """Block of the non-blank records; ParseError for a wrong field count."""
    if any(len(r) != width for r in records):
        for record, line in zip(records, lines.tolist()):
            if record and len(record) != width:
                raise ParseError(f"{path}: expected {width} fields, got {len(record)}", line)
        lines = lines[[bool(r) for r in records]]
        records = [r for r in records if r]
    flat = list(itertools.chain.from_iterable(records))
    return _Block(lines, width, columns=[flat[i::width] for i in range(width)])


def _csv_blocks(reader, lineno: int, width: int, path: Path):
    while records := list(itertools.islice(reader, BLOCK_RECORDS)):
        yield _columns(records, np.arange(lineno, lineno + len(records)), width, path)
        lineno += len(records)


def _blocks(handle, width: int, path: Path) -> Iterator[_Block]:
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
        if not text.endswith("\n"):
            text += "\n"  # the last record of a file that does not end in a newline
        raw = np.frombuffer(text.encode("utf-8") + bytes(8), np.uint8)
        newline = raw == 10
        seps = np.flatnonzero(newline | (raw == 9))
        n = int(np.count_nonzero(newline))
        numbers = np.arange(lineno, lineno + n)
        lineno += n
        # every record has width - 1 tabs exactly when every width-th
        # separator is a newline and there are width per newline
        line_ends = seps[width - 1 :: width]
        if (
            seps.size != n * width
            or not newline[line_ends].all()
            or np.diff(line_ends, prepend=-1).max() - 1 > limit  # bytes: at least the chars
        ):
            lines = text.split("\n")
            lines.pop()
            yield _columns(list(csv.reader(lines, delimiter="\t")), numbers, width, path)
        else:
            yield _Block(numbers, width, text, raw, seps.reshape(n, width))


def _read_blocks(path: str | Path, columns: Sequence[str]) -> Iterator[_Block]:
    """Data records of a TSV with a header, block by block.

    Fields are what csv.reader with a tab delimiter gives.  A block of
    text with no quote, lone carriage return, blank line, overlong line
    or wrong field count is split by the byte tokenizer, which gives the
    same fields without a Python object per field; from the first quote
    or lone carriage return on, csv.reader parses the rest of the file.
    Line numbers count records from 2, the header being 1, blank ones
    included.
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
                if len(block.lines):
                    any_rows = True
                    yield block
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not any_rows:
        raise ValidationError(f"{path}: no data rows")


def _read_columns(path: str | Path, columns: Sequence[str]) -> tuple[list[list[str]], np.ndarray]:
    """Every data record of a TSV with a header, as one list of fields per
    column, and the records' line numbers."""
    blocks = [(b.columns(), b.lines) for b in _read_blocks(path, columns)]
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


def _strings(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    data = raw.tobytes()
    return [data[s:e].decode("utf-8") for s, e in zip(starts.tolist(), ends.tolist())]


def _int_fields(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """int() of the fields raw[starts:ends] as int64, and a mask of the fields
    that are not integers in [0, INT64_MAX] (0 there).

    A field of 1 to DIGITS_MAX ASCII digits is parsed here, digit by digit
    over all fields at once; only the others go through int().
    """
    lengths = ends - starts
    plain = (lengths > 0) & (lengths <= DIGITS_MAX)
    values = np.zeros(lengths.size, dtype=np.int64)
    for k in range(int(lengths[plain].max(initial=0)), 0, -1):  # k-th byte from a field's end
        in_field = lengths >= k
        digit = raw[np.maximum(ends - k, 0)] - np.uint8(48)
        plain &= ~in_field | (digit < 10)
        values = values * 10 + np.where(in_field, digit, 0)
    bad = np.zeros(lengths.size, dtype=bool)
    if not plain.all():
        rest = np.flatnonzero(~plain)
        values[rest], bad[rest] = _int_values(_strings(raw, starts[rest], ends[rest]))
    return values, bad


# per count r of bytes kept, the mask of a word's first r bytes
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * r)) for r in range(9)], dtype=np.uint64)


def _words(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, k: int) -> np.ndarray:
    """Bytes 8k to 8k + 8 of each field data[starts[i] : starts[i] + lengths[i]],
    zero-padded, as the big-endian uint64 they spell, which orders as the
    bytes do.  data holds 8 bytes more after its last field."""
    octets = np.lib.stride_tricks.sliding_window_view(data, 8)[starts + 8 * k]
    return octets.view(">u8")[:, 0] & _KEEP[np.clip(lengths - 8 * k, 0, 8)]


class _IdColumn:
    """The ids of one column, added block by block; each run of equal
    consecutive ids is kept once, as the words of its UTF-8 bytes."""

    def __init__(self):
        self._words: list[np.ndarray] = []
        self._lengths: list[np.ndarray] = []
        self._runs = 0

    def add(self, raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Per field raw[starts:ends], the index of its run among all runs added."""
        lengths = ends - starts
        first = _words(raw, starts, lengths, 0)
        same = np.zeros(lengths.size, dtype=bool)
        same[1:] = (lengths[1:] == lengths[:-1]) & (first[1:] == first[:-1])
        pending = np.flatnonzero(same & (lengths > 8))  # equal so far, with words to come
        k = 1
        while pending.size:
            here = _words(raw, starts[pending], lengths[pending], k)
            equal = here == _words(raw, starts[pending - 1], lengths[pending - 1], k)
            same[pending[~equal]] = False
            pending = pending[equal & (lengths[pending] > 8 * (k + 1))]
            k += 1
        heads = np.flatnonzero(~same)
        starts, lengths = starts[heads], lengths[heads]
        n_words = _word_counts(lengths)
        offsets = np.cumsum(n_words) - n_words
        words = np.zeros(int(n_words.sum()), dtype=np.uint64)
        words[offsets] = first[heads]
        for k in range(1, int(n_words.max(initial=0))):
            longer = np.flatnonzero(n_words > k)
            words[offsets[longer] + k] = _words(raw, starts[longer], lengths[longer], k)
        self._words.append(words)
        self._lengths.append(lengths)
        run = np.cumsum(~same) + (self._runs - 1)
        self._runs += heads.size
        return run

    def ranked(self) -> tuple[Ids, np.ndarray]:
        """The distinct ids in sorted order, and each run's position among them.

        Runs are sorted a word at a time, each round only those still tied
        with another run and longer than the words compared so far.  UTF-8
        byte order is code point order, so this is str order.
        """
        store = np.concatenate([np.zeros(0, np.uint64), *self._words])
        lengths = np.concatenate([np.zeros(0, np.int64), *self._lengths])
        n_words = _word_counts(lengths)
        offsets = np.cumsum(n_words) - n_words
        # each run's group of equal ids so far, as the group's first
        # position in sorted order; active: the runs still tied with another
        # that have words left to compare.  Word k of a run is keyed with
        # min(length, 8k + 9): an id that ends within the word sorts before
        # a longer one with the same bytes so far (they tie where the
        # shorter fills the word or NUL pads it).  The first round, over
        # every run, has one group and so needs no group key.
        order = np.lexsort((np.minimum(lengths, 9), store[offsets]))
        new = _changes(store[offsets[order]], np.minimum(lengths[order], 9))
        position = np.empty_like(order)
        position[order] = np.flatnonzero(new)[np.cumsum(new) - 1]
        tied = ~(new & np.append(new[1:], True))  # not alone among its equals
        active, k = order[tied & (lengths[order] > 8)], 1
        while active.size:
            words = store[offsets[active] + k]
            ended = np.minimum(lengths[active], 8 * k + 9)
            order = np.lexsort((ended, words, position[active]))
            run, group = active[order], position[active][order]
            new_group = _changes(group)
            new = new_group | _changes(words[order], ended[order])
            at = np.arange(run.size)
            first_in_group = np.maximum.accumulate(np.where(new_group, at, 0))
            first_in_new = np.maximum.accumulate(np.where(new, at, 0))
            position[run] = group + first_in_new - first_in_group
            tied = ~(new & np.append(new[1:], True))  # not alone among its equals
            active = run[tied & (lengths[run] > 8 * (k + 1))]
            k += 1
        leads = np.zeros(lengths.size, dtype=bool)
        leads[position] = True
        rank = (np.cumsum(leads) - 1)[position]
        first = np.zeros(int(rank.max(initial=-1)) + 1, dtype=np.int64)
        first[rank] = np.arange(rank.size)
        kept = np.zeros(lengths.size, dtype=bool)
        kept[first] = True  # one run per distinct id, whose words are kept
        n_kept = np.where(kept, n_words, 0)
        offsets = np.cumsum(n_kept) - n_kept
        return Ids(store[np.repeat(kept, n_words)], offsets[first], lengths[first]), rank


def _changes(*columns: np.ndarray) -> np.ndarray:
    """Mask of the records whose key, one value from each column, differs
    from the record before (the first record's always does)."""
    new = np.zeros(columns[0].size, dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def _word_counts(lengths: np.ndarray) -> np.ndarray:
    """Words of 8 bytes that hold ids of these lengths: at least one, so an
    empty id has a first word too."""
    return np.maximum((lengths + 7) // 8, 1)


def _repeats(*columns: np.ndarray) -> np.ndarray:
    """Mask of the records whose key, one value from each column, an earlier record has."""
    n = columns[0].size
    increasing, tied = np.zeros(max(n - 1, 0), dtype=bool), np.ones(max(n - 1, 0), dtype=bool)
    for column in columns:
        increasing |= tied & (column[1:] > column[:-1])
        tied &= column[1:] == column[:-1]
    if increasing.all():
        return np.zeros(n, dtype=bool)  # strictly increasing, as the writers write
    # setdefault gives each record the position of its key's first record
    first: dict[tuple, int] = {}
    positions = map(first.setdefault, zip(*(c.tolist() for c in columns)), range(n))
    return np.fromiter(positions, np.int64, n) != np.arange(n)


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
    cols, lines = _read_columns(path, STRATA_COLUMNS)
    person = np.array(cols[0], dtype=object)
    stratum, bad = _int_values(cols[1])
    repeated = _repeats(person)
    failing = np.flatnonzero(bad | (stratum > 1) | repeated)
    if failing.size:
        i = failing[0]
        line = int(lines[i])
        value = _parse_int(cols[1][i], "stratum", line)
        if value > 1:
            raise ParseError(f"stratum must be 0 or 1, got {value}", line)
        raise ParseError(f"duplicate person {person[i]!r}", line)
    return dict(zip(cols[0], stratum.tolist()))


def read_offsets(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """offsets.tsv as (person_id, time_index, total_reads) columns, sorted by
    person then time."""
    cols, lines = _read_columns(path, OFFSETS_COLUMNS)
    person = np.array(cols[0], dtype=object)
    time, bad_time = _int_values(cols[1])
    total, bad_total = _int_values(cols[2], minimum=1)
    repeated = _repeats(person, time)
    failing = np.flatnonzero(bad_time | repeated | bad_total)
    if failing.size:
        i = failing[0]
        line = int(lines[i])
        key = (person[i], _parse_int(cols[1][i], "time_index", line))
        if repeated[i]:
            raise ParseError(f"duplicate person-time {key}", line)
        _parse_int(cols[2][i], "total_reads", line, minimum=1)
    order = np.lexsort((time, person))
    return person[order], time[order], total[order]


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


def _read_cohort_columns(path: Path):
    """Sorted distinct person and clone ids; person, clone, time, count and
    line columns of every parsable record, in file order, with each id as
    its position among the sorted ones; and the ParseError of the first
    unparsable record (or None).

    Each id is held once per run of records naming it, as bytes.  Records
    after an unparsable one are still read, so a wrong field count
    anywhere in the file is reported first, as a whole-file check would.
    """
    persons, clones = _IdColumn(), _IdColumn()
    parts: list[tuple[np.ndarray, ...]] = []
    error = None
    for block in _read_blocks(path, COHORT_COLUMNS):
        if error is not None:
            continue
        raw, starts, ends = block.fields()
        lines = block.lines
        times, bad_time = _int_fields(raw, starts[:, 1], ends[:, 1])
        counts, bad_count = _int_fields(raw, starts[:, 3], ends[:, 3])
        failing = np.flatnonzero(bad_time | bad_count)
        n = lines.size
        if failing.size:
            n = failing[0]
            j, what = (1, "time_index") if bad_time[n] else (3, "count")
            value = _strings(raw, starts[n, j : j + 1], ends[n, j : j + 1])[0]
            try:
                _parse_int(value, what, int(lines[n]))
            except ParseError as exc:
                error = exc
        person = persons.add(raw, starts[:n, 0], ends[:n, 0])
        clone = clones.add(raw, starts[:n, 2], ends[:n, 2])
        parts.append((person, clone, times[:n], counts[:n], lines[:n]))
    person_ids, person_rank = persons.ranked()
    clone_ids, clone_rank = clones.ranked()
    person, clone, time, count, line = (np.concatenate(c) for c in zip(*parts))
    person_names = person_ids.decode(np.arange(len(person_ids)))
    return person_names, clone_ids, person_rank[person], clone_rank[clone], time, count, line, error


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
        clone_id = clone_names.decode([clone[i]])[0]
        dup_key = (person_names[person[i]], int(time[i]), clone_id)
        raise ParseError(f"duplicate (person_id, time_index, clone_id) {dup_key}", int(line[i]))
    if error is not None:
        raise error

    if offsets_path is not None:
        pt_person, pt_time, pt_total = read_offsets(offsets_path)
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
                f"count {int(count[i])} for clone {clone_names.decode([clone[i]])[0]!r} exceeds "
                f"the offset {int(pt_total[obs_pt[i]])} at {pt}"
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
    return CohortTable(
        person_names, clone_names, person[starts], clone[starts], starts, count, time, obs_pt,
        pt_person, pt_time, pt_total,
    )  # fmt: skip


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
    from the unfiltered table.  Only the kept clones' ids are decoded.
    """
    if min_total_reads < 0:
        raise ValidationError("min_total_reads must be >= 0")
    if min_total_reads > INT64_MAX:
        raise ValidationError("min_total_reads does not fit in a 64-bit integer")

    totals, _ = _segment_sums(table.counts, table.starts)
    keep = np.flatnonzero(totals >= min_total_reads)
    person_id = table.person_names[table.person[keep]]
    clone_id = table.clone_names.decode(table.clone[keep])
    first_obs = table.starts[keep]
    obs_n_times = np.diff(table.starts, append=table.counts.size)[keep]
    obs_rows = segment_rows(first_obs, obs_n_times)
    if not absent_as_zero:
        pt_rows = table.obs_pt[obs_rows]
        return PackedCohort(
            person_id,
            clone_id,
            np.cumsum(obs_n_times) - obs_n_times,
            table.counts[obs_rows],
            table.pt_total[pt_rows],
            table.times[obs_rows],
        )

    # each person's sampled times are one block of the person-time table
    new_person = np.concatenate([[True], table.pt_person[1:] != table.pt_person[:-1]])
    block_start = np.flatnonzero(new_person)
    block_len = np.diff(block_start, append=table.pt_person.size)
    block = (np.cumsum(new_person) - 1)[table.obs_pt[first_obs]]
    n_times = block_len[block]
    starts = np.cumsum(n_times) - n_times
    pt_rows = segment_rows(block_start[block], n_times)

    # scatter each kept clone's recorded counts to their person-times
    shift = np.repeat(starts - block_start[block], obs_n_times)
    counts = np.zeros(pt_rows.size, dtype=np.int64)
    counts[table.obs_pt[obs_rows] + shift] = table.counts[obs_rows]
    return PackedCohort(
        person_id,
        clone_id,
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


def write_cohort(path: str | Path, cohort: PackedCohort) -> None:
    """Write cohort rows in canonical (person, time, clone) order."""
    cohort = cohort.sorted()
    # stable: the clones are in (person, clone) order, which stays within a person-time
    order = np.lexsort((cohort.times, _person_ranks(cohort)))
    rows = zip(
        np.repeat(cohort.person_id, cohort.n_times)[order].tolist(),
        format_ints(cohort.times[order]),
        np.repeat(cohort.clone_id, cohort.n_times)[order].tolist(),
        format_ints(cohort.counts[order]),
    )
    write_table(path, COHORT_COLUMNS, rows)


def write_offsets(path: str | Path, offsets: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Write (person_id, time_index, total_reads) columns, as read_offsets and
    offsets_from_series give them, in their order."""
    person, time, total = offsets
    write_table(path, OFFSETS_COLUMNS, zip(person.tolist(), format_ints(time), format_ints(total)))


def offsets_from_series(cohort: PackedCohort) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-person-time totals the cohort's offsets record, as the sorted
    (person_id, time_index, total_reads) columns read_offsets returns."""
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
    return person_ids[order[leads]], times[leads], offsets[leads]


def write_truth(path: str | Path, truth: TruthLabels) -> None:
    """Write the labels in their order, dynamic as 0 or 1."""
    dynamic = format_ints(truth.dynamic.astype(np.int8))
    write_table(path, TRUTH_COLUMNS, zip(truth.person_id.tolist(), truth.clone_id.tolist(), dynamic))
