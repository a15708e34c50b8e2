"""Every table format of the pipeline: ingestion, validation and file output.

Cohort files are UTF-8 (a leading byte-order mark is ignored, as in every
table), tab-delimited, with a header row and long-format
records (person_id, time_index, clone_id, count).  Per-person-time
offsets are derived as the sum of counts over all clones at that
person-time, before any filtering, unless an explicit offsets sidecar is
supplied (simulated cohorts need one, because their counts are draws
around exogenous totals rather than a partition of them).

Every table is read block by block into one form: a block's UTF-8 bytes
and the start and end offset of each field, found with numpy at the tabs
and newlines, so no Python object is made per field.  A block with a
blank line, a wrong field count or an overlong line is parsed by
csv.reader instead, as is the rest of the file from the first quote or
lone carriage return on; either way the fields are what csv.reader gives,
and one no writer can write back (a quoted tab or line break, or a
leading quote) is rejected.

The cohort goes from those bytes straight into one packed table: integer
fields of plain ASCII digits are parsed by digit over whole columns, and
each distinct id is held once, as UTF-8 bytes; only filter_clones decodes
ids, and only those of the clones it keeps.  Until the last block is read
ingest holds per record its time, count and two id indices, each in the
narrowest integer type (8 bytes for a repertoire), and per distinct id
of a block its 8-byte words and length; ranking those ids in str order
takes about 34 bytes more per id, and the records are then sorted by one
permutation, a column at a time.  The table then keeps per record a
count and its person-time row, which holds its person, time and total,
and filter_clones hands the person-time table on whole to the
PackedCohort it packs, so a kept observation is a count and a row too.
Validation runs once over whole columns.  A reader lists its checks in
order, and the earliest record any check flags is reported, by line,
with the message of the first check that flags it.

Each sidecar table has one type, holding exactly its columns, that its
reader returns and its writer takes: a Responsibilities, a CallTable
(whose one direction code per call gives both its call and direction
text, classify.KINDS) and TruthLabels; offsets and strata are tuples of
columns.  Writers take columns, and write_table formats each by its kind
(format_column): a str as it is, an integer as str gives it, a float in
shortest round-trip form and a bool as true or false, each distinct value
once, WRITE_RECORDS rows at a time.  write_cohort emits canonical
(person, time, clone) row order, the other writers keep the order of
their columns, and every target file is replaced atomically and synced
to disk.

The two binary formats are packs, each the parsed form of a table one
stage writes for the next, keyed to the bytes it stands for: the cohort
pack, fit's filtered cohort and its prob_dynamic for classify, and the
calls pack, classify's per-person call counts for summarize.  Both are
written and read by one pair of functions: a format line, the key as
`name = value` lines, then columns as .npy arrays (ids as UTF-8 joined
by newlines), and last the sha256 of every byte before it.  The cohort
pack's key is the sha256 of the cohort and offsets bytes that ingest
parsed, hashed as it read them, the filter settings and the sha256 of
responsibilities.tsv; the calls pack's is the sha256 of calls.tsv.  The
writers hash a table as they write it (write_table's digest), so no
output is read back.  A pack reader checks the key field by field
before it reads an array, reads none that needs unpickling, checks the
sha256, and then the columns themselves: the cohort through
PackedCohort's checks.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterator, Mapping, Sequence

import numpy as np

from .classify import KINDS, CallTable, PersonCounts
from .errors import ParseError, ValidationError
from .model import PackedCohort, narrow_type, segment_rows, strictly_increasing
from .simulate import TruthLabels

COHORT_COLUMNS = ("person_id", "time_index", "clone_id", "count")
OFFSETS_COLUMNS = ("person_id", "time_index", "total_reads")
STRATA_COLUMNS = ("person_id", "stratum")
TRUTH_COLUMNS = ("person_id", "clone_id", "dynamic")
RESPONSIBILITIES_COLUMNS = ("person_id", "clone_id", "n_times", "prob_dynamic")
CALLS_COLUMNS = ("person_id", "clone_id", "prob_dynamic", "call", "direction")

INT64_MAX = int(np.iinfo(np.int64).max)
BLOCK_CHARS = 1 << 20  # text read at a time on the fast path
BLOCK_RECORDS = 1 << 16  # records parsed at a time by csv.reader
DIGITS_MAX = 18  # any 18-digit integer fits in int64
STRING_BYTES = 1 << 18  # field bytes decoded at a time: an int64 index per byte
WRITE_RECORDS = 1 << 12  # rows formatted at a time: their text is a few hundred kB
# a mask over a table's records and the message of a flagged record, by index
_Check = tuple[np.ndarray, Callable[[int], str]]


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
        words = self.words[segment_rows(self.offsets[index], n_words)]
        data = np.append(words.astype(">u8").view(np.uint8), np.uint8(0))
        starts = 8 * (np.cumsum(n_words) - n_words)
        return np.array(_strings(data, starts, starts + lengths), dtype=object)


@dataclass(frozen=True, eq=False)
class CohortTable:
    """Validated long-format cohort in columns, with its person-time table.

    Per record j it holds a count and its person-time row: the person,
    time and total of record j are those of row obs_pt[j] of the
    person-time table (pt_person, pt_time, pt_total, sorted by person
    then time).
    Clone i, clone_names[clone[i]] (its rank among the sorted distinct
    ids, still UTF-8 bytes), owns the records starts[i] up to
    starts[i + 1], in (person_id, clone_id, time_index) order.  The
    person-time table is the offsets sidecar when one was given, else the
    per person-time sums of the unfiltered rows.
    """

    clone_names: Ids
    clone: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    obs_pt: np.ndarray
    pt_person: np.ndarray
    pt_time: np.ndarray
    pt_total: np.ndarray

    @property
    def rows(self) -> CohortRows:
        return CohortRows(self)


class _Block:
    """Data records of a table, or of one block of it, and their line numbers
    (a range where they follow one another): the UTF-8 bytes holding every
    field, and 8 bytes more, and the (records, width) offsets where each
    field starts and ends."""

    def __init__(self, lines, raw: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        self.lines, self.raw, self.starts, self.ends = lines, raw, starts, ends

    def text(self, i: int, j: int) -> str:
        """Field j of record i."""
        return self.raw[self.starts[i, j] : self.ends[i, j]].tobytes().decode("utf-8")

    def strs(self, j: int) -> np.ndarray:
        """Field j of every record, as an object array of str."""
        return np.array(_strings(self.raw, self.starts[:, j], self.ends[:, j]), dtype=object)

    def ints(self, j: int, what: str, minimum: int = 0) -> tuple[np.ndarray, _Check]:
        """Field j of every record as int64, and the check that flags a field
        that is not an integer in [minimum, INT64_MAX] (0 there)."""
        values, bad = _int_fields(self.raw, self.starts[:, j], self.ends[:, j], minimum)
        return values, (bad, lambda i: _int_message(self.text(i, j), what, minimum))

    def probabilities(self, j: int) -> tuple[np.ndarray, _Check, _Check]:
        """Field j of every record as float64, the check that flags a field that
        is not a number (nan there), and the check that flags one outside [0, 1]."""
        values, bad = _float_fields(self.raw, self.starts[:, j], self.ends[:, j])
        outside = ~((values >= 0.0) & (values <= 1.0))
        return (
            values,
            (bad, lambda i: f"prob_dynamic is not a number: {self.text(i, j)!r}"),
            (outside, lambda i: f"prob_dynamic must lie in [0, 1], got {self.text(i, j)!r}"),
        )

    def fault(self, checks: Sequence[_Check]) -> tuple[int, ParseError] | None:
        """The earliest record a check flags and its ParseError, with the
        message of the first check that flags it; None if none flags one."""
        flagged = np.logical_or.reduce([mask for mask, _ in checks])
        if flagged.any():
            i = int(np.argmax(flagged))
            message = next(message for mask, message in checks if mask[i])
            return i, ParseError(message(i), int(self.lines[i]))
        return None

    def check(self, checks: Sequence[_Check]) -> None:
        """Raise the ParseError fault finds, if any."""
        if fault := self.fault(checks):
            raise fault[1]


def _columns(records: list[list[str]], lines: np.ndarray, width: int, path: Path) -> _Block:
    """Block of the non-blank records, their fields laid end to end.

    The first record with a wrong field count, or with a field no table can
    be written with, is a ParseError.  Such a field holds a tab, CR or LF,
    or starts with a quote; only a quoted field can.
    """
    n = next((k for k, r in enumerate(records) if r and len(r) != width), len(records))
    kept = [k for k in range(n) if records[k]]
    flat = [f.encode("utf-8") for k in kept for f in records[k]]
    lengths = np.fromiter(map(len, flat), np.int64, len(flat)).reshape(-1, width)
    ends = np.cumsum(lengths).reshape(lengths.shape)
    raw = np.frombuffer(b"".join(flat) + bytes(8), np.uint8)
    block = _Block(lines[kept], raw, ends - lengths, ends)
    breaks = np.append(0, np.cumsum(np.isin(raw, (9, 10, 13))))
    bad = (breaks[ends] > breaks[block.starts]) | ((lengths > 0) & (raw[block.starts] == 34))
    unwritable = bad.any(axis=1), lambda i: (
        f"{path}: field {block.text(i, int(np.argmax(bad[i])))!r} cannot be written back "
        "to a table: it holds a tab or line break, or starts with a quote"
    )
    block.check([unwritable])
    if n < len(records):
        raise ParseError(f"{path}: expected {width} fields, got {len(records[n])}", int(lines[n]))
    return block


def _csv_records(reader, count: int, lineno: int, path: Path) -> list[list[str]]:
    """Up to count records of a csv.reader whose next record is line lineno;
    ParseError for a record csv.reader rejects (a field longer than
    csv.field_size_limit())."""
    records: list[list[str]] = []
    try:
        records.extend(itertools.islice(reader, count))  # keeps those before a failing one
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", lineno + len(records)) from None
    return records


def _csv_blocks(reader, lineno: int, width: int, path: Path):
    while records := _csv_records(reader, BLOCK_RECORDS, lineno, path):
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
            records = _csv_records(csv.reader(lines, delimiter="\t"), n, lineno, path)
            yield _columns(records, np.arange(lineno, lineno + n), width, path)
        else:
            # a field starts after the separator that ends the one before it
            starts = np.append(0, seps[:-1] + 1).reshape(n, width)
            yield _Block(range(lineno, lineno + n), raw, starts, seps.reshape(n, width))
        lineno += n


def _sha256():
    """A new hashlib sha256 object."""
    # imported on first use: hashlib maps OpenSSL, ~3.6 MB of RSS, which a
    # stage that hashes nothing need not hold
    import hashlib

    return hashlib.sha256()


class _Hashed(io.RawIOBase):
    """A binary file that feeds a hashlib object every byte read from it or
    written to it; closing it leaves the file open."""

    def __init__(self, file, digest):
        self.file, self.digest = file, digest

    def readable(self) -> bool:
        return self.file.readable()

    def writable(self) -> bool:
        return self.file.writable()

    def readinto(self, buffer) -> int:
        n = self.file.readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n

    def write(self, data) -> int:
        n = self.file.write(data)  # a raw file may take fewer bytes than it is given
        self.digest.update(memoryview(data)[:n])
        return n


@contextmanager
def _open_text(path: Path, digest=None) -> Iterator[io.TextIOWrapper]:
    """path opened as the readers read it: UTF-8, a leading byte-order mark
    dropped, line endings kept; with a digest (a hashlib object), a handle
    that feeds it every byte read from path."""
    with open(path, "rb", buffering=0) as file:
        binary = io.BufferedReader(file if digest is None else _Hashed(file, digest))
        with io.TextIOWrapper(binary, encoding="utf-8-sig", newline="") as handle:
            yield handle


def _read_blocks(path: str | Path, columns: Sequence[str], digest=None) -> Iterator[_Block]:
    """Data records of a TSV with a header, block by block, each byte of
    the file read once (and fed to digest, if given: see _open_text).

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
    with _open_text(path, digest) as handle:
        try:
            header = _csv_records(csv.reader(handle, delimiter="\t"), 1, 1, path)
            if not header:
                raise ValidationError(f"{path}: file is empty")
            if header != [list(columns)]:
                raise ParseError(f"{path}: expected header {list(columns)}, got {header[0]}", 1)
            for block in _blocks(handle, len(columns), path):
                if len(block.lines):
                    any_rows = True
                    yield block
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not any_rows:
        raise ValidationError(f"{path}: no data rows")


def _read_table(path: str | Path, columns: Sequence[str], digest=None) -> _Block:
    """Every data record of a TSV with a header, as one block."""
    blocks = list(_read_blocks(path, columns, digest))
    shifts = np.cumsum([0] + [b.raw.size for b in blocks[:-1]])
    return _Block(
        np.concatenate([b.lines for b in blocks]),
        np.concatenate([b.raw for b in blocks]),
        np.concatenate([b.starts + shift for b, shift in zip(blocks, shifts)]),
        np.concatenate([b.ends + shift for b, shift in zip(blocks, shifts)]),
    )


def _int_message(value: str, what: str, minimum: int = 0) -> str:
    """Why value, which _int_values flags, is not an integer in [minimum, INT64_MAX]."""
    try:
        parsed = int(value)
    except ValueError:
        return f"{what} is not an integer: {value!r}"
    if parsed < minimum:
        return f"{what} must be >= {minimum}, got {parsed}"
    return f"{what} does not fit in a 64-bit integer: {value!r}"


def _parse_each(parse, values: Sequence[str], dtype) -> tuple[np.ndarray, np.ndarray]:
    """parse of every value as dtype, and a mask of the values it rejects or
    dtype cannot hold (0 there)."""
    try:
        return np.fromiter(map(parse, values), dtype, len(values)), np.zeros(len(values), bool)
    except (ValueError, OverflowError):
        parsed, bad = np.zeros(len(values), dtype=dtype), np.zeros(len(values), dtype=bool)
        for i, value in enumerate(values):
            try:
                parsed[i] = parse(value)
            except (ValueError, OverflowError):
                bad[i] = True
        return parsed, bad


def _int_values(values: Sequence[str], minimum: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """int() of every value as int64, and a mask of the values that are not
    integers in [minimum, INT64_MAX] (0 there)."""
    parsed, bad = _parse_each(int, values, np.int64)
    bad |= parsed < minimum
    parsed[bad] = 0
    return parsed, bad


def _float_fields(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """float() of the fields raw[starts:ends], and a mask of the fields float()
    rejects (nan there)."""
    values, bad = _parse_each(float, _strings(raw, starts, ends), np.float64)
    values[bad] = np.nan
    return values, bad


def _strings(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The UTF-8 fields raw[starts:ends], decoded; raw holds a byte more after
    the last one."""
    fields: list[str] = []
    # each field and the byte after it, that byte made a newline: one decode
    # and one split give every field, as no field holds a newline (the
    # tokenizer splits at each one, and _columns rejects quoted ones)
    sizes = ends - starts + 1
    joined_ends = np.cumsum(sizes)
    k = 0
    while k < starts.size:  # STRING_BYTES at a time, or one longer field
        begin = joined_ends[k] - sizes[k]
        stop = max(int(np.searchsorted(joined_ends, begin + STRING_BYTES, "right")), k + 1)
        joined = raw[segment_rows(starts[k:stop], sizes[k:stop])]
        joined[joined_ends[k:stop] - begin - 1] = 10
        fields += joined.tobytes().decode("utf-8").split("\n")[:-1]
        k = stop
    return fields


def _int_fields(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray, minimum: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """int() of the fields raw[starts:ends] as int64, and a mask of the fields
    that are not integers in [minimum, INT64_MAX] (0 there).

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
    bad = plain & (values < minimum)
    values[bad] = 0
    if not plain.all():
        rest = np.flatnonzero(~plain)
        values[rest], bad[rest] = _int_values(_strings(raw, starts[rest], ends[rest]), minimum)
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
    """The ids of one column, added block by block; each distinct id of a
    block is kept once, as the words of its UTF-8 bytes, and each field as
    the index of that kept id, in the narrowest integer type."""

    def __init__(self):
        self._ids: list[tuple[np.ndarray, np.ndarray]] = []  # words and lengths
        self._index: list[np.ndarray] = []
        self._count = 0

    def add(self, raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
        """Add the ids raw[starts:ends]."""
        lengths = ends - starts
        # a one-word id equal to the one before it is ranked with it, as one run
        first = _words(raw, starts, lengths, 0)
        new = _changes(first, lengths) | (lengths > 8)
        heads = np.flatnonzero(new)
        starts, lengths = starts[heads], lengths[heads]
        n_words = _word_counts(lengths)
        offsets = np.cumsum(n_words) - n_words
        words = np.empty(int(n_words.sum()), dtype=np.uint64)
        words[offsets] = first[heads]
        for k in range(1, int(n_words.max(initial=0))):
            longer = np.flatnonzero(n_words > k)
            words[offsets[longer] + k] = _words(raw, starts[longer], lengths[longer], k)
        words, lengths, rank = _ranked(words, lengths)
        rank = (rank + self._count).astype(narrow_type(self._count + lengths.size))
        self._index.append(rank[np.cumsum(new) - 1])
        self._count += lengths.size
        self._ids.append((words, lengths))

    def ranked(self) -> tuple[Ids, np.ndarray]:
        """The distinct ids in sorted order, and per field added, in order,
        its id's rank among them."""
        words, lengths = (np.concatenate(column) for column in zip(*self._ids))
        self._ids.clear()
        words, lengths, rank = _ranked(words, lengths)
        rank, n_words = rank.astype(narrow_type(lengths.size)), _word_counts(lengths)
        ids = Ids(words, np.cumsum(n_words) - n_words, lengths)
        return ids, np.concatenate([rank[index] for index in self._index])


def _ranked(words: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words and lengths of the distinct ids in sorted order, and each
    id's rank among them: id i is the first lengths[i] bytes of its words,
    the ids' words laid end to end.

    Ids are sorted a word at a time, each round only those still tied with
    another and longer than the words compared so far.  UTF-8 byte order is
    code point order, so this is str order.  Besides its input, this holds
    about 34 bytes per id at its peak, and 8 more where an id spans words.
    """
    offsets = None  # where each id's words start, when not every id is one word
    if words.size > lengths.size:
        offsets = np.cumsum(_word_counts(lengths)) - _word_counts(lengths)
    # sorted order, refined a word at a time: new marks where a group of ids
    # equal so far starts, and slots are the places in it of the ids still
    # tied with another that have words left to compare (all of a group or
    # none).  Word k of an id is keyed with min(length, 8k + 9): an id that
    # ends within the word sorts before a longer one with the same bytes so
    # far (they tie where the shorter fills the word or NUL pads it).
    first = words if offsets is None else words[offsets]
    ended = np.minimum(lengths, 9).astype(np.int8)
    order = np.lexsort((ended, first))
    new = _changes(first[order], ended[order])
    del first, ended
    tied = ~(new & np.append(new[1:], True))  # not alone among its equals
    slots, k = np.flatnonzero(tied & (lengths[order] > 8)), 1
    while slots.size:
        ids, group = order[slots], np.maximum.accumulate(np.where(new[slots], slots, 0))
        here = words[offsets[ids] + k]
        ended = np.minimum(lengths[ids], 8 * k + 9)
        by = np.lexsort((ended, here, group))
        order[slots] = ids = ids[by]
        new[slots] = starts = _changes(group[by], here[by], ended[by])
        tied = ~(starts & np.append(starts[1:], True))
        slots = slots[tied & (lengths[ids] > 8 * (k + 1))]
        k += 1
    rank = np.empty_like(order)
    group = np.cumsum(new)
    group -= 1
    rank[order] = group
    first = order[new]  # the first of each distinct id, whose words are kept
    del order, new, group
    lengths = lengths[first]
    if offsets is not None:
        first = segment_rows(offsets[first], _word_counts(lengths))
    return words[first], lengths, rank


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
    if strictly_increasing(*columns):
        return np.zeros(n, dtype=bool)  # strictly increasing, as the writers write
    # setdefault gives each record the position of its key's first record
    first: dict[tuple, int] = {}
    positions = map(first.setdefault, zip(*(c.tolist() for c in columns)), range(n))
    return np.fromiter(positions, np.int64, n) != np.arange(n)


def _unique_clones(person: np.ndarray, clone: np.ndarray) -> _Check:
    """The check that flags a record repeating an earlier one's (person_id, clone_id)."""
    return _repeats(person, clone), lambda i: f"duplicate clone {(person[i], clone[i])}"


def _sums(add: Callable[[np.ndarray], np.ndarray], values: np.ndarray):
    """add(values), int64 sums of non-negative values saturated at INT64_MAX,
    and a mask of the sums that do not fit in int64: add runs again, on
    Python ints, only when values.max() * values.size does not fit."""
    sums = add(values)
    overflow = np.zeros(sums.size, dtype=bool)
    if int(values.max(initial=0)) * values.size > INT64_MAX:
        overflow = add(values.astype(object)) > INT64_MAX
    sums[overflow] = INT64_MAX
    return sums, overflow


def read_strata(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """strata.tsv as (person_id, stratum) columns in file order, each person
    once and each stratum 0 or 1 (int64)."""
    table = _read_table(path, STRATA_COLUMNS)
    person = table.strs(0)
    stratum, is_int = table.ints(1, "stratum")
    binary = stratum > 1, lambda i: f"stratum must be 0 or 1, got {stratum[i]}"
    unique = _repeats(person), lambda i: f"duplicate person {person[i]!r}"
    table.check([is_int, binary, unique])
    return person, stratum


def read_offsets(path: str | Path, digest=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """offsets.tsv as (person_id, time_index, total_reads) columns, sorted by
    person then time; every byte read is fed to digest, if given."""
    table = _read_table(path, OFFSETS_COLUMNS, digest)
    person = table.strs(0)
    time, time_is_int = table.ints(1, "time_index")
    total, total_is_int = table.ints(2, "total_reads", minimum=1)
    unique = _repeats(person, time), lambda i: f"duplicate person-time {(person[i], int(time[i]))}"
    table.check([time_is_int, unique, total_is_int])
    order = np.lexsort((time, person))
    return person[order], time[order], total[order]


def read_truth_labels(path: str | Path) -> TruthLabels:
    """truth.tsv: one row per clone, dynamic 0 or 1; columns in file order."""
    table = _read_table(path, TRUTH_COLUMNS)
    person, clone = table.strs(0), table.strs(1)
    dynamic, is_int = table.ints(2, "dynamic")
    binary = dynamic > 1, lambda i: f"dynamic must be 0 or 1, got {dynamic[i]}"
    table.check([_unique_clones(person, clone), is_int, binary])
    return TruthLabels(person, clone, dynamic == 1)


@dataclass(frozen=True, eq=False)
class Responsibilities:
    """The columns of responsibilities.tsv, in file order."""

    person_id: np.ndarray
    clone_id: np.ndarray
    n_times: np.ndarray
    prob_dynamic: np.ndarray

    def __len__(self) -> int:
        return int(self.person_id.size)


def read_responsibilities(path: str | Path) -> Responsibilities:
    """responsibilities.tsv: one row per clone, n_times an integer >= 1 and
    prob_dynamic in [0, 1]."""
    table = _read_table(path, RESPONSIBILITIES_COLUMNS)
    person, clone = table.strs(0), table.strs(1)
    n_times, n_times_is_int = table.ints(2, "n_times", minimum=1)
    prob, is_number, in_unit_interval = table.probabilities(3)
    table.check([_unique_clones(person, clone), is_number, n_times_is_int, in_unit_interval])
    return Responsibilities(person, clone, n_times, prob)


def read_calls(path: str | Path) -> CallTable:
    """calls.tsv as classify writes it: one row per clone, a prob_dynamic in
    [0, 1], and a (call, direction) pair of classify.KINDS, whose index
    is the call's direction code."""
    table = _read_table(path, CALLS_COLUMNS)
    person, clone = table.strs(0), table.strs(1)
    prob, is_number, in_unit_interval = table.probabilities(2)
    codes = {(call.value, direction.value): code for code, (call, direction) in enumerate(KINDS)}
    kinds = map(codes.get, zip(table.strs(3), table.strs(4)), itertools.repeat(-1))
    direction = np.fromiter(kinds, np.int8, person.size)
    known = direction < 0, lambda i: (
        f"call {table.text(i, 3)!r} with direction {table.text(i, 4)!r}: "
        "expected dynamic with expanding or contracting, or static with na"
    )
    table.check([_unique_clones(person, clone), known, is_number, in_unit_interval])
    return CallTable(person, clone, prob, direction)


def _read_cohort_columns(path: Path, digest=None):
    """Sorted distinct person and clone ids; person, clone, time and count
    columns of every parsable record, in file order, with each id as its
    rank among the sorted ones in the narrowest integer type; the line
    numbers of those records, block by block; and the ParseError of the
    first unparsable record (or None).

    Records after an unparsable one are still read, so a wrong field count
    anywhere in the file is reported first, as a whole-file check would.
    """
    persons, clones = _IdColumn(), _IdColumn()
    times, counts, lines = [], [], []
    error = None
    for block in _read_blocks(path, COHORT_COLUMNS, digest):
        if error is not None:
            continue
        time, time_is_int = block.ints(1, "time_index")
        count, count_is_int = block.ints(3, "count")
        n, error = block.fault([time_is_int, count_is_int]) or (len(block.lines), None)
        persons.add(block.raw, block.starts[:n, 0], block.ends[:n, 0])
        clones.add(block.raw, block.starts[:n, 2], block.ends[:n, 2])
        times.append(time[:n].astype(narrow_type(time.max(initial=0))))
        counts.append(count[:n].astype(narrow_type(count.max(initial=0))))
        lines.append(block.lines[:n])
    (person_ids, person), (clone_ids, clone) = persons.ranked(), clones.ranked()
    time, count = np.concatenate(times), np.concatenate(counts)
    person_names = person_ids.decode(np.arange(len(person_ids)))
    return person_names, clone_ids, [person, clone, time, count], lines, error


def ingest(
    path: str | Path,
    offsets_path: str | Path | None = None,
    digests: dict[str, str | None] | None = None,
) -> CohortTable:
    """Read and validate a cohort table.

    Offsets are computed from the full, unfiltered table so they reflect
    the whole repertoire; an explicit offsets file overrides the derived
    sums (it must cover every person-time and dominate every count).

    Given a dict as digests, ingest sets its "input" and "offsets" items
    to what file_digests gives, from the bytes it parses: each file is
    read once, so either may be a pipe.
    """
    input_hash = offsets_hash = None
    if digests is not None:
        input_hash, offsets_hash = _sha256(), _sha256()
    person_names, clone_names, columns, lines, error = _read_cohort_columns(Path(path), input_hash)
    order = np.lexsort(columns[2::-1])  # by person, clone, time; stable: ties in file order
    person, clone, time, count = (columns.pop(0)[order] for _ in range(4))  # one at a time
    order = order.astype(narrow_type(order.size))
    same_clone = (person[1:] == person[:-1]) & (clone[1:] == clone[:-1])
    repeats = np.flatnonzero(same_clone & (time[1:] == time[:-1])) + 1
    if repeats.size:
        # the earliest record that repeats a key seen before it; every record
        # read comes before the first unparsable one
        i = repeats[np.argmin(order[repeats])]
        clone_id = clone_names.decode([clone[i]])[0]
        dup_key = (person_names[person[i]], int(time[i]), clone_id)
        line = int(np.concatenate(lines)[order[i]])
        raise ParseError(f"duplicate (person_id, time_index, clone_id) {dup_key}", line)
    if error is not None:
        raise error

    # integer keys that order like (person, time) pairs, of the records and
    # of the person-time table
    pt_person, pt_time = person_names[:0], np.zeros(0, dtype=np.int64)
    if offsets_path is not None:
        pt_person, pt_time, pt_total = read_offsets(offsets_path, offsets_hash)
    names = np.unique(np.concatenate([person_names, pt_person]))
    values = np.union1d(np.unique(time), pt_time)
    row_key = np.searchsorted(names, person_names)[person]
    row_key *= values.size
    row_key += np.searchsorted(values, time)
    pt_key = np.searchsorted(names, pt_person) * values.size + np.searchsorted(values, pt_time)
    if offsets_path is None:
        pt_key = np.unique(row_key)
        pt_person, pt_time = names[pt_key // values.size], values[pt_key % values.size]
    obs_pt = np.searchsorted(pt_key, row_key)
    np.minimum(obs_pt, pt_key.size - 1, out=obs_pt)
    covered = pt_key[obs_pt] == row_key
    del row_key
    obs_pt, count = obs_pt.astype(narrow_type(pt_key.size)), count.astype(np.int64)
    if offsets_path is not None:
        bad = np.flatnonzero(~covered | (count > pt_total[obs_pt]))
        if bad.size:
            i = bad[np.argmin(order[bad])]
            pt = (person_names[person[i]], int(time[i]))
            if not covered[i]:
                raise ValidationError(f"offsets file does not cover person-time {pt}")
            raise ValidationError(
                f"count {int(count[i])} for clone {clone_names.decode([clone[i]])[0]!r} exceeds "
                f"the offset {int(pt_total[obs_pt[i]])} at {pt}"
            )
    else:

        def per_pt(column: np.ndarray) -> np.ndarray:
            sums = np.zeros(pt_key.size, dtype=column.dtype)
            np.add.at(sums, obs_pt, column)
            return sums

        pt_total, overflow = _sums(per_pt, count)
        # report the person-time whose first record comes first, as a row loop would
        for failing, message in (
            (overflow, "total reads do not fit in a 64-bit integer"),
            (pt_total <= 0, "has zero total reads; supply an explicit offsets file"),
        ):
            rows = np.flatnonzero(failing[obs_pt])
            if rows.size:
                i = rows[np.argmin(order[rows])]
                pt = (person_names[person[i]], int(time[i]))
                raise ValidationError(f"person-time {pt} {message}")

    if digests is not None:
        digests["input"] = input_hash.hexdigest()
        digests["offsets"] = None if offsets_path is None else offsets_hash.hexdigest()
    starts = np.flatnonzero(np.concatenate([[True], ~same_clone]))
    return CohortTable(
        clone_names, clone[starts], starts, count, obs_pt, pt_person, pt_time, pt_total
    )


def filter_clones(
    table: CohortTable,
    min_total_reads: int,
    absent_as_zero: bool = True,
) -> PackedCohort:
    """Pack the clones whose recorded counts sum to at least min_total_reads,
    in canonical (person_id, clone_id) order.

    With absent_as_zero, a kept clone also gets an explicit zero count at
    every person-time where its person was sampled but the clone had no
    row, so contractions to zero stay in the model.  The cohort keeps the
    table's whole person-time table, so offsets always come from the
    unfiltered table, and a person-time no kept clone was seen at stays
    in it unused.  Only the kept clones' ids are decoded.
    """
    if min_total_reads < 0:
        raise ValidationError("min_total_reads must be >= 0")
    if min_total_reads > INT64_MAX:
        raise ValidationError("min_total_reads does not fit in a 64-bit integer")

    totals, _ = _sums(lambda values: np.add.reduceat(values, table.starts), table.counts)
    keep = np.flatnonzero(totals >= min_total_reads)
    del totals
    first_obs = table.starts[keep]
    n_times = np.append(table.starts, table.counts.size)[keep + 1] - first_obs
    obs_rows = segment_rows(first_obs, n_times)
    pt_rows, counts = table.obs_pt[obs_rows], table.counts[obs_rows]
    if absent_as_zero:
        # widen each clone to its person's block of the person-time table
        # and scatter its recorded counts to their person-times there
        new_person = np.concatenate([[True], table.pt_person[1:] != table.pt_person[:-1]])
        block_start = np.flatnonzero(new_person)
        block = (np.cumsum(new_person) - 1)[table.obs_pt[first_obs]]
        block_len = np.diff(block_start, append=new_person.size)
        recorded, n_times = n_times, block_len[block]
        shift = np.repeat(np.cumsum(n_times) - n_times - block_start[block], recorded)
        zero_filled = np.zeros(int(n_times.sum()), dtype=np.int64)
        zero_filled[pt_rows + shift] = counts
        pt_rows, counts = segment_rows(block_start[block], n_times), zero_filled
    return PackedCohort(
        table.clone_names.decode(table.clone[keep]),
        np.cumsum(n_times) - n_times,
        counts,
        pt_rows,
        table.pt_person,
        table.pt_time,
        table.pt_total,
    )


@contextmanager
def _atomic_file(path: str | Path, binary: bool = False, digest=None) -> Iterator[io.IOBase]:
    """A text handle (a binary one if binary) on a temporary file that
    replaces path in one rename when the block completes, created as open()
    would: mode 0o666 less the process umask.  The file is synced to disk
    before the rename, and its directory after it, so a crash leaves either
    the old file or the whole new one.  With a digest (a hashlib object),
    every byte written to the file is fed to it on its way there."""
    path = Path(path)
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "wb", buffering=0) as file:
            handle = io.BufferedWriter(file if digest is None else _Hashed(file, digest))
            if not binary:
                handle = io.TextIOWrapper(handle, encoding="utf-8", newline="")
            with handle:
                yield handle
                handle.flush()
                os.fsync(file.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace path with text in one rename."""
    with _atomic_file(path) as handle:
        handle.write(text)


_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def format_column(values: np.ndarray) -> list[str]:
    """The text of each value as write_table writes it: a str as it is, an
    integer as str gives it, a float in shortest round-trip form and a bool
    as true or false.  Each distinct value (of a float, bit pattern) is
    formatted once, which pays where values repeat, as proportions do."""
    kind = values.dtype.kind
    if kind in "OU":
        return values.tolist()
    if kind == "b":
        return _BOOL_TEXT[values.astype(np.intp)].tolist()
    if kind == "f":
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        text = map(repr, distinct.view(np.float64).tolist())
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        text = map(str, distinct.tolist())
    return np.array(list(text), dtype=object)[inverse].tolist()


def write_table(
    path: str | Path, columns: Mapping[str, np.ndarray | list[str]], digest=None
) -> None:
    """Replace path with a header of the column names and a tab-joined row per
    record, formatted and written WRITE_RECORDS at a time.  An array column is
    formatted by format_column; a list is format_column's text already, so a
    column written to two tables is formatted once.  Every byte written is
    fed to digest (a hashlib object), if one is given."""
    with _atomic_file(path, digest=digest) as handle:
        handle.write("\t".join(columns) + "\n")
        for k in range(0, max(map(len, columns.values()), default=0), WRITE_RECORDS):
            block = (column[k : k + WRITE_RECORDS] for column in columns.values())
            text = [c if isinstance(c, list) else format_column(c) for c in block]
            handle.write("\n".join(map("\t".join, zip(*text, strict=True))) + "\n")


def write_cohort(path: str | Path, cohort: PackedCohort) -> None:
    """Write cohort rows in canonical (person, time, clone) order: the
    person-time rows are in (person, time) order, one per person-time, and
    the clones in (person, clone) order, which a stable sort of the rows
    keeps within a person-time."""
    cohort = cohort.sorted()
    order = np.argsort(cohort.obs_pt, kind="stable")
    rows = cohort.obs_pt[order]
    columns = (
        cohort.pt_person[rows],
        cohort.pt_time[rows],
        np.repeat(cohort.clone_id, cohort.n_times)[order],
        cohort.counts[order],
    )
    write_table(path, dict(zip(COHORT_COLUMNS, columns)))


def write_offsets(path: str | Path, offsets: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Write (person_id, time_index, total_reads) columns, as read_offsets and
    offsets_from_series give them, in their order."""
    write_table(path, dict(zip(OFFSETS_COLUMNS, offsets)))


def offsets_from_series(cohort: PackedCohort) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the cohort's person-time table some observation sits on, as
    the sorted (person_id, time_index, total_reads) columns read_offsets
    returns."""
    rows = cohort.used_rows()
    return cohort.pt_person[rows], cohort.pt_time[rows], cohort.pt_total[rows]


def write_truth(path: str | Path, truth: TruthLabels) -> None:
    """Write the labels in their order, dynamic as 0 or 1."""
    columns = (truth.person_id, truth.clone_id, truth.dynamic.astype(np.int8))
    write_table(path, dict(zip(TRUTH_COLUMNS, columns)))


def write_responsibilities(path: str | Path, responsibilities: Responsibilities) -> str:
    """Write the columns in their order, as read_responsibilities gives them;
    the sha256 (hex) of the bytes written."""
    digest = _sha256()
    write_table(path, vars(responsibilities), digest)
    return digest.hexdigest()


def write_calls(path: str | Path, calls: CallTable, prob_text: list[str]) -> str:
    """calls.tsv, with prob_text the format_column of calls.prob_dynamic; the
    sha256 (hex) of the bytes written."""
    columns = (
        calls.person_id, calls.clone_id, prob_text, calls.call_text(), calls.direction_text()
    )
    digest = _sha256()
    write_table(path, dict(zip(CALLS_COLUMNS, columns)), digest)
    return digest.hexdigest()


def file_digest(path: str | Path) -> str:
    """The sha256 (hex) of the file's bytes, read once."""
    digest = _sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def file_digests(path: str | Path, offsets_path: str | Path | None) -> dict[str, str | None]:
    """The sha256 (hex) of the cohort file's bytes, as "input", and of the
    offsets file's, as "offsets" (None without one); each file is read once."""
    return {
        "input": file_digest(path),
        "offsets": None if offsets_path is None else file_digest(offsets_path),
    }


def cohort_key(
    digests: Mapping[str, str | None],
    min_total_reads: int,
    absent_as_zero: bool,
    responsibilities: str,
) -> dict[str, str]:
    """What a cohort pack is keyed by, field by field, as its header holds
    it: the digests of the cohort and offsets bytes, as ingest or
    file_digests gives them (none without offsets), the filter settings,
    and the sha256 of responsibilities.tsv, as write_responsibilities or
    file_digest gives it."""
    return {
        "input": digests["input"],
        "offsets": digests["offsets"] or "none",
        "min_total_reads": str(min_total_reads),
        "absent_as_zero": str(absent_as_zero).lower(),
        "responsibilities": responsibilities,
    }


def _joined(ids: np.ndarray) -> np.ndarray:
    """The UTF-8 bytes of the ids joined by newlines, which no id holds."""
    text = "\n".join(ids.tolist())
    if text.count("\n") != max(ids.size - 1, 0):
        raise ValidationError("an id holds a line break, which a pack cannot hold")
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _split(data: np.ndarray, n: int) -> np.ndarray:
    """The n ids _joined gave data for, as an object array of str;
    ValueError if data holds another number of ids or is not UTF-8."""
    ids = data.tobytes().decode("utf-8").split("\n") if n or data.size else []
    if len(ids) != n:
        raise ValueError(f"{len(ids)} ids for {n} rows")
    return np.array(ids, dtype=object)


@dataclass(frozen=True)
class _PackFormat:
    """A pack format: its name and version, which its first line spells,
    the dtype kind of each of its .npy arrays, in order, and what a key
    field of another value tells the user to do."""

    name: str
    version: int
    kinds: str
    remedy: str

    @property
    def tag(self) -> bytes:
        return f"clonedyn {self.name} {self.version}\n".encode("ascii")


_COHORT_PACK = _PackFormat(
    "cohort pack", 2, "uuiiiiif",
    "classify must read the cohort fit read, with the same filter settings, and the "
    "responsibilities.tsv fit wrote beside the pack",
)  # fmt: skip
_CALLS_PACK = _PackFormat(
    "calls pack", 1, "uiii",
    "summarize must read the calls.tsv classify wrote beside the pack; remove the pack "
    "to summarize another",
)  # fmt: skip


def _trailer(digest) -> bytes:
    """The last line of a pack: the sha256 of every byte before it."""
    return f"sha256 = {digest.hexdigest()}\n".encode("ascii")


def _write_pack(
    path: str | Path, form: _PackFormat, key: Mapping[str, str], columns: Sequence[np.ndarray]
) -> None:
    """Replace path with a pack: form's tag and a `name = value` line per key
    field, then the columns as .npy arrays, hashed as they go to the file,
    with no copy of the file in memory; last, the line `sha256 = ` and the
    hex digest of every byte before it."""
    header = "".join(f"{name} = {value}\n" for name, value in key.items()).encode("utf-8")
    digest = _sha256()
    with _atomic_file(path, binary=True) as handle:
        hashed = _Hashed(handle, digest)
        hashed.write(form.tag + header)
        for column in columns:
            np.lib.format.write_array(hashed, column, allow_pickle=False)
        handle.write(_trailer(digest))


def _garbled(path: Path, form: _PackFormat) -> ValidationError:
    return ValidationError(f"{path}: not a whole {form.name} of this format")


def _read_pack(path: Path, form: _PackFormat, key: Mapping[str, str]) -> list[np.ndarray]:
    """The columns _write_pack wrote to path under the same key, each 1-D of
    its kind in form.kinds.

    A key field of another value is a ValidationError that names the first
    such field, and so is a file that is not a whole pack of this format,
    its last line's sha256 included.  No array is unpickled.
    """
    digest = _sha256()
    with open(path, "rb") as file:
        handle = _Hashed(file, digest)
        if handle.readline(len(form.tag)) != form.tag:
            raise _garbled(path, form)
        for name, value in key.items():
            line = handle.readline(256).decode("utf-8", errors="replace")
            field, _, stored = line.rstrip("\n").partition(" = ")
            if field != name or not line.endswith("\n"):
                raise _garbled(path, form)
            if stored != value:
                raise ValidationError(
                    f"{path} was written for another {name} ({stored} there, {value} here): "
                    f"{form.remedy}"
                )
        try:
            # a garbled shape may ask for more memory than there is
            arrays = [np.lib.format.read_array(handle, allow_pickle=False) for _ in form.kinds]
        except (ValueError, EOFError, MemoryError):
            raise _garbled(path, form) from None
        trailer = _trailer(digest)
        if file.read(len(trailer) + 1) != trailer:
            raise _garbled(path, form)
    if "".join(array.dtype.kind if array.ndim == 1 else "-" for array in arrays) != form.kinds:
        raise _garbled(path, form)
    return arrays


def write_cohort_pack(
    path: str | Path, cohort: PackedCohort, prob_dynamic: np.ndarray, key: Mapping[str, str]
) -> None:
    """Replace path with the cohort and the prob_dynamic of each of its
    clones, under key (cohort_key): the clone and person ids (_joined),
    starts, counts, obs_pt, pt_time, pt_total and prob_dynamic (float64)."""
    columns = (
        _joined(cohort.clone_id),
        _joined(cohort.pt_person),
        cohort.starts,
        cohort.counts,
        cohort.obs_pt,
        cohort.pt_time,
        cohort.pt_total,
        np.asarray(prob_dynamic, dtype=np.float64),
    )
    _write_pack(path, _COHORT_PACK, key, columns)


def read_cohort_pack(
    path: str | Path, key: Mapping[str, str]
) -> tuple[PackedCohort, np.ndarray]:
    """The cohort and prob_dynamic write_cohort_pack wrote to path under the
    same key.

    A key field of another value is a ValidationError that names the first
    such field, and so is a file that is not a whole pack of this format,
    its last line's sha256 included, or one fit could not have written: it
    must hold a clone, as responsibilities.tsv must hold a row, and each
    prob_dynamic must lie in [0, 1].  No array is unpickled, and
    PackedCohort checks the cohort it rebuilds.
    """
    path = Path(path)
    *columns, prob_dynamic = _read_pack(path, _COHORT_PACK, key)
    clone_id, pt_person, starts, counts, obs_pt, pt_time, pt_total = columns
    in_unit_interval = (prob_dynamic >= 0) & (prob_dynamic <= 1)
    if not starts.size or prob_dynamic.size != starts.size or not in_unit_interval.all():
        raise _garbled(path, _COHORT_PACK)
    try:
        clone_id, pt_person = _split(clone_id, starts.size), _split(pt_person, pt_total.size)
        cohort = PackedCohort(clone_id, starts, counts, obs_pt, pt_person, pt_time, pt_total)
    except ValueError:
        raise _garbled(path, _COHORT_PACK) from None
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return cohort, prob_dynamic.astype(np.float64, copy=False)


def write_calls_pack(path: str | Path, counts: PersonCounts, calls_digest: str) -> None:
    """Replace path with the per-person counts of the calls.tsv whose sha256
    (hex) is calls_digest, as write_calls gives it: the person ids
    (_joined), n_dynamic, n_expanding and n_contracting."""
    columns = (
        _joined(counts.person_id), counts.n_dynamic, counts.n_expanding, counts.n_contracting
    )
    _write_pack(path, _CALLS_PACK, {"calls": calls_digest}, columns)


def read_calls_pack(path: str | Path, calls_digest: str) -> PersonCounts:
    """The counts write_calls_pack wrote to path for the same calls.tsv.

    Another calls_digest is a ValidationError naming calls, and so is a
    file that is not a whole pack of this format, its sha256 included, or
    whose counts dynamic_counts_per_person could not have given from a
    calls.tsv, which holds a row: one person or more, in strictly
    increasing order, each count >= 0, and n_dynamic the sum of
    n_expanding and n_contracting.  No array is unpickled.
    """
    path = Path(path)
    ids, *columns = _read_pack(path, _CALLS_PACK, {"calls": calls_digest})
    n_dynamic, n_expanding, n_contracting = (c.astype(np.int64) for c in columns)
    try:
        person_id = _split(ids, n_dynamic.size)
    except ValueError:
        raise _garbled(path, _CALLS_PACK) from None
    if not (
        0 < n_dynamic.size == n_expanding.size == n_contracting.size
        and strictly_increasing(person_id)
        and (n_dynamic >= 0).all()
        and (n_expanding >= 0).all()
        and (n_contracting >= 0).all()
        and (n_dynamic == n_expanding + n_contracting).all()
    ):
        raise _garbled(path, _CALLS_PACK)
    return PersonCounts(person_id, n_dynamic, n_expanding, n_contracting)
