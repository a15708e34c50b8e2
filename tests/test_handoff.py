"""The two handoffs by pack: fit's cohort.pack beside responsibilities.tsv,
and classify's calls.pack beside calls.tsv.

classify takes the cohort and prob_dynamic from cohort.pack when its key
(the sha256 of the cohort and offsets bytes fit parsed, the filter
settings and the sha256 of responsibilities.tsv) matches its own options
and files, and must then write exactly what it writes after ingesting
the cohort and reading the responsibilities; summarize takes its
per-person counts from calls.pack when its key (the sha256 of calls.tsv)
matches, and must then write exactly what it writes after reading
calls.tsv.  Any other key, or a pack that is not a whole one of its
format (whose last line is the sha256 of every byte before it) or that
holds columns its stage could not have written, exits 2.  Each stage
reads each input once, so a pipe serves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pickle
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clonedyn.cli as cli
from clonedyn.classify import dynamic_counts_per_person
from clonedyn.cli import CALLS_PACK_NAME, EXIT_IO, EXIT_OK, EXIT_VALIDATION, PACK_NAME, main
from clonedyn.cohort import (
    Responsibilities,
    cohort_key,
    file_digest,
    file_digests,
    filter_clones,
    ingest,
    read_calls,
    read_calls_pack,
    write_cohort_pack,
    write_responsibilities,
)
from clonedyn.errors import ValidationError

from oracles import write_strata
from test_ingest_props import SETTINGS, cohort_text, cohorts


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    root = tmp_path_factory.mktemp("handoff")
    argv = ("--n-clones", 300, "--n-persons", 4, "--missing-rate", 0.3, "--seed", 3)
    assert run("simulate", *argv, "--output-dir", root) == EXIT_OK
    return root


def cohort_args(sim: Path, offsets: bool, absent_as_zero: bool, min_total_reads: int = 0):
    args = ["--input", sim / "cohort.tsv", "--min-total-reads", min_total_reads]
    args.append("--absent-as-zero" if absent_as_zero else "--no-absent-as-zero")
    return args + (["--offsets", sim / "offsets.tsv"] if offsets else [])


def classify(fit: Path, out: Path, args, *extra):
    return run("classify", *args, "--responsibilities", fit / "responsibilities.tsv", *extra,
               "--output-dir", out)  # fmt: skip


def summarize(calls: Path, strata: Path, out: Path):
    return run("summarize", "--input", calls, "--strata", strata, "--cutoff-dynamic", 10,
               "--cutoff-direction", 5, "--output-dir", out)  # fmt: skip


def outputs(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def without_pack(directory: Path, pack: str, copy: Path) -> Path:
    """A copy of directory without its pack."""
    copy.mkdir()
    for path in directory.iterdir():
        if path.name != pack:
            (copy / path.name).write_bytes(path.read_bytes())
    return copy


def crlf_copy(path: Path, directory: Path) -> Path:
    """path's table with CRLF line ends: other bytes, which parse to the same
    table."""
    directory.mkdir(exist_ok=True)
    copy = directory / path.name
    copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return copy


def write_strata_of(calls: Path, path: Path) -> Path:
    """strata.tsv of the persons of a calls.tsv, alternately 0 and 1."""
    persons = sorted({line.split("\t")[0] for line in calls.read_text("utf-8").splitlines()[1:]})
    write_strata(path, {person: j % 2 for j, person in enumerate(persons)})
    return path


@pytest.mark.parametrize("offsets", [True, False], ids=["offsets", "derived"])
@pytest.mark.parametrize("absent_as_zero", [True, False], ids=["zero-filled", "as-recorded"])
def test_classify_writes_the_same_with_the_pack_and_without_it(
    simulated, tmp_path, offsets, absent_as_zero
):
    args = cohort_args(simulated, offsets, absent_as_zero)
    fit = tmp_path / "fit"
    assert run("fit", *args, "--seed", 7, "--output-dir", fit) == EXIT_OK
    truth = ("--truth", simulated / "truth.tsv")
    assert classify(fit, tmp_path / "packed", args, *truth) == EXIT_OK
    (fit / PACK_NAME).unlink()
    assert classify(fit, tmp_path / "ingested", args, *truth) == EXIT_OK
    assert outputs(tmp_path / "packed") == outputs(tmp_path / "ingested")


def write_fitted(directory: Path, cohort, inputs=None) -> None:
    """responsibilities.tsv for the cohort's clones, as fit writes it, and
    the pack beside it when inputs, cohort_key's digests and filter
    settings, are given."""
    directory.mkdir(exist_ok=True)
    n = len(cohort)
    prob = np.arange(n, dtype=np.float64) / max(n - 1, 1)
    digest = write_responsibilities(
        directory / "responsibilities.tsv",
        Responsibilities(cohort.person_id, cohort.clone_id, cohort.n_times, prob),
    )
    assert digest == file_digest(directory / "responsibilities.tsv")
    if inputs is not None:
        write_cohort_pack(directory / PACK_NAME, cohort, prob, cohort_key(*inputs, digest))


@SETTINGS
@given(cohorts(), st.sampled_from([0, 8]), st.booleans())
def test_classify_of_any_ids_writes_the_same_with_the_pack(case, min_total_reads, absent_as_zero):
    """Multi-word and non-ASCII ids, with and without an offsets sidecar,
    through classify and summarize: calls.pack holds what read_calls and
    dynamic_counts_per_person give, and summarize writes the same with it
    and without it."""
    rows, _sampled, sidecar = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "cohort.tsv").write_text(cohort_text(rows), encoding="utf-8")
        args = ["--input", root / "cohort.tsv", "--min-total-reads", min_total_reads]
        args.append("--absent-as-zero" if absent_as_zero else "--no-absent-as-zero")
        offsets = None
        if sidecar is not None:
            offsets = root / "offsets.tsv"
            lines = "".join(f"{p}\t{t}\t{n}\n" for (p, t), n in sidecar.items())
            offsets.write_text("person_id\ttime_index\ttotal_reads\n" + lines, encoding="utf-8")
            args += ["--offsets", offsets]
        digests = {}
        try:
            table = ingest(root / "cohort.tsv", offsets, digests)
        except ValidationError:
            return  # fit exits 2 on such a cohort, so it writes no pack
        assert digests == file_digests(root / "cohort.tsv", offsets)
        cohort = filter_clones(table, min_total_reads, absent_as_zero)
        write_fitted(root / "ingest", cohort)
        write_fitted(root / "pack", cohort, (digests, min_total_reads, absent_as_zero))
        codes = [classify(root / name, root / f"out-{name}", args) for name in ("ingest", "pack")]
        assert codes[0] == codes[1]
        if codes[0] != EXIT_OK:
            return
        assert outputs(root / "out-ingest") == outputs(root / "out-pack")
        calls = root / "out-pack" / "calls.tsv"
        packed = read_calls_pack(calls.with_name(CALLS_PACK_NAME), file_digest(calls))
        parsed = dynamic_counts_per_person(read_calls(calls))
        for name, column in vars(parsed).items():
            assert getattr(packed, name).tolist() == column.tolist(), name
        # a cohort of these has at most three persons, too few for the tests,
        # so summarize exits 2 after it has the counts, with the same message
        strata = write_strata_of(calls, root / "strata.tsv")
        unpacked = without_pack(root / "out-pack", CALLS_PACK_NAME, root / "unpacked") / calls.name
        ends = []
        for name, source in (("with", calls), ("without", unpacked)):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = summarize(source, strata, root / f"summary-{name}")
            ends.append((code, err.getvalue(), outputs(root / f"summary-{name}")))
        assert ends[0] == ends[1]


@pytest.fixture(scope="module")
def fitted(simulated, tmp_path_factory):
    """A fit with offsets and as-recorded counts, and the arguments it read."""
    fit = tmp_path_factory.mktemp("fitted")
    args = cohort_args(simulated, offsets=True, absent_as_zero=False)
    assert run("fit", *args, "--seed", 7, "--output-dir", fit) == EXIT_OK
    return fit, args


def refuse(*_args, **_kwargs):
    raise AssertionError("a stage parsed a table its pack stands for")


def test_the_pack_is_what_classify_reads(fitted, tmp_path, monkeypatch):
    """With the pack beside the responsibilities, classify neither ingests
    nor filters the cohort table, nor reads the responsibilities table."""
    fit, args = fitted
    for name in ("ingest", "filter_clones", "read_responsibilities", "align_responsibilities"):
        monkeypatch.setattr(cli, name, refuse)
    assert classify(fit, tmp_path / "cls", args) == EXIT_OK
    assert len((tmp_path / "cls" / "calls.tsv").read_text().splitlines()) == 1 + 300


@pytest.fixture(scope="module")
def classified(fitted, tmp_path_factory):
    """classify's outputs on the fit, calls.pack among them, and strata of
    their persons."""
    fit, args = fitted
    cls = tmp_path_factory.mktemp("classified")
    assert classify(fit, cls, args) == EXIT_OK
    return cls, write_strata_of(cls / "calls.tsv", cls.parent / f"{cls.name}-strata.tsv")


def test_the_calls_pack_is_what_summarize_reads(classified, tmp_path, monkeypatch):
    """With calls.pack beside calls.tsv, summarize neither reads calls.tsv
    nor counts its calls."""
    cls, strata = classified
    monkeypatch.setattr(cli, "read_calls", refuse)
    monkeypatch.setattr(cli, "dynamic_counts_per_person", refuse)
    assert summarize(cls / "calls.tsv", strata, tmp_path / "summary") == EXIT_OK


def test_summarize_writes_the_same_with_the_calls_pack_and_without_it(classified, tmp_path):
    cls, strata = classified
    unpacked = without_pack(cls, CALLS_PACK_NAME, tmp_path / "unpacked")
    assert summarize(cls / "calls.tsv", strata, tmp_path / "packed") == EXIT_OK
    assert summarize(unpacked / "calls.tsv", strata, tmp_path / "parsed") == EXIT_OK
    assert outputs(tmp_path / "packed") == outputs(tmp_path / "parsed")
    assert sorted(outputs(tmp_path / "packed")) == ["association.tsv", "per_person.tsv"]


def changed_copy(path: Path, directory: Path) -> Path:
    """path's table with its last line's last field one larger."""
    lines = path.read_text(encoding="utf-8").splitlines()
    *head, last = lines[-1].split("\t")
    lines[-1] = "\t".join([*head, str(int(last) + 1)])
    copy = directory / path.name
    copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return copy


def swap(args: list, flag: str, value) -> list:
    """args with flag's value replaced, or flag dropped when value is None."""
    i = args.index(flag)
    rest = args[:i] + args[i + 2 :]
    return rest if value is None else [*rest, flag, value]


@pytest.mark.parametrize(
    "field",
    ["input", "offsets", "no offsets", "min_total_reads", "absent_as_zero", "responsibilities",
     "calls"],
)  # fmt: skip
def test_a_pack_of_other_inputs_or_settings_exits_2_naming_the_field(
    fitted, classified, simulated, tmp_path, field, capsys
):
    """A table other than the one its pack was written beside, or other
    settings; a changed table has CRLF line ends, so only its bytes differ."""
    fit, args = fitted
    if field == "responsibilities":
        fit = crlf_copy(fit / "responsibilities.tsv", tmp_path / "fit").parent
        (fit / PACK_NAME).write_bytes((fitted[0] / PACK_NAME).read_bytes())
    elif field == "input":
        args = swap(args, "--input", changed_copy(simulated / "cohort.tsv", tmp_path))
    elif field == "offsets":
        args = swap(args, "--offsets", changed_copy(simulated / "offsets.tsv", tmp_path))
    elif field == "no offsets":
        args = swap(args, "--offsets", None)
    elif field == "min_total_reads":
        args = swap(args, "--min-total-reads", 1)
    elif field == "absent_as_zero":
        args = [a if a != "--no-absent-as-zero" else "--absent-as-zero" for a in args]
    capsys.readouterr()
    if field == "calls":
        cls, strata = classified
        calls = crlf_copy(cls / "calls.tsv", tmp_path / "cls")
        (calls.parent / CALLS_PACK_NAME).write_bytes((cls / CALLS_PACK_NAME).read_bytes())
        assert summarize(calls, strata, tmp_path / "out") == EXIT_VALIDATION
    else:
        assert classify(fit, tmp_path / "out", args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    name = field.split()[-1]
    assert err.startswith("error: ") and f"was written for another {name} (" in err, err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_a_pack_keys_the_input_bytes_not_the_path(fitted, simulated, tmp_path):
    fit, args = fitted
    copy = tmp_path / "renamed.tsv"
    copy.write_bytes((simulated / "cohort.tsv").read_bytes())
    assert classify(fit, tmp_path / "cls", swap(args, "--input", copy)) == EXIT_OK


STAGE = "import sys; from clonedyn.cli import main; sys.exit(main(sys.argv[1:]))"


def run_on_stdin(data: bytes, *argv) -> subprocess.CompletedProcess:
    """A stage run in a fresh interpreter, data piped to its standard input:
    /dev/fd/0 there is a pipe, read once to its end."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    argv = [sys.executable, "-c", STAGE, *map(str, argv)]
    return subprocess.run(argv, input=data, env=env, capture_output=True, timeout=120)


def test_fit_and_classify_read_a_pipe_once(fitted, simulated, tmp_path):
    """A cohort that can be read only once, as `--input <(zcat cohort.tsv.gz)`
    gives it: fit keys its pack to the bytes it parsed, so the pack equals
    that of a fit on the file, and classify on the same bytes takes it."""
    fit, args = fitted
    data = (simulated / "cohort.tsv").read_bytes()
    piped = swap(args, "--input", "/dev/fd/0")
    done = run_on_stdin(data, "fit", *piped, "--seed", 7, "--output-dir", tmp_path / "fit")
    assert done.returncode == EXIT_OK, done.stderr
    assert (tmp_path / "fit" / PACK_NAME).read_bytes() == (fit / PACK_NAME).read_bytes()
    argv = ["classify", *piped, "--responsibilities", tmp_path / "fit" / "responsibilities.tsv"]
    done = run_on_stdin(data, *argv, "--output-dir", tmp_path / "cls")
    assert done.returncode == EXIT_OK, done.stderr
    assert classify(fit, tmp_path / "file", args) == EXIT_OK
    assert outputs(tmp_path / "cls") == outputs(tmp_path / "file")


@pytest.mark.parametrize("stage", ["classify", "summarize"])
def test_a_piped_table_is_parsed_once(fitted, classified, tmp_path, stage):
    """Responsibilities or calls that can be read only once: no pack lies
    beside a pipe, so the stage parses the table as it reads it, and writes
    what it writes from the file beside its pack."""
    fit, args = fitted
    cls, strata = classified
    if stage == "classify":
        data = (fit / "responsibilities.tsv").read_bytes()
        argv = ["classify", *args, "--responsibilities", "/dev/fd/0"]
        assert classify(fit, tmp_path / "file", args) == EXIT_OK
    else:
        data = (cls / "calls.tsv").read_bytes()
        argv = ["summarize", "--input", "/dev/fd/0", "--strata", strata, "--cutoff-dynamic", 10,
                "--cutoff-direction", 5]  # fmt: skip
        assert summarize(cls / "calls.tsv", strata, tmp_path / "file") == EXIT_OK
    done = run_on_stdin(data, *argv, "--output-dir", tmp_path / "piped")
    assert done.returncode == EXIT_OK, done.stderr
    assert outputs(tmp_path / "piped") == outputs(tmp_path / "file")


@pytest.mark.parametrize("quoted", [False, True], ids=["tokenizer", "csv.reader"])
def test_ingest_digests_the_bytes_it_parses(simulated, tmp_path, quoted):
    """On the byte tokenizer's path and on csv.reader's, which takes the
    rest of the file from the first quote on, with a byte-order mark and
    CRLF line ends."""
    lines = (simulated / "cohort.tsv").read_text(encoding="utf-8").splitlines()
    if quoted:
        person, time, clone, count = lines[-1].split("\t")
        lines[-1] = "\t".join([person, time, f'"{clone}"', count])
    path = tmp_path / "cohort.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode("utf-8") + b"\r\n")
    digests = {}
    ingest(path, simulated / "offsets.tsv", digests)
    assert digests == file_digests(path, simulated / "offsets.tsv")
    assert digests["input"] == hashlib.sha256(path.read_bytes()).hexdigest()


DAMAGES = [
    "empty", "tag only", "header only", "cut in a key line", "cut in the arrays", "one byte short",
    "one byte more", "another format", "format 1", "not numpy", "a pickled array",
    "a count off by one", "a negative total under its sha256",
    "a probability outside [0, 1] under its sha256",
]  # fmt: skip


def resealed(body: bytes) -> bytes:
    """body with the last line a pack writer would end it with."""
    return body + b"sha256 = " + hashlib.sha256(body).hexdigest().encode() + b"\n"


def array_at(pack: bytes, k: int) -> tuple[int, int]:
    """Where the k-th array of the pack starts, and where its data does."""
    at = [m.start() for m in re.finditer(b"\x93NUMPY", pack)][k]
    array = io.BytesIO(pack[at:])
    assert np.lib.format.read_magic(array) == (1, 0)
    np.lib.format.read_array_header_1_0(array)
    return at, at + array.tell()


def flipped(data: bytes, i: int) -> bytes:
    """data with the lowest bit of byte i flipped."""
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :]


def damaged(pack: bytes, kind: str) -> bytes:
    """The cohort pack cut short, garbled, of another format or holding a pickle."""
    arrays = pack.index(b"\x93NUMPY")
    body = pack[: pack.rindex(b"sha256 = ")]
    assert resealed(body) == pack
    pickled = io.BytesIO()
    np.lib.format.write_array(pickled, np.array([{"a": 1}], dtype=object), allow_pickle=True)
    # the lowest byte of the first count: the first data byte of the fourth array
    _, first_count = array_at(pack, 3)
    # prob_dynamic, the last array, follows pt_total
    prob_at, _ = array_at(pack, 7)
    return {
        "empty": b"",
        "tag only": pack[: pack.index(b"\n") + 1],
        "header only": pack[:arrays],
        "cut in a key line": pack[: arrays - 3],
        "cut in the arrays": pack[: len(pack) // 2],
        "one byte short": pack[:-1],
        "one byte more": pack + b"\x00",
        "another format": pack.replace(b"clonedyn cohort pack 2", b"clonedyn cohort pack 3", 1),
        # as the cohort pack was before it held prob_dynamic
        "format 1": pack.replace(b"clonedyn cohort pack 2", b"clonedyn cohort pack 1", 1),
        "not numpy": pack[:arrays] + bytes(len(pack) - arrays),
        "a pickled array": pack[:arrays] + pickled.getvalue() + pack[arrays:],
        # well formed, so only the sha256 tells
        "a count off by one": flipped(pack, first_count),
        # the last pt_total, as int64: only PackedCohort's checks tell
        "a negative total under its sha256": resealed(
            body[: prob_at - 8] + b"\xff" * 8 + body[prob_at:]
        ),
        "a probability outside [0, 1] under its sha256": resealed(
            body[:-8] + np.float64(1.5).tobytes()
        ),
    }[kind]


def refuse_unpickling(monkeypatch) -> None:
    def refuse(*_args, **_kwargs):
        raise AssertionError("the pack was unpickled")

    monkeypatch.setattr(pickle, "load", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)


@pytest.mark.parametrize("kind", DAMAGES)
def test_a_damaged_pack_exits_2_without_unpickling(fitted, tmp_path, kind, capsys, monkeypatch):
    fit, args = fitted
    broken = tmp_path / "fit"
    broken.mkdir()
    (broken / "responsibilities.tsv").write_bytes((fit / "responsibilities.tsv").read_bytes())
    (broken / PACK_NAME).write_bytes(damaged((fit / PACK_NAME).read_bytes(), kind))
    refuse_unpickling(monkeypatch)
    capsys.readouterr()
    assert classify(broken, tmp_path / "cls", args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken / PACK_NAME}") and "Traceback" not in err, err
    if kind in ("a count off by one", "format 1", "a probability outside [0, 1] under its sha256"):
        assert "not a whole cohort pack of this format" in err, err
    assert not any((tmp_path / "cls").iterdir())


def damaged_calls_pack(pack: bytes, kind: str) -> bytes:
    """calls.pack cut short, of another format, or with the first n_dynamic,
    the first data byte of the second array, off by one under a new sha256
    (so n_dynamic is no longer n_expanding + n_contracting)."""
    body = pack[: pack.rindex(b"sha256 = ")]
    assert resealed(body) == pack
    return {
        "cut short": pack[: len(pack) // 2],
        "another format": pack.replace(b"clonedyn calls pack 1", b"clonedyn calls pack 2", 1),
        "a count off by one under its sha256": resealed(flipped(body, array_at(pack, 1)[1])),
    }[kind]


@pytest.mark.parametrize(
    "kind", ["cut short", "another format", "a count off by one under its sha256"]
)
def test_a_damaged_calls_pack_exits_2_without_unpickling(
    classified, tmp_path, kind, capsys, monkeypatch
):
    cls, strata = classified
    broken = tmp_path / "cls"
    broken.mkdir()
    (broken / "calls.tsv").write_bytes((cls / "calls.tsv").read_bytes())
    pack = damaged_calls_pack((cls / CALLS_PACK_NAME).read_bytes(), kind)
    (broken / CALLS_PACK_NAME).write_bytes(pack)
    refuse_unpickling(monkeypatch)
    capsys.readouterr()
    assert summarize(broken / "calls.tsv", strata, tmp_path / "summary") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: {broken / CALLS_PACK_NAME}: not a whole calls pack of this format\n"
    assert not any((tmp_path / "summary").iterdir())


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_the_pack_has_the_umask_mode(simulated, tmp_path, umask):
    """cohort.pack and calls.pack both."""
    args = cohort_args(simulated, offsets=True, absent_as_zero=False)
    previous = os.umask(umask)
    try:
        assert run("fit", *args, "--seed", 7, "--output-dir", tmp_path) == EXIT_OK
        assert classify(tmp_path, tmp_path / "cls", args) == EXIT_OK
    finally:
        os.umask(previous)
    for pack in (tmp_path / PACK_NAME, tmp_path / "cls" / CALLS_PACK_NAME):
        assert stat.S_IMODE(pack.stat().st_mode) == 0o666 & ~umask, pack


def fail_on_the_third_array(monkeypatch) -> list:
    """The arrays np.lib.format.write_array wrote before it failed on the third."""
    write_array, written = np.lib.format.write_array, []

    def fail_on_the_third(handle, array, **kwargs):
        if len(written) == 2:
            raise OSError("No space left on device")
        write_array(handle, array, **kwargs)
        written.append(array)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_the_third)
    return written


def test_a_failed_pack_write_leaves_no_file(simulated, tmp_path, monkeypatch, capsys):
    written = fail_on_the_third_array(monkeypatch)
    args = cohort_args(simulated, offsets=True, absent_as_zero=False)
    assert run("fit", *args, "--seed", 7, "--output-dir", tmp_path) == EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert len(written) == 2
    assert not [path for path in tmp_path.iterdir() if PACK_NAME in path.name]


def test_a_failed_calls_pack_write_leaves_no_file(fitted, tmp_path, monkeypatch, capsys):
    fit, args = fitted
    written = fail_on_the_third_array(monkeypatch)
    assert classify(fit, tmp_path, args) == EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert len(written) == 2
    assert not [path for path in tmp_path.iterdir() if CALLS_PACK_NAME in path.name]
