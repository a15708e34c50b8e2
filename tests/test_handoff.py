"""The fit -> classify handoff: fit's cohort.pack beside responsibilities.tsv.

classify takes the cohort from the pack when its key (the sha256 of the
cohort and offsets bytes fit parsed and the filter settings) matches its
own options, and must then write exactly what it writes after ingesting
the table; any other key, or a pack that is not a whole one of this
format (whose last line is the sha256 of every byte before it), exits 2.
Each stage reads each input once, so a pipe serves.
"""

from __future__ import annotations

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
from clonedyn.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, PACK_NAME, main
from clonedyn.cohort import (
    Responsibilities,
    cohort_key,
    file_digests,
    filter_clones,
    ingest,
    write_cohort_pack,
    write_responsibilities,
)
from clonedyn.errors import ValidationError

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


def outputs(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


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


def write_fitted(directory: Path, cohort, pack_key=None) -> None:
    """responsibilities.tsv for the cohort's clones, as fit writes it, and
    the pack beside it when a key is given."""
    directory.mkdir(exist_ok=True)
    n = len(cohort)
    prob = np.arange(n, dtype=np.float64) / max(n - 1, 1)
    write_responsibilities(
        directory / "responsibilities.tsv",
        Responsibilities(cohort.person_id, cohort.clone_id, cohort.n_times, prob),
    )
    if pack_key is not None:
        write_cohort_pack(directory / PACK_NAME, cohort, pack_key)


@SETTINGS
@given(cohorts(), st.sampled_from([0, 8]), st.booleans())
def test_classify_of_any_ids_writes_the_same_with_the_pack(case, min_total_reads, absent_as_zero):
    """Multi-word and non-ASCII ids, with and without an offsets sidecar."""
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
        key = cohort_key(digests, min_total_reads, absent_as_zero)
        write_fitted(root / "ingest", cohort)
        write_fitted(root / "pack", cohort, key)
        codes = [classify(root / name, root / f"out-{name}", args) for name in ("ingest", "pack")]
        assert codes[0] == codes[1]
        if codes[0] == EXIT_OK:
            assert outputs(root / "out-ingest") == outputs(root / "out-pack")


@pytest.fixture(scope="module")
def fitted(simulated, tmp_path_factory):
    """A fit with offsets and as-recorded counts, and the arguments it read."""
    fit = tmp_path_factory.mktemp("fitted")
    args = cohort_args(simulated, offsets=True, absent_as_zero=False)
    assert run("fit", *args, "--seed", 7, "--output-dir", fit) == EXIT_OK
    return fit, args


def test_the_pack_is_what_classify_reads(fitted, tmp_path, monkeypatch):
    """With the pack beside the responsibilities, classify neither ingests
    nor filters the cohort table."""
    fit, args = fitted

    def refuse(*_args, **_kwargs):
        raise AssertionError("classify read the cohort table again")

    monkeypatch.setattr(cli, "ingest", refuse)
    monkeypatch.setattr(cli, "filter_clones", refuse)
    assert classify(fit, tmp_path / "cls", args) == EXIT_OK
    assert len((tmp_path / "cls" / "calls.tsv").read_text().splitlines()) == 1 + 300


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
    "field", ["input", "offsets", "no offsets", "min_total_reads", "absent_as_zero"]
)
def test_a_pack_of_other_inputs_or_settings_exits_2_naming_the_field(
    fitted, simulated, tmp_path, field, capsys
):
    fit, args = fitted
    if field == "input":
        args = swap(args, "--input", changed_copy(simulated / "cohort.tsv", tmp_path))
    elif field == "offsets":
        args = swap(args, "--offsets", changed_copy(simulated / "offsets.tsv", tmp_path))
    elif field == "no offsets":
        args = swap(args, "--offsets", None)
    elif field == "min_total_reads":
        args = swap(args, "--min-total-reads", 1)
    else:
        args = [a if a != "--no-absent-as-zero" else "--absent-as-zero" for a in args]
    capsys.readouterr()
    assert classify(fit, tmp_path / "cls", args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    name = field.split()[-1]
    assert err.startswith("error: ") and f"was written for another {name} (" in err, err
    assert not (tmp_path / "cls").exists() or not any((tmp_path / "cls").iterdir())


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
    "one byte more", "another format", "not numpy", "a pickled array", "a count off by one",
    "a negative total under its sha256",
]  # fmt: skip


def resealed(body: bytes) -> bytes:
    """body with the last line write_cohort_pack would end it with."""
    return body + b"sha256 = " + hashlib.sha256(body).hexdigest().encode() + b"\n"


def damaged(pack: bytes, kind: str) -> bytes:
    """The pack cut short, garbled, of another format or holding a pickle."""
    arrays = pack.index(b"\x93NUMPY")
    body = pack[: pack.rindex(b"sha256 = ")]
    assert resealed(body) == pack
    pickled = io.BytesIO()
    np.lib.format.write_array(pickled, np.array([{"a": 1}], dtype=object), allow_pickle=True)
    # the lowest byte of the first count: the first data byte of the fourth array
    counts_at = [m.start() for m in re.finditer(b"\x93NUMPY", pack)][3]
    counts = io.BytesIO(pack[counts_at:])
    assert np.lib.format.read_magic(counts) == (1, 0)
    np.lib.format.read_array_header_1_0(counts)
    first_count = counts_at + counts.tell()
    return {
        "empty": b"",
        "tag only": pack[: pack.index(b"\n") + 1],
        "header only": pack[:arrays],
        "cut in a key line": pack[: arrays - 3],
        "cut in the arrays": pack[: len(pack) // 2],
        "one byte short": pack[:-1],
        "one byte more": pack + b"\x00",
        "another format": pack.replace(b"clonedyn cohort pack 1", b"clonedyn cohort pack 2", 1),
        "not numpy": pack[:arrays] + bytes(len(pack) - arrays),
        "a pickled array": pack[:arrays] + pickled.getvalue() + pack[arrays:],
        # well formed, so only the sha256 tells
        "a count off by one": pack[:first_count]
        + bytes([pack[first_count] ^ 1])
        + pack[first_count + 1 :],
        # the last pt_total, as int64: only PackedCohort's checks tell
        "a negative total under its sha256": resealed(body[:-8] + b"\xff" * 8),
    }[kind]


@pytest.mark.parametrize("kind", DAMAGES)
def test_a_damaged_pack_exits_2_without_unpickling(fitted, tmp_path, kind, capsys, monkeypatch):
    fit, args = fitted
    broken = tmp_path / "fit"
    broken.mkdir()
    (broken / "responsibilities.tsv").write_bytes((fit / "responsibilities.tsv").read_bytes())
    (broken / PACK_NAME).write_bytes(damaged((fit / PACK_NAME).read_bytes(), kind))

    def refuse(*_args, **_kwargs):
        raise AssertionError("the pack was unpickled")

    monkeypatch.setattr(pickle, "load", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)
    capsys.readouterr()
    assert classify(broken, tmp_path / "cls", args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken / PACK_NAME}") and "Traceback" not in err, err
    if kind == "a count off by one":
        assert "not a whole cohort pack of this format" in err, err


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_the_pack_has_the_umask_mode(simulated, tmp_path, umask):
    args = cohort_args(simulated, offsets=True, absent_as_zero=False)
    previous = os.umask(umask)
    try:
        assert run("fit", *args, "--seed", 7, "--output-dir", tmp_path) == EXIT_OK
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / PACK_NAME).stat().st_mode) == 0o666 & ~umask


def test_a_failed_pack_write_leaves_no_file(simulated, tmp_path, monkeypatch, capsys):
    write_array, written = np.lib.format.write_array, []

    def fail_on_the_third(handle, array, **kwargs):
        if len(written) == 2:
            raise OSError("No space left on device")
        write_array(handle, array, **kwargs)
        written.append(array)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_the_third)
    args = cohort_args(simulated, offsets=True, absent_as_zero=False)
    assert run("fit", *args, "--seed", 7, "--output-dir", tmp_path) == EXIT_IO
    assert "No space left on device" in capsys.readouterr().err
    assert len(written) == 2
    assert not [path for path in tmp_path.iterdir() if PACK_NAME in path.name]
