"""numpy's OpenBLAS loads with one thread under clonedyn, and no output
depends on its thread count; a fit loads no part of numpy it does not use.

OpenBLAS reads its thread count only while numpy loads, and a module stays
loaded once imported, so every case runs in a fresh interpreter whose
environment holds none of the variables OpenBLAS reads, unless the case
sets one.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clonedyn
from clonedyn.cli import main

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh(code: str, *argv, **blas_vars: str) -> str:
    """Standard output of code run in a fresh interpreter, with the BLAS
    variables removed from its environment and blas_vars set."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_VARS}
    env.update(blas_vars, PYTHONPATH=str(Path(clonedyn.__file__).parent.parent))
    argv = [sys.executable, "-c", code, *map(str, argv)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# [tasks before importing clonedyn.cli, tasks after, whether os.environ is unchanged]
TASKS = """
import json, os, sys
environ = dict(os.environ)
if sys.argv[1] == "numpy first":
    import numpy
tasks = len(os.listdir("/proc/self/task"))
import clonedyn.cli
print(json.dumps([tasks, len(os.listdir("/proc/self/task")), dict(os.environ) == environ]))
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counts the threads of a process on at least two CPUs",
)
@pytest.mark.parametrize(
    "first, blas_vars, threads",
    [
        ("clonedyn first", {}, 1),
        ("clonedyn first", {"OPENBLAS_NUM_THREADS": "2"}, 2),  # the user's setting wins
        ("numpy first", {}, None),  # numpy's own count
    ],
)
def test_clonedyn_loads_openblas_with_one_thread_unless_told_otherwise(first, blas_vars, threads):
    before, after, environ_unchanged = json.loads(fresh(TASKS, first, **blas_vars))
    assert after == (before if threads is None else threads)
    assert environ_unchanged


STAGES = """
import sys
from clonedyn.cli import main
for argv in sys.argv[1:]:
    assert main(argv.split("|")) == 0, argv
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The whole pipeline, with OpenBLAS at one thread and at two: model._dot
    sums without BLAS, and classify's slopes are dot products of a clone's
    few points, so every output must be byte-identical.  With 12,000 clones
    a dot over the clones is long enough for OpenBLAS to split it."""
    strata = tmp_path / "strata.tsv"
    strata.write_text("person_id\tstratum\n" + "".join(f"p{i:03d}\t{i % 2}\n" for i in range(6)))
    digests = []
    for blas_vars in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / str(len(digests))
        sim, fit, cls = out / "sim", out / "fit", out / "cls"
        inputs = ("--input", sim / "cohort.tsv", "--offsets", sim / "offsets.tsv",
                  "--min-total-reads", 0)
        stages = [
            ("simulate", "--n-clones", 12000, "--n-persons", 6, "--seed", 3, "--output-dir", sim),
            ("fit", *inputs, "--seed", 7, "--output-dir", fit),
            ("classify", *inputs, "--responsibilities", fit / "responsibilities.tsv",
             "--truth", sim / "truth.tsv", "--output-dir", cls),
            ("summarize", "--input", cls / "calls.tsv", "--strata", strata,
             "--cutoff-dynamic", 50, "--cutoff-direction", 25, "--output-dir", out / "sum"),
        ]  # fmt: skip
        fresh(STAGES, *("|".join(map(str, stage)) for stage in stages), **blas_vars)
        digests.append({
            str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()
        })  # fmt: skip
    assert len(digests[0]) == 3 + 4 + 6 + 2  # every output of each stage
    assert digests[0] == digests[1]


def test_a_fit_leaves_numpy_ma_unloaded(tmp_path):
    """np.unique without an inverse, and np.union1d, import numpy.ma, which
    costs a fit process 12-20 ms; a fit with and one without an offsets
    file take different paths through ingest."""
    sim = tmp_path / "sim"
    argv = ["simulate", "--n-clones", 300, "--n-persons", 3, "--seed", 3, "--output-dir", sim]
    assert main(list(map(str, argv))) == 0
    fits = [
        ("fit", "--input", sim / "cohort.tsv", "--offsets", sim / "offsets.tsv",
         "--min-total-reads", 0, "--output-dir", tmp_path / "with-offsets"),
        ("fit", "--input", sim / "cohort.tsv", "--min-total-reads", 0, "--absent-as-zero",
         "--output-dir", tmp_path / "derived"),
    ]  # fmt: skip
    code = STAGES + 'print("numpy.ma" in sys.modules)'
    for fit in fits:
        assert fresh(code, "|".join(map(str, fit))) == "False\n"
