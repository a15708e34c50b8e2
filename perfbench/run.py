"""Benchmark of the clonedyn CLI pipeline: simulate -> fit -> classify -> summarize.

    python3 perfbench/run.py --workload repertoire --seed 1 --seconds 55 --trace 0

It builds nothing and reads the package from the checkout's `src/`.  Each
run generates its inputs from --seed, times the real CLI stages as child
processes one at a time (a closed loop with a single client), checks
every output with perfbench/gate.py, and prints one JSON object as the
last line of stdout.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs the pipeline once untraced and once in-process
with spans around each layer, and reports the per-layer metrics.  Each
run writes a result file with the machine context to
`.perfbench/results/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gate, layers  # noqa: E402
from perfbench.generate import (  # noqa: E402
    INPUT_FILES,
    depth_mean,
    generate,
    load_workload,
    write_inputs,
)
from perfbench.tracing import Tracer, patched  # noqa: E402

SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
ENTRY = "import sys; from clonedyn.cli import main; sys.exit(main())"
STAGES = ("simulate", "fit", "classify", "summarize")
PIPELINE = layers.PIPELINE
SETUP_REPEATS = 3
FIT_SEED = 7  # clonedyn fit --seed
SUMMARIZE_REPEATS = 2
FULL_EVERY = 3  # one round in FULL_EVERY also runs classify and summarize
# A fixed piece of work shaped like the stages (parse, group, format, then
# vectorized numpy) that the program under test cannot change.  It runs as
# a child before every timed stage; the run's mean time for it tracks
# how fast the host runs this machine during the run.
REFERENCE = """
import numpy as np
rows = [f"p{i % 100:03d}\\t{i % 12}\\tc{i:06d}\\t{i * 7 % 50}" for i in range(60000)]
table = {}
for row in rows:
    p, t, c, n = row.split("\\t")
    table.setdefault((p, c), {})[int(t)] = int(n)
text = "\\n".join(f"{p}\\t{c}\\t{len(v)}\\t{sum(v.values())!r}" for (p, c), v in sorted(table.items()))
x = np.random.default_rng(0).random(300000)
for _ in range(15):
    np.add.reduceat(np.log(x + 1.0), np.arange(0, x.size, 7))
"""
# The reference's time on an unloaded 2-vCPU Xeon VM with Python 3.11; timed
# values are scaled by REFERENCE_S / (this run's mean reference time).
REFERENCE_S = 0.5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "fit_s": "s",
    "classify_s": "s",
    "summarize_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Runs one child per stdin line and answers [wall_s, cpu_s, maxrss_kb, exit code].
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, env, log = json.loads(line)
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code]), flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here, for example because there is no program to measure."""


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float | None  # None for in-process stages
    rss_mb: float | None
    rc: int
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Dataset:
    """One generated cohort on disk, with what a correct pipeline must make of it."""

    index: int
    paths: dict[str, Path]
    expect: gate.Expected
    digests: dict[str, str]


class Launcher:
    """Starts the measured children from a small helper process.

    Linux carries the peak RSS of the process that forks into the child's
    ru_maxrss.  Children forked from the benchmark, which holds the
    generated cohorts, would report the benchmark's peak instead of their
    own; the helper's peak is a few MB, below any stage's.
    """

    def __init__(self, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.log = log
        self._proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str]) -> tuple[float, float, float, int]:
        """Wall time, user+sys CPU, peak RSS (MB) and exit code of `python argv...`."""
        self._proc.stdin.write(json.dumps([[sys.executable, *argv], self.env, str(self.log)]) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process died")
        wall, cpu, maxrss_kb, rc = json.loads(line)
        return wall, cpu, maxrss_kb / 1024.0, rc

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


class Ledger:
    """Output digests per (source, workload, seed), shared by every run in this checkout."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.entries = json.loads(path.read_text()) if path.is_file() else {}
        self.mine = self.entries.setdefault(key, {})

    def check(self, what: str, digests: dict[str, str]) -> list[str]:
        problems = []
        for name, digest in digests.items():
            if self.mine.setdefault(f"{what}/{name}", digest) != digest:
                problems.append(f"{what}/{name}: sha256 differs from an earlier run")
        return problems

    def save(self) -> None:
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def last_level_cache() -> str | None:
    best = (0, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level >= best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def machine_context() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = found.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "last_level_cache": last_level_cache(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def stage_argv(stage: str, wl: dict, seed: int, inputs: dict[str, Path], dirs: dict) -> list[str]:
    cli = wl["cli"]
    out = ["--output-dir", str(dirs[stage])]
    if stage == "simulate":
        gen = wl["generator"]  # simulate draws a cohort of the generator's size and parameters
        flags = {
            "--n-clones": gen["n_persons"] * gen["clones_per_person"],
            "--n-persons": gen["n_persons"],
            "--n-followups": gen["n_times"],
            "--missing-rate": gen["missing_rate"],
            "--alpha": gen["alpha"],
            "--beta": gen["beta"],
            "--pi": gen["pi"],
            "--offset-mean": depth_mean(gen["depth"]),
            "--seed": seed,
        }
        return ["simulate", *(str(v) for pair in flags.items() for v in pair), *out]
    if stage == "summarize":
        return [
            "summarize",
            "--input", str(dirs["classify"] / "calls.tsv"),
            "--strata", str(inputs["strata.tsv"]),
            "--cutoff-dynamic", str(cli["cutoff_dynamic"]),
            "--cutoff-direction", str(cli["cutoff_direction"]),
            *out,
        ]  # fmt: skip
    argv = [stage, "--input", str(inputs["cohort.tsv"])]
    if cli["offsets"]:
        argv += ["--offsets", str(inputs["offsets.tsv"])]
    argv += [
        "--min-total-reads", str(cli["min_total_reads"]),
        "--absent-as-zero" if cli["absent_as_zero"] else "--no-absent-as-zero",
    ]  # fmt: skip
    if stage == "fit":
        return argv + ["--seed", str(FIT_SEED), *out]
    return argv + [
        "--responsibilities", str(dirs["fit"] / "responsibilities.tsv"),
        "--truth", str(inputs["truth.tsv"]),
        "--threshold", str(gate.THRESHOLD),
        *out,
    ]  # fmt: skip


def informational(fit_dir: Path) -> dict:
    """Fitted values recorded for the reader; not gated."""
    try:
        doc = gate.read_keyvalues(fit_dir / "hyperparams.txt")
    except gate.Malformed:
        return {}
    keys = ("alpha", "beta", "pi", "iterations", "converged", "final_loglik", "n_clones")
    return {k: doc.get(k) for k in keys}


class Bench:
    """One benchmark run of one workload and seed inside a scratch directory."""

    def __init__(self, wl: dict, seed: int, work: Path, ledger: Ledger, launcher: Launcher):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.launcher = launcher
        self.problems: list[str] = []
        self.import_times: list[float] = []

    def check_program(self) -> None:
        """Fail unless clonedyn.cli imports from this checkout's src/."""
        want = str((SRC / "clonedyn" / "cli.py").resolve())
        probe = f"import os, sys, clonedyn.cli as m; sys.exit(os.path.realpath(m.__file__) != {want!r})"
        if self.launcher.run(["-c", probe])[3] != 0:
            raise BenchError(f"clonedyn.cli does not import from {SRC}")

    def dataset(self, index: int) -> tuple[Dataset, float]:
        """Generate and write dataset `index` of the seed; also returns the seconds it took."""
        start = time.perf_counter()
        inputs = generate(self.wl["generator"], self.seed, index)
        paths = write_inputs(inputs, self.work / "inputs")
        seconds = time.perf_counter() - start
        digests = {name: gate.sha256_of(paths[name]) for name in INPUT_FILES}
        self.problems += self.ledger.check(f"{index}/inputs", digests)
        expect = gate.expected_from(inputs, self.wl["cli"])
        return Dataset(index, paths, expect, digests), seconds

    def setup(self) -> tuple[Dataset, list[float]]:
        """Generate dataset 0 and cold-import clonedyn.cli, several times; the median is setup_s."""
        totals, seen = [], []
        for _ in range(SETUP_REPEATS):
            data, generated = self.dataset(0)
            wall, _cpu, _rss, rc = self.launcher.run(["-c", "import clonedyn.cli"])
            if rc != 0:
                raise BenchError("import clonedyn.cli failed")
            self.import_times.append(wall)
            totals.append(generated + wall)
            seen.append(data.digests)
        if any(s != seen[0] for s in seen):
            self.problems.append("the generator wrote different inputs for the same seed")
        return data, totals

    def stage(self, stage: str, data: Dataset, dirs: dict[str, Path]) -> StageRun:
        """One CLI stage as a child process, then the gate on its outputs."""
        dirs[stage].mkdir(parents=True, exist_ok=True)
        argv = ["-c", ENTRY, *stage_argv(stage, self.wl, self.seed, data.paths, dirs)]
        run = StageRun(stage, *self.launcher.run(argv))
        if run.rc != 0:
            run.problems.append(f"{stage} exited with {run.rc}")
            return run
        run.problems += gate.check_stage(stage, dirs[stage], dirs, data.expect, self.wl)
        try:
            run.digests = gate.digests(dirs[stage], stage)
        except OSError as exc:
            run.problems.append(f"{stage}: {exc}")
            return run
        what = stage if stage == "simulate" else f"{data.index}/{stage}"
        run.problems += self.ledger.check(what, run.digests)
        return run

    def untraced(self, seconds: float) -> tuple[dict, list[StageRun], dict]:
        """Time the CLI stages for about `seconds`.

        simulate runs first and last.  In between, rounds run while
        another fits in the time left, each on a fresh dataset: every
        round runs fit, and every FULL_EVERY-th round also classify and
        summarize (twice); a fit-only round fills the time a full one would
        overrun.  fit's cost depends on the data through the number of EM
        steps, so it gets the most datasets, and each stage reports the
        mean over its runs: it averages over datasets better than a median
        of a few.
        Every timed stage is preceded by a run of REFERENCE, and every time
        is scaled by REFERENCE_S over the run's mean reference time: on a
        shared host whose speed drifts by tens of percent over minutes,
        this keeps the host's speed out of the figures while a change in
        clonedyn still moves them.  The mean, not the median: a reference
        run mostly lands in one of the host's two speed levels, while a
        stage of seconds sees their average.
        """
        data, setup_totals = self.setup()
        dirs = {stage: self.work / stage for stage in STAGES}
        refs: list[float] = []
        samples: dict[str, list[StageRun]] = {stage: [] for stage in STAGES}

        def timed(stage: str) -> None:
            refs.append(self.launcher.run(["-c", REFERENCE])[0])
            samples[stage].append(self.stage(stage, data, dirs))

        start = time.perf_counter()
        timed("simulate")
        sim_cost = time.perf_counter() - start
        round_cost: dict[bool, float] = {}
        rounds = 0
        while True:
            left = seconds - sim_cost - (time.perf_counter() - start)
            full = rounds % FULL_EVERY == 0 and round_cost.get(True, 0.0) <= left
            if rounds and round_cost.get(full, max(round_cost.values())) > left:
                break
            began = time.perf_counter()
            if rounds:
                data = self.dataset(rounds)[0]
            timed("fit")
            if full:
                timed("classify")
                for _ in range(SUMMARIZE_REPEATS):
                    timed("summarize")
            round_cost[full] = time.perf_counter() - began
            rounds += 1
        timed("simulate")

        scale = REFERENCE_S / statistics.fmean(refs)

        def scaled(stage: str, attr: str = "wall_s") -> float:
            return statistics.fmean(getattr(r, attr) for r in samples[stage]) * scale

        fit_s, classify_s, summarize_s = (scaled(s) for s in PIPELINE)
        runs = [r for stage_runs in samples.values() for r in stage_runs]
        metrics = {
            "setup_s": statistics.median(setup_totals) * scale,
            "simulate_s": scaled("simulate"),
            "fit_s": fit_s,
            "classify_s": classify_s,
            "summarize_s": summarize_s,
            "pipeline_s": fit_s + classify_s + summarize_s,
            "pipeline_cpu_s": sum(scaled(s, "cpu_s") for s in PIPELINE),
            "peak_rss_mb": max(r.rss_mb for r in runs),
        }
        extra = {
            "rounds": rounds,
            "reference_s": refs,
            "scale": scale,
            "setup_raw_s": setup_totals,
            "informational": informational(dirs["fit"]),
        }
        return metrics, runs, extra

    def traced(self) -> tuple[dict, list[StageRun], dict]:
        """The pipeline once as children, then once in-process with spans; outputs must match."""
        data, _totals = self.setup()
        dirs = {stage: self.work / "untraced" / stage for stage in STAGES}
        runs = [self.stage(s, data, dirs) for s in STAGES]
        reference = {r.stage: r.digests for r in runs}

        sys.path.insert(0, str(SRC))
        tracer = Tracer(run_id=f"{self.wl['name']}-{self.seed}-{os.getpid()}")
        with tracer.span("cli.import"):
            import clonedyn.cli as cli
        if Path(cli.__file__).resolve() != (SRC / "clonedyn" / "cli.py").resolve():
            raise BenchError(f"clonedyn imported from {cli.__file__}, not {SRC}")
        traced_dirs = {stage: self.work / "traced" / stage for stage in STAGES}
        stash: dict = {}
        extra: dict = {"tracebacks": []}
        with patched(tracer, layers.trace_targets(tracer, stash)) as missing:
            # a call site that no longer resolves would read as a zero, not as a failure
            self.problems += [f"traced run: {name} not found, so not traced" for name in missing]
            for stage in STAGES:
                traced_dirs[stage].mkdir(parents=True, exist_ok=True)
                argv = stage_argv(stage, self.wl, self.seed, data.paths, traced_dirs)
                with tracer.span(f"cli.{stage}") as root:
                    try:
                        rc = cli.main(argv)
                    except Exception:  # a crash is a failed stage; the run still reports
                        extra["tracebacks"].append(traceback.format_exc())
                        rc = -1
                run = StageRun(f"traced-{stage}", root.duration, None, None, rc)
                if rc != 0:
                    run.problems.append(f"traced {stage} exited with {rc}")
                elif gate.digests(traced_dirs[stage], stage) != reference[stage]:
                    run.problems.append(f"traced {stage} outputs differ from the untraced run")
                if stage == "fit":
                    layers.count_filtering(tracer, stash)
                runs.append(run)

        untraced_runs = {r.stage: r for r in runs[: len(STAGES)]}
        metrics = layers.layer_metrics(
            tracer,
            self.import_times,
            {s: r.wall_s for s, r in untraced_runs.items()},
            {s: r.rss_mb for s, r in untraced_runs.items()},
            sum(p.stat().st_size for d in traced_dirs.values() for p in d.iterdir() if p.is_file()),
        )
        self.problems += [f"traced run: observer failed: {error}" for error in tracer.errors]
        extra.update(
            informational=informational(dirs["fit"]),
            self_times=layers.self_time_table(tracer.spans),
            spans=[s.to_json() for s in tracer.spans],
        )
        return metrics, runs, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        wl = load_workload(args.workload)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}")
    if not (SRC / "clonedyn" / "cli.py").is_file():
        print(f"perfbench: no clonedyn package under {SRC}", file=sys.stderr)
        return 2

    stamp = time.time_ns()
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = STATE / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        context = machine_context()
        ledger = Ledger(STATE / "digests.json", f"{context['source_sha256']}/{wl['name']}/{args.seed}")
        with Launcher(work / "stderr.log") as launcher:
            bench = Bench(wl, args.seed, work, ledger, launcher)
            bench.check_program()
            if args.trace:
                metrics, runs, extra = bench.traced()
                units = layers.PER_LAYER
            else:
                metrics, runs, extra = bench.untraced(args.seconds)
                units = END_TO_END
        ledger.save()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in runs if r.problems)
    result = {
        "correct": failed == 0 and not bench.problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": wl,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "fail_frac": failed / len(runs),
        "problems": bench.problems,
        "stages": [asdict(r) for r in runs],
        **extra,
        "result": result,
    }
    name = f"{wl['name']}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    for problem in bench.problems + [p for r in runs for p in r.problems]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
