"""Seeded input generator for the benchmark workloads.

It draws from the same Gamma-Poisson mixture that clonedyn fits, but it
does not call `clonedyn.simulate`: a change to the simulator's random
stream must not change what `fit` and `classify` see.  Usage:

    python3 perfbench/generate.py --workload longitudinal --seed 1 --output-dir DIR

writes `cohort.tsv`, `offsets.tsv`, `truth.tsv` and `strata.tsv` to DIR.

With `rare_reads` set, the table has the shape of real repertoire data:
a clone has no row at a time where it has no reads, and every
person-time also gets rare clones of 1 or 2 reads that fill the rest of
its depth, so its counts partition its total: offsets derived from the
cohort table then equal the generating depths and (alpha, beta, pi) stay
recoverable.  Without it, every observed clone-time has a row, zeros
included.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INPUT_FILES = ("cohort.tsv", "offsets.tsv", "truth.tsv", "strata.tsv")
WORKLOADS_PATH = Path(__file__).resolve().parent / "workloads.json"


def load_workload(name: str) -> dict:
    """One workload's parameters from workloads.json; KeyError if unknown."""
    workloads = json.loads(WORKLOADS_PATH.read_text(encoding="utf-8"))["workloads"]
    return {"name": name, **workloads[name]}


@dataclass
class Inputs:
    """One generated cohort, kept in memory for the correctness gate."""

    person_ids: list[str]
    depth: np.ndarray  # (persons, times) generating total reads
    clone_ids: list[str]  # tracked clones, in canonical order
    person_of: np.ndarray  # person index of each tracked clone
    dynamic: np.ndarray  # truth label of each tracked clone
    recorded: np.ndarray  # (clones, times) True where the clone has a cohort row
    counts: np.ndarray  # (clones, times) counts, zero where not recorded
    strata: np.ndarray  # 0/1 per person
    rare: list[tuple[int, int, str, int]]  # (person, time, clone_id, count) rows


def _depths(spec: dict, rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    if spec["kind"] == "exponential":
        return np.maximum(np.ceil(rng.exponential(spec["mean"], size=shape)), 1).astype(np.int64)
    if spec["kind"] == "uniform":
        return rng.integers(spec["low"], spec["high"], size=shape, endpoint=True, dtype=np.int64)
    raise ValueError(f"unknown depth kind {spec['kind']!r}")


def depth_mean(spec: dict) -> float:
    """Mean of the depth distribution, for `clonedyn simulate --offset-mean`."""
    if spec["kind"] == "exponential":
        return spec["mean"]
    if spec["kind"] == "uniform":
        return (spec["low"] + spec["high"]) / 2
    raise ValueError(f"unknown depth kind {spec['kind']!r}")


def _split_reads(total: int, rng: np.random.Generator) -> np.ndarray:
    """Sizes of 1 or 2 reads that sum exactly to total."""
    sizes = rng.integers(1, 3, size=total)
    ends = np.cumsum(sizes)
    last = int(np.searchsorted(ends, total))
    sizes = sizes[: last + 1]
    if ends[last] > total:
        sizes[last] = 1
    return sizes


def generate(params: dict, seed: int, dataset: int = 0) -> Inputs:
    """Draw cohort number `dataset` of a seed for a workload's generator parameters."""
    rng = np.random.default_rng([seed, dataset])
    n_persons = params["n_persons"]
    n_times = params["n_times"]
    per_person = params["clones_per_person"]
    n_clones = n_persons * per_person
    alpha, beta, pi = params["alpha"], params["beta"], params["pi"]

    depth = _depths(params["depth"], rng, (n_persons, n_times))
    person_of = np.repeat(np.arange(n_persons), per_person)
    dynamic = rng.random(n_clones) < pi
    lam = rng.gamma(alpha, 1.0 / beta, size=(n_clones, n_times))
    lam = np.where(dynamic[:, None], lam, lam[:, :1])
    observed = np.ones((n_clones, n_times), dtype=bool)
    if params["missing_rate"] > 0:
        observed[:, 1:] = rng.random((n_clones, n_times - 1)) >= params["missing_rate"]
    clone_depth = depth[person_of]
    counts = np.minimum(rng.poisson(lam * clone_depth), clone_depth)
    counts = np.where(observed, counts, 0)
    recorded = observed & (counts > 0) if params["rare_reads"] else observed

    rare: list[tuple[int, int, str, int]] = []
    if params["rare_reads"]:
        tracked = np.zeros((n_persons, n_times), dtype=np.int64)
        np.add.at(tracked, person_of, counts)
        remaining = depth - tracked
        if np.any(remaining < 0):
            raise ValueError("tracked clones exceed a person-time's depth; lower clones_per_person")
        k = 0
        for p in range(n_persons):
            for t in range(n_times):
                for size in _split_reads(int(remaining[p, t]), rng).tolist():
                    rare.append((p, t, f"r{k:07d}", size))
                    k += 1

    strata = np.zeros(n_persons, dtype=np.int64)
    strata[rng.permutation(n_persons)[: n_persons // 2]] = 1
    return Inputs(
        person_ids=[f"p{j:03d}" for j in range(n_persons)],
        depth=depth,
        clone_ids=[f"c{i:06d}" for i in range(n_clones)],
        person_of=person_of,
        dynamic=dynamic,
        recorded=recorded,
        counts=counts,
        strata=strata,
        rare=rare,
    )


def _write(path: Path, header: str, lines: list[str]) -> None:
    path.write_text(header + "\n" + "".join(lines), encoding="utf-8")


def write_inputs(inputs: Inputs, out_dir: Path) -> dict[str, Path]:
    """Write the four input tables; cohort rows in (person, time, clone) order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    persons = inputs.person_ids
    n_persons, n_times = inputs.depth.shape
    per_person = len(inputs.clone_ids) // n_persons
    rare_by_pt: dict[tuple[int, int], list[str]] = {}
    for p, t, clone, count in inputs.rare:
        rare_by_pt.setdefault((p, t), []).append(f"{persons[p]}\t{t}\t{clone}\t{count}\n")

    cohort: list[str] = []
    for p in range(n_persons):
        first = p * per_person
        block = range(first, first + per_person)
        for t in range(n_times):
            rec = inputs.recorded[first : first + per_person, t].tolist()
            cnt = inputs.counts[first : first + per_person, t].tolist()
            cohort.extend(
                f"{persons[p]}\t{t}\t{inputs.clone_ids[i]}\t{c}\n"
                for i, r, c in zip(block, rec, cnt)
                if r
            )
            cohort.extend(rare_by_pt.get((p, t), ()))

    paths = {name: out_dir / name for name in INPUT_FILES}
    _write(paths["cohort.tsv"], "person_id\ttime_index\tclone_id\tcount", cohort)
    _write(
        paths["offsets.tsv"],
        "person_id\ttime_index\ttotal_reads",
        [
            f"{persons[p]}\t{t}\t{int(inputs.depth[p, t])}\n"
            for p in range(n_persons)
            for t in range(n_times)
        ],
    )
    has_row = inputs.recorded.any(axis=1).tolist()
    _write(
        paths["truth.tsv"],
        "person_id\tclone_id\tdynamic",
        [
            f"{persons[p]}\t{c}\t{int(d)}\n"
            for c, p, d, keep in zip(
                inputs.clone_ids, inputs.person_of.tolist(), inputs.dynamic.tolist(), has_row
            )
            if keep
        ],
    )
    _write(
        paths["strata.tsv"],
        "person_id\tstratum",
        [f"{persons[p]}\t{int(s)}\n" for p, s in enumerate(inputs.strata.tolist())],
    )
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--output-dir", required=True, type=Path)
    args = parser.parse_args(argv)
    workload = load_workload(args.workload)
    write_inputs(generate(workload["generator"], args.seed), args.output_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
