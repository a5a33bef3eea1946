"""One pass of the paper workflow, run as a closed loop with one client: each
stage starts only after the previous one has finished.

    oracle -> batch -> report -> De Jong -> equilibrium

The program receives only the dataset CSV the set-up step wrote. Every call
goes through a module attribute, so the tracer's wrappers see it. The output
checks run after the timed stages and hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from evosel import batch, dataset, dejong, equilibrium, regress
from evosel.ga import ALL_STRATEGY_PAIRS

from workloads import Workload

EQ_MODES = ("mutation", "recombination", "both")
EQ_RATE = 0.1
IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import evosel.cli\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Setup:
    csv_path: str
    true_indices: tuple[int, ...]
    data: dataset.Dataset
    csv_bytes: int
    seconds: list[float]
    import_seconds: list[float]


def fresh_import(src_dir: str) -> float:
    """Import evosel.cli in a fresh interpreter; returns the import time it reports."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def set_up(w: Workload, seed: int, work_dir: str, src_dir: str) -> Setup:
    """Fresh-interpreter import, then synth, write and load the dataset.

    Repeated ``w.setup_repeats`` times after one untimed import that fills
    the bytecode cache, which a user pays once per install.
    """
    fresh_import(src_dir)
    csv_path = os.path.join(work_dir, "dataset.csv")
    seconds, import_seconds = [], []
    for _ in range(w.setup_repeats):
        t0 = perf_counter()
        import_seconds.append(fresh_import(src_dir))
        synth = dataset.synth_dataset(w.n, w.m, w.k_true, w.noise_sd, seed=seed)
        dataset.write_dataset(synth.dataset, csv_path)
        data = dataset.load_dataset(csv_path)
        seconds.append(perf_counter() - t0)
    return Setup(csv_path, synth.true_indices, data, os.path.getsize(csv_path), seconds,
                 import_seconds)


@dataclass
class Checks:
    """Output checks made and failed; each failure keeps a one-line reason."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@dataclass
class Cycle:
    """Timings, work counts and check outcomes of one workflow pass."""

    wall_s: float = 0.0
    oracle_s: float = 0.0
    oracle_subsets: int = 0
    batch_s: float = 0.0
    batch_gens: int = 0
    batch_runs: int = 0
    report_s: float = 0.0
    dejong_s: float = 0.0
    dejong_gens: int = 0
    eq_s: float = 0.0
    eq_steps: int = 0
    checks: Checks = field(default_factory=Checks)
    digest: str = ""
    bytes_per_run: float = 0.0
    task_pickle_bytes: float = 0.0


def run_cycle(w: Workload, setup: Setup, seed: int, index: int, out_dir: str,
              jobs: int, tracer) -> Cycle:
    c = Cycle()
    base_seed = seed * 1_000_000 + index * 1000
    os.makedirs(out_dir)
    start = perf_counter()

    with tracer.span("stage.oracle"):
        t = perf_counter()
        for _ in range(w.oracle_repeats):
            oracle = batch.exhaustive_search(setup.data, w.oracle_k)
            c.oracle_subsets += oracle.n_evaluated
        c.oracle_s = perf_counter() - t

    spec = batch.BatchSpec(dataset_path=setup.csv_path, out_dir=out_dir, tag=w.name,
                           runs_per_strategy=w.runs, base_seed=base_seed,
                           population_size=w.population, k=w.k_true,
                           generations=w.generations, jobs=jobs)
    with tracer.span("stage.batch"):
        t = perf_counter()
        manifest = batch.run_batch(spec)
        c.batch_s = perf_counter() - t
    c.batch_runs = len(manifest["files"])
    c.batch_gens = c.batch_runs * w.generations

    given_optimum = None
    if not w.report_oracle:
        given_optimum = regress.fit_mlr(setup.data, setup.true_indices).r2
    manifest_path = os.path.join(out_dir, "manifest.json")
    report_times = []
    for r in range(w.report_repeats):
        # The first report lands beside the manifest; regenerations go to fresh directories.
        report_dir = os.path.join(out_dir, f"report{r}") if r else None
        with tracer.span("stage.report"):
            t = perf_counter()
            report = batch.generate_report(manifest_path, optimum=given_optimum, out_dir=report_dir)
            report_times.append(perf_counter() - t)
    c.report_s = statistics.median(report_times)

    with tracer.span("stage.dejong"):
        t = perf_counter()
        dejong_traces = []
        for fi, function in enumerate(sorted(dejong.FUNCTIONS)):
            for si, pair in enumerate(ALL_STRATEGY_PAIRS):
                config = dejong.RealGaConfig(function, pair, base_seed + 100 * fi + si,
                                             population_size=w.dejong_population,
                                             generations=w.dejong_generations)
                dejong_traces.append(dejong.run_real(config).best_trace)
        c.dejong_s = perf_counter() - t
    c.dejong_gens = len(dejong_traces) * w.dejong_generations

    with tracer.span("stage.equilibrium"):
        t = perf_counter()
        trajectories = []
        for mi, mode in enumerate(EQ_MODES):
            rng = np.random.default_rng([seed, index, mi])
            trajectories.append(equilibrium.trajectory(_eq_start(mode, w.eq_population, rng),
                                                       mode, EQ_RATE, w.eq_steps, rng))
        c.eq_s = perf_counter() - t
    c.eq_steps = len(EQ_MODES) * w.eq_steps
    c.wall_s = perf_counter() - start

    _check_outputs(c.checks, w, setup, oracle, manifest, report, out_dir, given_optimum,
                   dejong_traces, trajectories)
    c.digest = _digest(out_dir, manifest, dejong_traces, trajectories)
    c.bytes_per_run = sum(os.path.getsize(os.path.join(out_dir, e[key]))
                          for e in manifest["files"] for key in ("cfg", "evo")) / c.batch_runs
    c.task_pickle_bytes = _task_pickle_bytes(spec, setup.data)
    return c


def _eq_start(mode: str, size: int, rng: np.random.Generator) -> equilibrium.AllelePopulation:
    """Mutation modes start from a constant population. Recombination starts
    fully linked (every string repeats one random symbol), far from its
    product-of-marginals limit, so the distance falls for any seed."""
    if mode == "recombination":
        symbols = rng.integers(2, size=(size, 1))
        return equilibrium.AllelePopulation(2, np.repeat(symbols, 3, axis=1))
    return equilibrium.constant_population(2, 3, size)


def _check_outputs(c: Checks, w: Workload, setup: Setup, oracle, manifest: dict, report: dict,
                   out_dir: str, given_optimum, dejong_traces, trajectories) -> None:
    optimum = report["optimum"]
    c.check(manifest["failures"] == 0, f"manifest reports {manifest['failures']} failed runs")
    for entry in manifest["files"]:
        trace = _read_trace(os.path.join(out_dir, entry["evo"]))
        c.check(len(trace) == w.generations + 1, f"{entry['evo']}: {len(trace)} generations logged")
        c.check(_non_decreasing(trace), f"{entry['evo']}: best trace decreases")
        c.check(trace[-1] == entry.get("final_r2") and trace[-1] <= optimum,
                f"{entry['evo']}: final r2 {trace[-1]} vs optimum {optimum}")
    if w.report_oracle and w.oracle_k == w.k_true:
        c.check(oracle.best_r2 == optimum,
                f"standalone oracle {oracle.best_r2} != report optimum {optimum}")
    if w.noise_sd == 0.0:
        c.check(optimum == 1.0, f"noise-free optimum is {optimum}, not 1")
        if w.oracle_k == w.k_true:
            c.check(oracle.best_indices == setup.true_indices,
                    f"oracle picked {oracle.best_indices}, truth is {setup.true_indices}")
    if given_optimum is not None:
        c.check(optimum == given_optimum, "report did not use the given optimum")
    for r in range(1, w.report_repeats):
        for name in sorted(os.listdir(os.path.join(out_dir, f"report{r}"))):
            c.check(_read_bytes(out_dir, f"report{r}", name) == _read_bytes(out_dir, name),
                    f"regenerated {name} differs from the first report")
    for trace in dejong_traces:
        c.check(len(trace) == w.dejong_generations + 1 and _non_decreasing(trace),
                "De Jong best trace has the wrong length or decreases")
    for mode, distances in zip(EQ_MODES, trajectories):
        c.check(len(distances) == w.eq_steps + 1 and distances[-1] < distances[0],
                f"equilibrium {mode}: {len(distances)} entries, {distances[0]} -> {distances[-1]}")


def _read_trace(path: str) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [float(line.split(",")[1]) for line in lines[1:]]


def _read_bytes(*parts: str) -> bytes:
    with open(os.path.join(*parts), "rb") as fh:
        return fh.read()


def _non_decreasing(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def _digest(out_dir: str, manifest: dict, dejong_traces, trajectories) -> str:
    """sha256 over every output file and trace. The manifest's dataset path is
    left out: it names where the run happened, not what it produced."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            content = json.dumps({k: v for k, v in manifest.items() if k != "dataset_file"},
                                 sort_keys=True).encode()
        elif os.path.isfile(os.path.join(out_dir, name)):
            content = _read_bytes(out_dir, name)
        else:
            continue  # regenerated reports, checked equal to the first
        h.update(name.encode() + b"\0" + content + b"\0")
    for trace in dejong_traces:
        h.update(np.asarray(trace, dtype=float).tobytes())
    for distances in trajectories:
        h.update(np.asarray(distances, dtype=float).tobytes())
    return h.hexdigest()


def _task_pickle_bytes(spec: batch.BatchSpec, data: dataset.Dataset) -> float:
    """Bytes the parallel batch path pickles per task: the arguments of one
    ``_execute_one`` call, the dataset included."""
    config = spec.config_for(spec.strategies[0], spec.base_seed)
    args = (data, config, "0" * 64, spec.out_dir, "cfg.txt", "evo.txt", False)
    return float(len(pickle.dumps(args)))
