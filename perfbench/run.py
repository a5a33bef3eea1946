"""Benchmark of the evosel paper workflow.

    python3 perfbench/run.py --workload paper|wide|certify|all --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``. After set-up the workflow cycle (see ``workflow.py``) repeats until
``--seconds`` have passed; at least one cycle always runs. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` reports the per-layer metrics:
it runs one untraced reference cycle, then traced cycles with every batch at
jobs 1, and writes the span aggregates under ``.perfbench_out/``.
``--smoke`` runs one tiny cycle. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads, so jobs x BLAS threads <= nproc.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


def _import_program():
    if not (SRC / "evosel" / "__init__.py").is_file():
        sys.exit(f"error: no evosel sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import evosel
    if Path(evosel.__file__).resolve().parent != SRC / "evosel":
        sys.exit(f"error: evosel was imported from {evosel.__file__}, not from {SRC}")


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest percentile on the ladder with at least
    ten samples beyond it, or the median when there are too few samples."""
    n = len(samples)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 50.0, float(np.median(samples))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def end_to_end(setup, cycles) -> dict:
    """Medians over cycles, so one disturbed cycle does not move a run's figure."""
    def median(value) -> float:
        return statistics.median(value(c) for c in cycles)

    return {
        "setup_s": statistics.median(setup.seconds),
        "wall_s": median(lambda c: c.wall_s),
        "batch_gens_per_s": median(lambda c: c.batch_gens / c.batch_s),
        "report_s": median(lambda c: c.report_s),
        "oracle_subsets_per_s": median(lambda c: c.oracle_subsets / c.oracle_s),
        "dejong_gens_per_s": median(lambda c: c.dejong_gens / c.dejong_s),
        "equilibrium_steps_per_s": median(lambda c: c.eq_steps / c.eq_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(w, setup, cycles, tracer, overhead_ratio: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced cycles, plus the sample counts behind the tails.

    Counts are per cycle, report layers per report, GA phase times per generation.
    """
    from evosel.ga import ALL_STRATEGY_PAIRS

    spans, counters = tracer.spans, tracer.counters
    n = len(cycles)
    reports = spans["stage.report"].count

    def total(name):
        return spans[name].total if name in spans else 0.0

    def calls(name):
        return spans[name].count if name in spans else 0

    def per_call(name, scale):
        return total(name) / calls(name) * scale if calls(name) else 0.0

    gens = sum(c.batch_gens for c in cycles)
    runs = sum(c.batch_runs for c in cycles)
    dejong_gens = sum(c.dejong_gens for c in cycles)
    lookups = (gens + runs) * w.population  # the initial population plus P offspring a generation
    misses = calls("ga.evaluate")
    fits = spans["regress.fit"].samples
    run_times = spans["ga.run"].samples
    fit_pct, fit_tail = tail(fits)
    run_pct, run_tail = tail(run_times)
    m = {
        "cli.import_s": statistics.median(setup.import_seconds),
        "dataset.load_ms": per_call("dataset.load", 1e3),
        "dataset.digest_ms": per_call("dataset.digest", 1e3),
        "dataset.csv_bytes": float(setup.csv_bytes),
        "regress.fit_calls": len(fits) / n,
        "regress.fit_us_p50": statistics.median(fits) * 1e6,
        "regress.fit_us_tail": fit_tail * 1e6,
        "regress.rank_deficient": counters.get("regress.rank_deficient", 0) / n,
    }
    codes = [pair.code for pair in ALL_STRATEGY_PAIRS]
    m.update({f"ga.select_us.{code}": per_call(f"ga.select.{code}", 1e6) for code in codes})
    m.update({f"ga.survive_us.{code}": per_call(f"ga.survive.{code}", 1e6) for code in codes})
    m.update({
        "ga.bookkeeping_us": spans["ga.run"].self_time / gens * 1e6,
        "ga.vary_us": total("ga.vary") / gens * 1e6,
        "ga.evaluate_us": total("ga.evaluate") / gens * 1e6,
        "ga.lookups": lookups / n,
        "ga.memo_misses": misses / n,
        "ga.memo_hit_ratio": 1.0 - misses / lookups,
        "batch.run_s_p50": statistics.median(run_times),
        "batch.run_s_tail": run_tail,
        "batch.run_samples": float(runs),
        "batch.write_ms_per_run": total("batch.write") / runs * 1e3,
        "batch.bytes_written": statistics.fmean(c.bytes_per_run for c in cycles),
        "batch.task_pickle_bytes": statistics.fmean(c.task_pickle_bytes for c in cycles),
        "batch.oracle_subsets": counters.get("oracle.report.subsets", 0) / reports,
        "batch.oracle_share": total("oracle.report") / total("stage.report"),
        "batch.read_evo_ms": total("batch.read_evo") / reports * 1e3,
        "evstats.gev_calls": calls("evstats.gev") / reports,
        "evstats.gev_ms": total("evstats.gev") / reports * 1e3,
        "evstats.lp3_calls": calls("evstats.lp3") / reports,
        "evstats.lp3_ms": total("evstats.lp3") / reports * 1e3,
        "evstats.degenerate_ratio": counters.get("evstats.gev_degenerate", 0) / calls("evstats.gev"),
        "equilibrium.step_us.mutation": per_call("equilibrium.step.mutation", 1e6),
        "equilibrium.step_us.recombination": per_call("equilibrium.step.recombination", 1e6),
        "equilibrium.step_us.both": per_call("equilibrium.step.both", 1e6),
        "equilibrium.tabulate_us": per_call("equilibrium.tabulate", 1e6),
        "dejong.run_s_p50": statistics.median(spans["dejong.run_real"].samples),
        "dejong.select_us": total("dejong.select") / dejong_gens * 1e6,
        "dejong.survive_us": total("dejong.survive") / dejong_gens * 1e6,
        "dejong.self_us": spans["dejong.run_real"].self_time / dejong_gens * 1e6,
        "trace.overhead_ratio": overhead_ratio,
    })
    tails = {"regress.fit_us_tail": {"percentile": fit_pct, "samples": len(fits)},
             "batch.run_s_tail": {"percentile": run_pct, "samples": len(run_times)}}
    return m, tails


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> None:
    import tracing
    import workflow
    from workloads import WORKLOADS, smoke as smoke_sizes

    w = smoke_sizes(WORKLOADS[name]) if smoke else WORKLOADS[name]
    # Traced batches run at jobs 1, so the wrappers see the work inside each run.
    jobs = 1 if traced else min(w.jobs, os.cpu_count() or 1)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    reference = None
    cycles = []
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    try:
        setup = workflow.set_up(w, seed, str(work), str(SRC))

        def cycle(index: int, label: str, tracer_) -> "workflow.Cycle":
            # Outputs are deleted only after the last cycle: on a file system
            # that discards freed blocks, deleting them would slow the writes
            # of the next cycle.
            gc.collect()
            return workflow.run_cycle(w, setup, seed, index, str(work / label), jobs, tracer_)

        if traced:
            # The same cycle untraced, for the tracing overhead and a determinism check.
            reference = cycle(0, "reference", tracing.NullTracer())
        start = perf_counter()
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            while not cycles or perf_counter() - start < seconds:
                cycles.append(cycle(len(cycles), f"cycle{len(cycles)}", tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when no trace file is kept there

    checks = workflow.Checks()
    for c in cycles + ([reference] if reference else []):
        checks.merge(c.checks)
    env = environment(seed)
    env.update(workload=name, smoke=smoke, jobs=jobs, cycles=len(cycles),
               outputs_sha256=cycles[0].digest)
    if traced:
        checks.check(reference.digest == cycles[0].digest,
                     "traced and untraced runs of one cycle wrote different outputs")
        metrics, env["tails"] = per_layer(w, setup, cycles, tracer,
                                          cycles[0].wall_s / reference.wall_s)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"env": env, "metrics": metrics, **tracer.summary()},
                                         indent=1) + "\n", encoding="utf-8")
        defs = SPEC["per_layer"]
    else:
        metrics = end_to_end(setup, cycles)
        defs = SPEC["end_to_end"]

    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    for d in defs:
        print(f"{name:8s} {d['name']:36s} {metrics[d['name']]:>14.6g} {d['unit']}")
    print(f"{name:8s} {'failed_share':36s} {checks.failed / checks.attempted:>14.6g} ratio")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in defs},
    }))


def run_all(args) -> int:
    """Run every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("paper", "wide", "certify"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "wide", "certify", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one cycle at tiny sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_program()
    if args.workload == "all":
        return run_all(args)
    run_workload(args.workload, args.seed, 0.0 if args.smoke else args.seconds,
                 bool(args.trace), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
