"""Command-line surface: dataset synthesis, runs, batches, the exhaustive
oracle, equilibrium trajectories, distribution fitting, and reports.

All state flows through flags and files; exit status is nonzero whenever a
module error surfaces (a partial batch failure is marked in the manifest
and still exits nonzero).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import batch as batchmod
from . import dejong, equilibrium, evstats
from .batch import _fmt
from .dataset import DatasetError, dataset_digest, load_dataset, synth_dataset, write_dataset
from .ga import ALL_STRATEGY_PAIRS, GaConfig, GaError, StrategyPair, run
from .regress import RegressionError, loo_q2


def _add_ga_flags(p: argparse.ArgumentParser, single_strategy: bool = True) -> None:
    if single_strategy:
        p.add_argument("--strategy", default="DT", help="selection+survival pair, one of PP..TT")
    p.add_argument("--generations", type=int, default=1000)
    p.add_argument("--pop", type=int, default=50, help="population size (even, >= 4)")
    p.add_argument("--k", type=int, default=2, help="descriptors per genotype")
    p.add_argument("--mutation-rate", type=float, default=0.05)
    p.add_argument("--crossover-rate", type=float, default=0.8)
    p.add_argument("--tournament-size", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evosel",
                                     description="GA descriptor-subset selection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic descriptor dataset")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--k-true", type=int, default=2)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset file to write")

    p = sub.add_parser("run", help="one GA run (regression fitness or a De Jong function)")
    p.add_argument("--dataset", help="descriptor dataset file")
    p.add_argument("--fitness", help="dejong:F1..F5 instead of a dataset")
    p.add_argument("--mutation-sd", type=float, default=0.05,
                   help="Gaussian mutation sd as a fraction of the domain width (De Jong only)")
    p.add_argument("--out", help="directory for the cfg/evo file pair")
    p.add_argument("--tag", default="ga")
    _add_ga_flags(p)

    p = sub.add_parser("batch", help="seeded multi-run experiment over strategy pairs")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tag", default="ga")
    p.add_argument("--runs", type=int, default=46, help="runs per strategy")
    p.add_argument("--strategy", default="all", dest="strategies",
                   help="comma-separated pairs PP..TT (default: all nine)")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--debug", action="store_true",
                   help="re-check genotype distinctness every generation")
    _add_ga_flags(p, single_strategy=False)

    p = sub.add_parser("exhaustive", help="certify the optimum by full subset enumeration")
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", help="optional csv output file")

    p = sub.add_parser("equilibrium", help="no-selection equilibrium trajectory")
    p.add_argument("--mode", choices=["mutation", "recombination", "both"], required=True)
    p.add_argument("--cardinality", type=int, default=2)
    p.add_argument("--length", type=int, default=3)
    p.add_argument("--pop", type=int, default=10000)
    p.add_argument("--rate", type=float, default=0.1, help="per-locus mutation probability")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", choices=["uniform", "zeros"], default="zeros",
                   help="initial population: uniform random or all-zero strings")
    p.add_argument("--out", help="csv output file (default: stdout)")

    p = sub.add_parser("fit-dist", help="fit a distribution to a column of values")
    p.add_argument("--values", required=True, help="text file, one value per line")
    p.add_argument("--dist", choices=["gev", "lp3"], required=True)
    p.add_argument("--orientation", choices=["maxima", "minima"], default="maxima")
    p.add_argument("--refine", action="store_true", help="refine the GEV fit by likelihood")
    p.add_argument("--ecdf", help="also write the ECDF table to this file")
    p.add_argument("--out", help="csv output file (default: stdout)")

    p = sub.add_parser("report", help="summarize a batch manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--optimum", type=float,
                   help="certified optimum r2 (default: run the exhaustive oracle)")
    p.add_argument("--fraction", type=float, default=0.99)
    p.add_argument("--budget", type=int, help="generation budget (default: the batch's)")
    p.add_argument("--out", help="output directory (default: next to the manifest)")

    return parser


def _parse_strategies(text: str) -> tuple[StrategyPair, ...]:
    if text.strip().lower() == "all":
        return ALL_STRATEGY_PAIRS
    return tuple(StrategyPair.from_code(code) for code in text.split(","))


def _cmd_synth(args) -> int:
    result = synth_dataset(args.n, args.m, args.k_true, args.noise_sd, args.seed)
    write_dataset(result.dataset, args.out)
    print(f"wrote {args.out}: n={args.n} m={args.m}")
    print(f"true descriptor indices: {','.join(str(i) for i in result.true_indices)}")
    print(f"dataset digest: {dataset_digest(result.dataset)}")
    return 0


def _cmd_run(args) -> int:
    if bool(args.dataset) == bool(args.fitness):
        raise GaError("exactly one of --dataset or --fitness is required")
    strategy = StrategyPair.from_code(args.strategy)
    if args.fitness:
        kind, _, fname = args.fitness.partition(":")
        if kind != "dejong" or not fname:
            raise GaError("--fitness must look like dejong:F1")
        config = dejong.RealGaConfig(
            function=fname, strategy=strategy, seed=args.seed,
            population_size=args.pop, generations=args.generations,
            crossover_rate=args.crossover_rate, mutation_rate=args.mutation_rate,
            mutation_sd=args.mutation_sd, tournament_size=args.tournament_size)
        record = dejong.run_real(config)
        digest = f"dejong:{config.function}"
        print(f"{config.function} best value: {_fmt(-record.final_best.fitness)}")
        print(f"best point: {','.join(_fmt(v) for v in record.final_best.values)}")
    else:
        data = load_dataset(args.dataset)
        config = GaConfig(
            strategy=strategy, seed=args.seed, population_size=args.pop, k=args.k,
            generations=args.generations, crossover_rate=args.crossover_rate,
            mutation_rate=args.mutation_rate, tournament_size=args.tournament_size)
        record = run(data, config)
        digest = dataset_digest(data)
        genes = record.final_best.sort_key
        print(f"best r2: {_fmt(record.final_best.fitness)}")
        print(f"best descriptor indices: {','.join(str(g) for g in genes)}")
        print(f"loo q2 of best subset: {_fmt(loo_q2(data, genes))}")
    print(f"improvement events: {len(record.improvement_events)}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = f"{args.tag}_{strategy.code}_{args.seed}"
        batchmod.write_cfg_file(os.path.join(args.out, f"{stem}_cfg.txt"),
                                config.as_dict(), digest)
        batchmod.write_evo_file(os.path.join(args.out, f"{stem}_evo.txt"), record)
        print(f"wrote {stem}_cfg.txt and {stem}_evo.txt in {args.out}")
    return 0


def _cmd_batch(args) -> int:
    spec = batchmod.BatchSpec(
        dataset_path=args.dataset, out_dir=args.out, tag=args.tag,
        runs_per_strategy=args.runs, strategies=_parse_strategies(args.strategies),
        base_seed=args.base_seed, population_size=args.pop, k=args.k,
        generations=args.generations, crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate, tournament_size=args.tournament_size,
        jobs=args.jobs, validate_populations=args.debug)
    manifest = batchmod.run_batch(spec)
    total = len(manifest["files"])
    print(f"batch complete: {total - manifest['failures']}/{total} runs ok, "
          f"manifest in {args.out}/manifest.json")
    return 1 if manifest["failures"] else 0


def _cmd_exhaustive(args) -> int:
    data = load_dataset(args.dataset)
    result = batchmod.exhaustive_search(data, args.k)
    lines = ["best_r2,best_indices,n_evaluated",
             f"{_fmt(result.best_r2)},{' '.join(str(i) for i in result.best_indices)},{result.n_evaluated}"]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_equilibrium(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.start == "uniform":
        pop0 = equilibrium.uniform_population(args.cardinality, args.length, args.pop, rng)
    else:
        pop0 = equilibrium.constant_population(args.cardinality, args.length, args.pop)
    distances = equilibrium.trajectory(pop0, args.mode, args.rate, args.steps, rng)
    lines = ["step,distance"] + [f"{t},{_fmt(d)}" for t, d in enumerate(distances)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(distances)} steps to {args.out}")
    else:
        print(text, end="")
    return 0


def _read_values(path) -> list[float]:
    values = []
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            for cell in ln.replace(",", " ").split():
                values.append(float(cell))
    return values


def _cmd_fit_dist(args) -> int:
    values = _read_values(args.values)
    if args.dist == "gev":
        fit = evstats.fit_gev(values, orientation=args.orientation, refine=args.refine)
        lines = ["dist,n,location,scale,shape,tail,uncertain,ks",
                 f"gev,{len(values)},{_fmt(fit.location)},{_fmt(fit.scale)},{_fmt(fit.shape)},"
                 f"{fit.tail},{1 if fit.uncertain else 0},{_fmt(fit.ks)}"]
    else:
        fit = evstats.fit_lp3(values)
        lines = ["dist,n,alpha,log_scale,ks",
                 f"lp3,{len(values)},{_fmt(fit.alpha)},{_fmt(fit.log_scale)},{_fmt(fit.ks)}"]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(text, end="")
    if args.ecdf:
        table = evstats.Ecdf(values).table()
        with open(args.ecdf, "w", encoding="utf-8", newline="") as fh:
            fh.write("value,cdf\n")
            for x, p in table:
                fh.write(f"{_fmt(x)},{_fmt(p)}\n")
    return 0


def _cmd_report(args) -> int:
    result = batchmod.generate_report(args.manifest, optimum=args.optimum,
                                      fraction=args.fraction, budget=args.budget,
                                      out_dir=args.out)
    print(f"certified optimum r2: {_fmt(result['optimum'])}")
    for code in sorted(result["prob_reach"], key=lambda c: (result["prob_reach"][c], c)):
        print(f"  {code}: {100.0 * result['prob_reach'][code]:.1f}% reach "
              f"{result['fraction']:.2f} x optimum within {result['budget']} generations")
    print(f"report files in {os.path.dirname(result['paths']['digest'])}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "run": _cmd_run,
    "batch": _cmd_batch,
    "exhaustive": _cmd_exhaustive,
    "equilibrium": _cmd_equilibrium,
    "fit-dist": _cmd_fit_dist,
    "report": _cmd_report,
}

_KNOWN_ERRORS = (DatasetError, RegressionError, GaError, batchmod.BatchError,
                 equilibrium.EquilibriumError, evstats.EvstatsError, OSError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
