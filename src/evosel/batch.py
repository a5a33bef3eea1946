"""Seeded batch experiments, the exhaustive subset oracle, and report generation.

A batch executes runs_per_strategy runs for each chosen strategy pair with
seeds base_seed + global run index (strategy-major order), writing one
config echo and one evolution log per run plus a JSON manifest naming every
run file. Reports are a pure function of the manifest's files: per-strategy
reach probabilities against a certified optimum, GEV fits of final fitness
and improvement counts, the log-Pearson III fit of relative improvement
moments, and the between/within-strategy variance split.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import NamedTuple, Sequence

import numpy as np

from . import evstats
from .dataset import Dataset, dataset_digest, load_dataset
from .evstats import DegenerateSample, LUCKY_LEVELS, UNLUCKY_LEVELS
from .ga import ALL_STRATEGY_PAIRS, GaConfig, RunRecord, StrategyPair, run
from .regress import RankDeficient, fit_mlr


class BatchError(ValueError):
    pass


class EnumerationTooLarge(BatchError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# exhaustive oracle

class ExhaustiveResult(NamedTuple):
    best_r2: float
    best_indices: tuple[int, ...]
    n_evaluated: int


# The screen reads r2 off the correlation matrix of [X, y], i.e. the normal
# equations of the centred, unit-scaled design, which square its condition
# number kappa. A subset is trusted only when every scaled pivot of its design
# (the squared QR diagonal R_jj^2 over the largest squared design column norm)
# is at least _PIVOT_MIN, so kappa^2 <~ 1/_PIVOT_MIN = 1e6 up to a factor that
# grows with k. Forming and factoring that matrix is off by about n * eps
# (n <= 1000 rows: 1e-13), so the screened r2 is within 1e-13 * 1e6 = 1e-7 of
# the exact value, and QR's own r2, off by about n * eps * kappa, is closer
# still. _MARGIN leaves a factor of ten over that; the certifier widens it by
# ||y|| / ||y - mean(y)||, the factor by which an offset in y inflates QR's
# residual error relative to the total sum of squares. Ill-conditioned subsets
# (this includes every one QR may call rank deficient, whose test fires at
# R_jj < RANK_TOL * max norm, far below the cutoff) screen as +inf, so the
# certifier always fits them. _CHUNK subsets are screened at a time, so the
# screen's working memory is O(_CHUNK * k^2) doubles whatever C(m, k) is.
_CHUNK = 8192
_MARGIN = 1e-6
_PIVOT_MIN = 1e-6


def exhaustive_search(data: Dataset, k: int, limit: int = 10 ** 7) -> ExhaustiveResult:
    """Evaluate every k-subset of descriptors; the maximal r-squared is the
    certified optimum fed to reach-probability reports.

    Ties go to the lexicographically first subset. Subsets whose design is
    rank deficient count as fitness 0. Refuses when C(M, k) exceeds ``limit``.

    A batched Cholesky (LDL^T) screen over the correlation matrix scores
    every subset; ``fit_mlr`` then fits, best screened first, every subset
    that could still match the best fitted r2 within the screen's error
    bound. So the result has the same bits and the same tie-break as fitting
    every subset with ``fit_mlr``, and memory holds one chunk of subsets plus
    the contenders kept so far.
    """
    m = data.n_descriptors
    if not 1 <= k <= m:
        raise BatchError(f"k must be in [1, {m}]")
    total = math.comb(m, k)
    if total > limit:
        raise EnumerationTooLarge(f"C({m},{k}) = {total} exceeds the {limit} enumeration guard")
    screen = _Screen(data, k)
    scores, subsets, floor = screen.contenders()
    best = _certify(data, scores, subsets, (-1.0, ()), screen.margin)
    if best[0] - screen.margin < floor:
        # The fit of a top contender fell below the keep floor, so a dropped
        # subset may beat it: fit every subset screened in [best - margin, floor).
        scores, subsets, _ = screen.contenders(best[0] - screen.margin, floor)
        best = _certify(data, scores, subsets, best, screen.margin)
    return ExhaustiveResult(*best, total)


class _Screen:
    """Screened r2 of every k-subset, streamed in chunks of _CHUNK subsets."""

    def __init__(self, data: Dataset, k: int):
        z = np.column_stack([data.descriptors, data.property_values])
        z -= z.mean(axis=0)
        z -= z.mean(axis=0)  # second pass: exact even for large offsets
        centred_sq = np.einsum("ij,ij->j", z, z)
        norms = np.sqrt(centred_sq)
        z /= np.where(norms > 0.0, norms, 1.0)
        self.corr = (z.T @ z).ravel()
        self.k = k
        self.m = data.n_descriptors
        self.n = data.n_compounds
        # R_jj^2 = pivot_j * centred_sq[j]; QR scales its rank test by the
        # largest column norm of the design, the intercept's sqrt(n) included.
        self.centred_sq = centred_sq[:-1]
        self.raw_sq = np.maximum(np.einsum("ij,ij->j", data.descriptors, data.descriptors), self.n)
        y = data.property_values
        self.margin = _MARGIN * math.sqrt(float(y @ y) / centred_sq[-1])

    def scores(self, subsets: np.ndarray) -> np.ndarray:
        """Screened r2 of each row of ``subsets``; +inf where ill-conditioned.

        An LDL^T factorization of each subset's (k+1)x(k+1) correlation
        matrix, y last, written as a loop over its lower triangle whose every
        step is vectorised across the rows. The last pivot is 1 - r2.
        """
        k, width = self.k, self.m + 1
        cols = [subsets[:, j] for j in range(k)] + [self.m]
        a = [[self.corr[cols[i] * width + cols[j]] for j in range(i + 1)] for i in range(k + 1)]
        design_sq = self.raw_sq[subsets].max(axis=1)
        trusted = self.n >= _PIVOT_MIN * design_sq  # the intercept's R_00^2 is n
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(k):
                pivot = a[j][j]
                # Written as >= so that a NaN pivot is not trusted.
                trusted &= pivot * self.centred_sq[cols[j]] >= _PIVOT_MIN * design_sq
                for i in range(j + 1, k + 1):
                    factor = a[i][j] / pivot
                    for p in range(j + 1, i + 1):
                        a[i][p] = a[i][p] - factor * a[p][j]
        return np.where(trusted, 1.0 - a[k][k], math.inf)

    def contenders(self, low: float | None = None, high: float = math.inf):
        """Subsets whose screened r2 lies in [low, high), in enumeration order.

        With ``low=None`` the floor follows the highest finite screened r2 seen
        so far, less twice the margin, and every ill-conditioned subset is kept.
        Returns the screened r2 and index rows of the kept subsets, and the
        final floor.
        """
        top = -math.inf
        kept: list[tuple[np.ndarray, np.ndarray]] = []
        n_kept, prune_at = 0, _CHUNK
        stream = combinations(range(self.m), self.k)
        while True:
            flat = np.fromiter(chain.from_iterable(islice(stream, _CHUNK)), dtype=np.intp)
            if not flat.size:
                break
            subsets = flat.reshape(-1, self.k)
            scores = self.scores(subsets)
            if low is None:
                finite = scores[np.isfinite(scores)]
                if finite.size:
                    top = max(top, float(finite.max()))
                floor = top - 2.0 * self.margin
                keep = scores >= floor
            else:
                floor = low
                keep = (scores >= low) & (scores < high)
            kept.append((scores[keep], subsets[keep]))
            n_kept += len(kept[-1][0])
            if n_kept > prune_at:
                merged = _concat(kept)
                keep = merged[0] >= floor
                kept = [tuple(column[keep] for column in merged)]
                n_kept = len(kept[0][0])
                prune_at = max(_CHUNK, 2 * n_kept)
        return (*_concat(kept), floor)


def _concat(parts):
    return tuple(np.concatenate(column) for column in zip(*parts))


def _certify(data: Dataset, scores, subsets, best, margin):
    """Fit the contenders best screened first, until none left can reach the
    best fit; ``best`` is (r2, subset), and the lexicographically first
    subset wins a tie, as in enumeration order."""
    for i in np.argsort(-scores, kind="stable"):
        if scores[i] < best[0] - margin:
            break
        idx = tuple(int(j) for j in subsets[i])
        try:
            r2 = fit_mlr(data, idx).r2
        except RankDeficient:
            r2 = 0.0
        if r2 > best[0] or (r2 == best[0] and idx < best[1]):
            best = (r2, idx)
    return best


# ---------------------------------------------------------------------------
# run file formats

EVO_HEADER = "generation,best_r2,improved,distinct_genotypes,distinct_fitnesses"


def write_evo_file(path, record: RunRecord) -> None:
    improved = set(record.improvement_events)
    lines = [EVO_HEADER]
    for gen, best in enumerate(record.best_trace):
        lines.append(",".join([
            str(gen),
            _fmt(best),
            "1" if gen in improved else "0",
            str(record.distinct_genotypes[gen]),
            str(record.distinct_fitnesses[gen]),
        ]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_cfg_file(path, config_dict: dict, digest: str) -> None:
    lines = [f"{key}={_fmt(v) if isinstance(v, float) else v}" for key, v in config_dict.items()]
    lines.append(f"dataset_digest={digest}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


class EvoTrace(NamedTuple):
    best_trace: list[float]
    improvement_events: list[int]
    distinct_genotypes: list[int]
    distinct_fitnesses: list[int]

    @property
    def generations(self) -> int:
        return len(self.best_trace) - 1

    @property
    def n_evolutions(self) -> int:
        return len(self.improvement_events)


def read_evo_file(path) -> EvoTrace:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != EVO_HEADER:
        raise BatchError(f"{path} is not an evolution log")
    trace: list[float] = []
    events: list[int] = []
    genos: list[int] = []
    fits: list[int] = []
    for ln in lines[1:]:
        gen_s, best_s, improved_s, g_s, f_s = ln.split(",")
        trace.append(float(best_s))
        if improved_s == "1":
            events.append(int(gen_s))
        genos.append(int(g_s))
        fits.append(int(f_s))
    return EvoTrace(trace, events, genos, fits)


# ---------------------------------------------------------------------------
# batch runner

@dataclass
class BatchSpec:
    dataset_path: str
    out_dir: str
    tag: str = "ga"
    runs_per_strategy: int = 46
    strategies: tuple[StrategyPair, ...] = ALL_STRATEGY_PAIRS
    base_seed: int = 0
    population_size: int = 50
    k: int = 2
    generations: int = 1000
    crossover_rate: float = 0.8
    mutation_rate: float = 0.05
    tournament_size: int = 2
    jobs: int = 1
    validate_populations: bool = False

    def __post_init__(self):
        if self.runs_per_strategy < 1:
            raise BatchError("runs_per_strategy must be >= 1")
        if not self.strategies:
            raise BatchError("need at least one strategy pair")
        if self.jobs < 1:
            raise BatchError("jobs must be >= 1")

    def config_for(self, strategy: StrategyPair, seed: int) -> GaConfig:
        return GaConfig(
            strategy=strategy,
            seed=seed,
            population_size=self.population_size,
            k=self.k,
            generations=self.generations,
            crossover_rate=self.crossover_rate,
            mutation_rate=self.mutation_rate,
            tournament_size=self.tournament_size,
        )


def _run_names(tag: str, strategy: StrategyPair, index: int) -> tuple[str, str]:
    stem = f"{tag}_{strategy.code}_{index:03d}"
    return f"{stem}_cfg.txt", f"{stem}_evo.txt"


def _execute_one(data: Dataset, config: GaConfig, digest: str, out_dir: str,
                 cfg_name: str, evo_name: str, validate: bool) -> dict:
    record = run(data, config, validate_populations=validate)
    write_cfg_file(os.path.join(out_dir, cfg_name), config.as_dict(), digest)
    write_evo_file(os.path.join(out_dir, evo_name), record)
    return {
        "final_r2": record.final_best.fitness,
        "final_genes": list(record.final_best.sort_key),
        "n_evolutions": len(record.improvement_events),
    }


def run_batch(spec: BatchSpec) -> dict:
    """Execute the batch and write its manifest; returns the manifest dict.

    Outputs are deterministic per seed regardless of the --jobs scheduling.
    A failing run is marked in the manifest instead of aborting the batch.
    """
    data = load_dataset(spec.dataset_path)
    digest = dataset_digest(data)
    os.makedirs(spec.out_dir, exist_ok=True)

    tasks = []
    for si, strategy in enumerate(spec.strategies):
        for r in range(spec.runs_per_strategy):
            seed = spec.base_seed + si * spec.runs_per_strategy + r
            cfg_name, evo_name = _run_names(spec.tag, strategy, r)
            tasks.append((strategy, r, seed, cfg_name, evo_name))

    entries = []
    failures = 0

    def entry_for(task, outcome, error=None):
        strategy, r, seed, cfg_name, evo_name = task
        row = {
            "strategy": strategy.code,
            "run": r,
            "seed": seed,
            "cfg": cfg_name,
            "evo": evo_name,
            "status": "ok" if error is None else f"failed: {error}",
        }
        if outcome:
            row.update(outcome)
        return row

    if spec.jobs == 1:
        for task in tasks:
            strategy, r, seed, cfg_name, evo_name = task
            try:
                outcome = _execute_one(data, spec.config_for(strategy, seed), digest,
                                       spec.out_dir, cfg_name, evo_name, spec.validate_populations)
                entries.append(entry_for(task, outcome))
            except Exception as exc:  # noqa: BLE001 - failed runs are recorded, not fatal
                failures += 1
                entries.append(entry_for(task, None, exc))
    else:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            futures = [
                pool.submit(_execute_one, data, spec.config_for(t[0], t[2]), digest,
                            spec.out_dir, t[3], t[4], spec.validate_populations)
                for t in tasks
            ]
            for task, fut in zip(tasks, futures):
                try:
                    entries.append(entry_for(task, fut.result()))
                except Exception as exc:  # noqa: BLE001
                    failures += 1
                    entries.append(entry_for(task, None, exc))

    manifest = {
        "tag": spec.tag,
        "dataset_file": spec.dataset_path,
        "dataset_digest": digest,
        "base_seed": spec.base_seed,
        "runs_per_strategy": spec.runs_per_strategy,
        "strategies": [s.code for s in spec.strategies],
        "ga": {
            "population_size": spec.population_size,
            "k": spec.k,
            "generations": spec.generations,
            "crossover_rate": spec.crossover_rate,
            "mutation_rate": spec.mutation_rate,
            "tournament_size": spec.tournament_size,
        },
        "failures": failures,
        "files": entries,
    }
    with open(os.path.join(spec.out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# report

@dataclass
class StrategyObservables:
    final_r2: list[float] = field(default_factory=list)
    n_evolutions: list[int] = field(default_factory=list)
    relative_moments: list[float] = field(default_factory=list)
    traces: list[list[float]] = field(default_factory=list)
    runs: list[dict] = field(default_factory=list)


def collect_observables(manifest: dict, manifest_dir: str) -> dict[str, StrategyObservables]:
    """Parse every ok run's evolution log into per-strategy observable vectors."""
    per_strategy: dict[str, StrategyObservables] = {}
    for entry in manifest["files"]:
        if entry["status"] != "ok":
            continue
        obs = per_strategy.setdefault(entry["strategy"], StrategyObservables())
        trace = read_evo_file(os.path.join(manifest_dir, entry["evo"]))
        obs.final_r2.append(trace.best_trace[-1])
        obs.n_evolutions.append(trace.n_evolutions)
        obs.relative_moments.extend(g / trace.generations for g in trace.improvement_events)
        obs.traces.append(trace.best_trace)
        obs.runs.append({
            "run": entry["run"],
            "seed": entry["seed"],
            "final_r2": trace.best_trace[-1],
            "n_evolutions": trace.n_evolutions,
            "final_distinct_genotypes": trace.distinct_genotypes[-1],
            "final_distinct_fitnesses": trace.distinct_fitnesses[-1],
            "mean_distinct_genotypes": sum(trace.distinct_genotypes) / len(trace.distinct_genotypes),
            "mean_distinct_fitnesses": sum(trace.distinct_fitnesses) / len(trace.distinct_fitnesses),
        })
    if not per_strategy:
        raise BatchError("manifest contains no successful runs")
    return per_strategy


def _gev_row(code: str, values: Sequence[float], orientation: str, lottery_levels: bool) -> list[str]:
    row = [code, str(len(values))]
    try:
        fit = evstats.fit_gev(values, orientation=orientation)
    except DegenerateSample:
        n_cols = 9 + (len(UNLUCKY_LEVELS) + len(LUCKY_LEVELS) if lottery_levels else 0)
        return row + ["degenerate"] + [""] * (n_cols - 3)
    row += ["ok", _fmt(fit.location), _fmt(fit.scale), _fmt(fit.shape),
            fit.tail, "1" if fit.uncertain else "0", _fmt(fit.ks)]
    if lottery_levels:
        row += [_fmt(fit.quantile(q)) for q in UNLUCKY_LEVELS]
        row += [_fmt(fit.quantile(q)) for q in LUCKY_LEVELS]
    return row


def generate_report(manifest_path: str, optimum: float | None = None, fraction: float = 0.99,
                    budget: int | None = None, out_dir: str | None = None) -> dict:
    """Write the per-observable summary tables and a text digest.

    With ``optimum=None`` the exhaustive oracle certifies it from the
    manifest's dataset at the batch's subset size. Regeneration from the
    same manifest is byte-identical.
    """
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest_dir = os.path.dirname(os.path.abspath(manifest_path))
    out_dir = out_dir or manifest_dir
    os.makedirs(out_dir, exist_ok=True)

    if optimum is None:
        dataset_file = manifest["dataset_file"]
        if not os.path.isabs(dataset_file):
            candidate = os.path.join(manifest_dir, dataset_file)
            dataset_file = candidate if os.path.exists(candidate) else dataset_file
        data = load_dataset(dataset_file)
        digest = dataset_digest(data)
        if digest != manifest["dataset_digest"]:
            raise BatchError(f"{dataset_file} has dataset digest {digest}, "
                             f"but the batch ran on {manifest['dataset_digest']}")
        optimum = exhaustive_search(data, manifest["ga"]["k"]).best_r2
    if budget is None:
        budget = manifest["ga"]["generations"]

    per_strategy = collect_observables(manifest, manifest_dir)
    codes = sorted(per_strategy)

    paths = {name: os.path.join(out_dir, f"report_{name}.csv")
             for name in ("prob_reach", "runs", "final_r2_gev", "n_evolutions_gev",
                          "relative_moments_lp3", "variance_split")}

    reach = {code: evstats.prob_reach(per_strategy[code].traces, optimum, fraction, budget)
             for code in codes}
    with open(paths["prob_reach"], "w", encoding="utf-8", newline="") as fh:
        fh.write("strategy,runs,reached,probability\n")
        for code in sorted(codes, key=lambda c: (reach[c], c)):
            n = len(per_strategy[code].traces)
            fh.write(f"{code},{n},{round(reach[code] * n)},{_fmt(reach[code])}\n")

    with open(paths["runs"], "w", encoding="utf-8", newline="") as fh:
        fh.write("strategy,run,seed,final_r2,n_evolutions,"
                 "final_distinct_genotypes,final_distinct_fitnesses,"
                 "mean_distinct_genotypes,mean_distinct_fitnesses\n")
        for code in codes:
            for row in per_strategy[code].runs:
                fh.write(f"{code},{row['run']},{row['seed']},{_fmt(row['final_r2'])},"
                         f"{row['n_evolutions']},{row['final_distinct_genotypes']},"
                         f"{row['final_distinct_fitnesses']},{_fmt(row['mean_distinct_genotypes'])},"
                         f"{_fmt(row['mean_distinct_fitnesses'])}\n")

    lottery_cols = [f"unlucky_q{int(q * 100):02d}" for q in UNLUCKY_LEVELS]
    lottery_cols += [f"lucky_q{int(q * 100):02d}" for q in LUCKY_LEVELS]
    with open(paths["final_r2_gev"], "w", encoding="utf-8", newline="") as fh:
        fh.write("strategy,n,status,location,scale,shape,tail,uncertain,ks," + ",".join(lottery_cols) + "\n")
        for code in codes:
            fh.write(",".join(_gev_row(code, per_strategy[code].final_r2, "maxima", True)) + "\n")

    with open(paths["n_evolutions_gev"], "w", encoding="utf-8", newline="") as fh:
        fh.write("strategy,n,status,location,scale,shape,tail,uncertain,ks\n")
        for code in codes:
            fh.write(",".join(_gev_row(code, [float(v) for v in per_strategy[code].n_evolutions],
                                       "maxima", False)) + "\n")

    with open(paths["relative_moments_lp3"], "w", encoding="utf-8", newline="") as fh:
        fh.write("strategy,n_events,status,alpha,log_scale,ks\n")
        for code in codes:
            moments = per_strategy[code].relative_moments
            row = [code, str(len(moments))]
            try:
                fit = evstats.fit_lp3(moments)
                row += ["ok", _fmt(fit.alpha), _fmt(fit.log_scale), _fmt(fit.ks)]
            except (DegenerateSample, evstats.NonPositiveValue, evstats.EvstatsError) as exc:
                row += [f"degenerate ({type(exc).__name__})", "", "", ""]
            fh.write(",".join(row) + "\n")

    split = evstats.variance_split({c: [float(v) for v in per_strategy[c].n_evolutions]
                                    for c in codes})
    with open(paths["variance_split"], "w", encoding="utf-8", newline="") as fh:
        fh.write("observable,between_sd,within_sd\n")
        fh.write(f"n_evolutions,{_fmt(split.between_sd)},{_fmt(split.within_sd)}\n")

    digest_path = os.path.join(out_dir, "report_digest.txt")
    with open(digest_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"batch tag: {manifest['tag']}\n")
        fh.write(f"dataset digest: {manifest['dataset_digest']}\n")
        fh.write(f"certified optimum r2: {_fmt(optimum)}\n")
        fh.write(f"reach target: {fraction:g} of optimum within {budget} generations\n\n")
        fh.write("probability of reaching the target, ascending:\n")
        for code in sorted(codes, key=lambda c: (reach[c], c)):
            fh.write(f"  {code}: {100.0 * reach[code]:.1f}%\n")
        fh.write("\nbetween-strategy sd of n_evolutions: " + f"{split.between_sd:.6g}\n")
        fh.write("within-strategy sd of n_evolutions:  " + f"{split.within_sd:.6g}\n")

    return {"optimum": optimum, "fraction": fraction, "budget": budget,
            "prob_reach": reach, "paths": {**paths, "digest": digest_path}}
