"""Workload definitions: the dataset each workload synthesizes and the size of
every stage of its workflow cycle.

Every workload runs every stage, because every metric is reported on every
workload. The stages a workload is not about run at a small fixed size, so
they stay a small share of its wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    # synthetic dataset
    n: int
    m: int
    k_true: int
    noise_sd: float
    # standalone exhaustive oracle: ``oracle_repeats`` calls at subset size ``oracle_k``
    oracle_k: int
    oracle_repeats: int
    # batch: nine strategy pairs x ``runs`` runs; GA subset size is ``k_true``
    runs: int
    generations: int
    population: int
    jobs: int
    # the report is generated once, then regenerated from the same manifest
    # ``report_repeats - 1`` times; report_s is the median
    report_repeats: int
    # True: the report certifies the optimum through the oracle; False: it is
    # given the true subset's r2, which is exactly 1.0 on noise-free data
    report_oracle: bool
    # De Jong F1-F5 x nine strategy pairs
    dejong_generations: int
    dejong_population: int
    # equilibrium trajectories in all three modes (C=2, L=3)
    eq_population: int
    eq_steps: int
    setup_repeats: int = 5


WORKLOADS: dict[str, Workload] = {
    # The paper experiment: 45 subsets, so the fitness memo answers nearly
    # every lookup and the time goes to GA bookkeeping on the serial path.
    "paper": Workload(
        "paper", n=50, m=10, k_true=2, noise_sd=0.0,
        oracle_k=2, oracle_repeats=250,
        runs=1, generations=1000, population=50, jobs=1,
        report_repeats=5, report_oracle=True,
        dejong_generations=40, dejong_population=50,
        eq_population=10000, eq_steps=500),
    # 500 descriptors: many memo misses, so fit_mlr and the M-sized rebuilds
    # in mutate/_repair dominate; the batch takes the parallel path.
    "wide": Workload(
        "wide", n=200, m=500, k_true=5, noise_sd=0.0,
        oracle_k=1, oracle_repeats=30,
        runs=4, generations=200, population=50, jobs=2,
        report_repeats=5, report_oracle=False,
        dejong_generations=20, dejong_population=50,
        eq_population=10000, eq_steps=100),
    # Noisy data, so the oracle must enumerate all C(40,4) subsets, both
    # standalone and inside the report.
    "certify": Workload(
        "certify", n=100, m=40, k_true=4, noise_sd=0.5,
        oracle_k=4, oracle_repeats=1,
        runs=2, generations=200, population=50, jobs=1,
        report_repeats=1, report_oracle=True,
        dejong_generations=20, dejong_population=50,
        eq_population=10000, eq_steps=100),
}


def smoke(w: Workload) -> Workload:
    """The same workflow at tiny sizes, for the smoke test."""
    return replace(
        w, n=min(w.n, 40), m=min(w.m, 30 if w.name == "wide" else 12),
        oracle_repeats=1, runs=1, generations=10, population=8,
        report_repeats=min(w.report_repeats, 2),
        dejong_generations=3, dejong_population=4,
        eq_population=200, eq_steps=5, setup_repeats=1)
