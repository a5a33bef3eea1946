import json
import math
import os
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import evosel.batch as batchmod
from evosel.batch import (
    BatchError,
    BatchSpec,
    EnumerationTooLarge,
    collect_observables,
    exhaustive_search,
    generate_report,
    read_evo_file,
    run_batch,
    write_evo_file,
)
from evosel.dataset import Dataset, dataset_digest, load_dataset, synth_dataset, write_dataset
from evosel.ga import ALL_STRATEGY_PAIRS, GaConfig, StrategyPair, run
from evosel.regress import RankDeficient


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    write_dataset(synth_dataset(50, 10, 2, 0.0, seed=1).dataset, path)
    return str(path)


@pytest.fixture(scope="module")
def noisy_dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "noisy.csv"
    write_dataset(synth_dataset(60, 80, 3, 1.0, seed=3).dataset, path)
    return str(path)


# --- exhaustive oracle --------------------------------------------------------

def test_exhaustive_finds_true_pair(noiseless_synth):
    result = exhaustive_search(noiseless_synth.dataset, 2)
    assert result.best_r2 == pytest.approx(1.0, abs=1e-12)
    assert result.best_indices == noiseless_synth.true_indices
    assert result.n_evaluated == 45


def test_exhaustive_single_subset_when_k_equals_m():
    data = synth_dataset(12, 3, 2, 0.0, seed=4).dataset
    result = exhaustive_search(data, 3)
    assert result.n_evaluated == 1
    assert result.best_indices == (0, 1, 2)


def _fitness(data, idx):
    try:
        return batchmod.fit_mlr(data, idx).r2
    except RankDeficient:
        return 0.0


def _reference_exhaustive(data, k):
    """One QR fit per subset in enumeration order: the oracle's definition."""
    best_r2, best_idx = -1.0, ()
    for idx in combinations(range(data.n_descriptors), k):
        r2 = _fitness(data, idx)
        if r2 > best_r2:
            best_r2, best_idx = r2, idx
    return best_r2, best_idx


def _dataset(x, y):
    n, m = x.shape
    return Dataset(tuple(f"c{i}" for i in range(n)), tuple(f"d{j}" for j in range(m)), x, y)


def _assert_matches_reference(data, k):
    result = exhaustive_search(data, k)
    assert (result.best_r2, result.best_indices) == _reference_exhaustive(data, k)
    assert result.best_r2 == _fitness(data, result.best_indices)
    assert result.n_evaluated == math.comb(data.n_descriptors, k)


@st.composite
def small_problems(draw):
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, m))
    n = draw(st.integers(k + 1, 12))
    # Small integers give ties, duplicate and constant columns; floats do not.
    cells = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
    x = draw(arrays(np.float64, (n, m), elements=cells))
    y = draw(arrays(np.float64, (n,), elements=cells).filter(lambda v: np.ptp(v) > 0.0))
    return _dataset(x, y), k


@settings(max_examples=300, deadline=None)
@given(small_problems())
def test_exhaustive_equals_reference_on_small_datasets(problem):
    _assert_matches_reference(*problem)


def _collinear_problem(seed=0, n=40, m=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    x[:, 3] = x[:, 1]                                        # exact duplicate
    x[:, 5] = x[:, 2] + 1e-9 * rng.standard_normal(n)        # near-copy
    x[:, 6] = 2.5                                            # constant column
    y = x[:, 1] - 0.7 * x[:, 2] + 0.3 * rng.standard_normal(n)
    return _dataset(x, y)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exhaustive_equals_reference_with_collinear_columns(k):
    _assert_matches_reference(_collinear_problem(), k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exhaustive_equals_reference_with_large_offset_column(k):
    # Column 0 is 1000 plus a trace of z, and y tracks z: by correlation it
    # is a strong predictor, but QR calls it rank deficient against the
    # intercept, so every subset holding it scores 0.
    rng = np.random.default_rng(4)
    n, m = 30, 7
    z = rng.standard_normal(n)
    x = rng.standard_normal((n, m))
    x[:, 0] = 1000.0 + 1e-13 * z
    y = z + 0.05 * rng.standard_normal(n)
    data = _dataset(x, y)
    _assert_matches_reference(data, k)
    assert 0 not in exhaustive_search(data, k).best_indices


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exhaustive_equals_reference_noise_free_and_unrelated(k):
    _assert_matches_reference(synth_dataset(25, 9, 2, 0.0, seed=2).dataset, k)
    rng = np.random.default_rng(5)
    _assert_matches_reference(_dataset(rng.standard_normal((25, 9)), rng.standard_normal(25)), k)


def test_exhaustive_second_pass_when_qr_rejects_the_top_subset(monkeypatch):
    # QR may score a subset far below its screen; here it rejects the true
    # subset outright. The search must go back for every subset that screened
    # below the keep floor, and still agree with the reference.
    data = synth_dataset(40, 9, 2, 0.1, seed=6)
    fit = batchmod.fit_mlr

    def rejecting_fit(d, idx):
        if tuple(idx) == data.true_indices:
            raise RankDeficient("rejected")
        return fit(d, idx)

    passes = []
    contenders = batchmod._Screen.contenders

    def counting_contenders(self, *args):
        passes.append(args)
        return contenders(self, *args)

    monkeypatch.setattr(batchmod, "fit_mlr", rejecting_fit)
    monkeypatch.setattr(batchmod._Screen, "contenders", counting_contenders)
    _assert_matches_reference(data.dataset, 2)
    assert len(passes) == 2
    assert exhaustive_search(data.dataset, 2).best_indices != data.true_indices


def test_exhaustive_enumeration_guard(noiseless_synth):
    with pytest.raises(EnumerationTooLarge):
        exhaustive_search(noiseless_synth.dataset, 2, limit=10)


def test_exhaustive_rejects_bad_k(noiseless_synth):
    with pytest.raises(BatchError):
        exhaustive_search(noiseless_synth.dataset, 0)
    with pytest.raises(BatchError):
        exhaustive_search(noiseless_synth.dataset, 11)


# --- evo file round trip --------------------------------------------------------

def test_evo_file_round_trip(tmp_path, noiseless_synth):
    config = GaConfig(strategy=StrategyPair.from_code("DT"), seed=7, generations=25,
                      population_size=10)
    record = run(noiseless_synth.dataset, config)
    path = tmp_path / "run_evo.txt"
    write_evo_file(path, record)
    trace = read_evo_file(path)
    assert trace.best_trace == record.best_trace
    assert trace.improvement_events == record.improvement_events
    assert trace.distinct_genotypes == record.distinct_genotypes
    assert trace.n_evolutions == len(record.improvement_events)
    assert trace.generations == 25


def test_read_evo_rejects_other_files(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("not,an,evolution,log\n")
    with pytest.raises(BatchError):
        read_evo_file(path)


# --- batch runner --------------------------------------------------------------

def small_spec(dataset_file, out_dir, **overrides) -> BatchSpec:
    defaults = dict(dataset_path=dataset_file, out_dir=str(out_dir), tag="t",
                    runs_per_strategy=2, strategies=(StrategyPair.from_code("DT"),),
                    base_seed=0, population_size=10, generations=15)
    defaults.update(overrides)
    return BatchSpec(**defaults)


def test_single_run_batch_manifest_counts(tmp_path, dataset_file):
    spec = small_spec(dataset_file, tmp_path / "b1", runs_per_strategy=1)
    manifest = run_batch(spec)
    assert len(manifest["files"]) == 1
    entry = manifest["files"][0]
    out = tmp_path / "b1"
    assert (out / entry["cfg"]).exists()
    assert (out / entry["evo"]).exists()
    assert (out / "manifest.json").exists()
    written = {p.name for p in out.iterdir()}
    assert written == {entry["cfg"], entry["evo"], "manifest.json"}


def test_batch_seeds_are_strategy_major(tmp_path, dataset_file):
    strategies = (StrategyPair.from_code("PP"), StrategyPair.from_code("DT"))
    spec = small_spec(dataset_file, tmp_path / "b2", strategies=strategies,
                      runs_per_strategy=3, base_seed=100)
    manifest = run_batch(spec)
    seeds = [(e["strategy"], e["run"], e["seed"]) for e in manifest["files"]]
    assert seeds == [("PP", 0, 100), ("PP", 1, 101), ("PP", 2, 102),
                     ("DT", 0, 103), ("DT", 1, 104), ("DT", 2, 105)]


def test_batch_rerun_is_byte_identical(tmp_path, dataset_file):
    a, b = tmp_path / "ba", tmp_path / "bb"
    run_batch(small_spec(dataset_file, a))
    run_batch(small_spec(dataset_file, b))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_batch_parallel_equals_serial(tmp_path, dataset_file):
    a, b = tmp_path / "serial", tmp_path / "parallel"
    run_batch(small_spec(dataset_file, a, runs_per_strategy=4))
    run_batch(small_spec(dataset_file, b, runs_per_strategy=4, jobs=2))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_batch_cfg_file_contents(tmp_path, dataset_file):
    spec = small_spec(dataset_file, tmp_path / "b3", runs_per_strategy=1)
    manifest = run_batch(spec)
    cfg_text = (tmp_path / "b3" / manifest["files"][0]["cfg"]).read_text()
    lines = dict(ln.split("=", 1) for ln in cfg_text.splitlines())
    assert lines["strategy"] == "DT"
    assert lines["population_size"] == "10"
    assert lines["seed"] == "0"
    assert lines["dataset_digest"] == manifest["dataset_digest"]


def test_batch_marks_failed_runs(tmp_path, dataset_file):
    # k larger than the descriptor count fails inside every run
    spec = small_spec(dataset_file, tmp_path / "b4", runs_per_strategy=2, k=11)
    manifest = run_batch(spec)
    assert manifest["failures"] == 2
    assert all(e["status"].startswith("failed") for e in manifest["files"])
    assert (tmp_path / "b4" / "manifest.json").exists()


def test_batch_traces_non_decreasing_and_listed(tmp_path, dataset_file):
    out = tmp_path / "b5"
    manifest = run_batch(small_spec(dataset_file, out, runs_per_strategy=2,
                                    strategies=ALL_STRATEGY_PAIRS,
                                    validate_populations=True))
    assert len(manifest["files"]) == 18
    listed = {e["cfg"] for e in manifest["files"]} | {e["evo"] for e in manifest["files"]}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    for entry in manifest["files"]:
        trace = read_evo_file(out / entry["evo"])
        assert all(a <= b for a, b in zip(trace.best_trace, trace.best_trace[1:]))


# --- report ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def reported_batch(tmp_path_factory, noisy_dataset_file):
    out = tmp_path_factory.mktemp("report_batch")
    spec = BatchSpec(dataset_path=noisy_dataset_file, out_dir=str(out), tag="r",
                     runs_per_strategy=24,
                     strategies=(StrategyPair.from_code("DT"), StrategyPair.from_code("TT")),
                     base_seed=0, population_size=10, generations=3, k=2)
    run_batch(spec)
    return out


def test_report_files_and_content(tmp_path, reported_batch):
    out = tmp_path / "rep"
    result = generate_report(str(reported_batch / "manifest.json"), out_dir=str(out))
    assert set(result["prob_reach"]) == {"DT", "TT"}
    reach_lines = (out / "report_prob_reach.csv").read_text().splitlines()
    assert reach_lines[0] == "strategy,runs,reached,probability"
    assert len(reach_lines) == 3
    probs = [float(ln.split(",")[3]) for ln in reach_lines[1:]]
    assert probs == sorted(probs)  # ascending, paper style

    gev_lines = (out / "report_final_r2_gev.csv").read_text().splitlines()
    assert len(gev_lines) == 3
    header_cols = gev_lines[0].split(",")
    for ln in gev_lines[1:]:
        assert len(ln.split(",")) == len(header_cols)

    split_lines = (out / "report_variance_split.csv").read_text().splitlines()
    assert split_lines[0] == "observable,between_sd,within_sd"
    assert split_lines[1].startswith("n_evolutions,")
    assert (out / "report_digest.txt").exists()
    assert (out / "report_runs.csv").exists()
    assert (out / "report_relative_moments_lp3.csv").exists()
    assert (out / "report_n_evolutions_gev.csv").exists()


def test_report_regeneration_is_byte_identical(tmp_path, reported_batch):
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    generate_report(str(reported_batch / "manifest.json"), out_dir=str(out_a))
    generate_report(str(reported_batch / "manifest.json"), out_dir=str(out_b))
    for name in sorted(os.listdir(out_a)):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_report_n_evolutions_matches_hand_count(tmp_path, dataset_file):
    out = tmp_path / "fixture_batch"
    run_batch(small_spec(dataset_file, out, runs_per_strategy=3, generations=20))
    manifest = json.loads((out / "manifest.json").read_text())
    generate_report(str(out / "manifest.json"), out_dir=str(out))
    # hand count: sum the improved column of each evolution log directly
    hand = {}
    for entry in manifest["files"]:
        flags = [ln.split(",")[2] for ln in
                 (out / entry["evo"]).read_text().splitlines()[1:]]
        hand[entry["run"]] = sum(f == "1" for f in flags)
    rows = (out / "report_runs.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for ln in rows:
        cells = ln.split(",")
        assert int(cells[4]) == hand[int(cells[1])]


def test_report_prob_reach_against_known_optimum(tmp_path, dataset_file):
    out = tmp_path / "opt_batch"
    run_batch(small_spec(dataset_file, out, runs_per_strategy=4, generations=40))
    result = generate_report(str(out / "manifest.json"), out_dir=str(out))
    assert result["optimum"] == pytest.approx(1.0, abs=1e-9)
    # noiseless problem with 1000x smaller budget still finds the pair often;
    # the probability must be a multiple of 1/4
    assert result["prob_reach"]["DT"] in {0.0, 0.25, 0.5, 0.75, 1.0}
    # single-strategy manifest: exactly one prob_reach data row
    rows = (out / "report_prob_reach.csv").read_text().splitlines()
    assert len(rows) == 2


def test_report_rejects_a_rewritten_dataset(tmp_path):
    data_path = tmp_path / "data.csv"
    write_dataset(synth_dataset(50, 10, 2, 0.0, seed=1).dataset, data_path)
    out = tmp_path / "batch"
    manifest = run_batch(small_spec(str(data_path), out, runs_per_strategy=1, generations=5))
    write_dataset(synth_dataset(50, 10, 2, 0.0, seed=2).dataset, data_path)
    with pytest.raises(BatchError) as err:
        generate_report(str(out / "manifest.json"), out_dir=str(out))
    assert manifest["dataset_digest"] in str(err.value)
    assert dataset_digest(load_dataset(str(data_path))) in str(err.value)


def test_collect_observables_requires_ok_runs(tmp_path, dataset_file):
    spec = small_spec(dataset_file, tmp_path / "fail_all", runs_per_strategy=1, k=11)
    manifest = run_batch(spec)
    with pytest.raises(BatchError):
        collect_observables(manifest, str(tmp_path / "fail_all"))
