"""Span tracing around the public functions of evosel's modules.

The wrappers are installed on the module attributes the program looks up at
call time, so calls made inside the program are seen without changing it.
Spans are not kept one by one: ``mutate`` alone runs about 50k times per
1000-generation run. Each span name keeps a count, total time and self time
(total minus the time of the spans it encloses); names listed in
``SAMPLED`` also keep every duration, for percentiles.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

from evosel import batch, dejong, equilibrium, evstats, ga
from evosel.evstats import DegenerateSample
from evosel.regress import RankDeficient

SAMPLED = ("regress.fit", "ga.run", "dejong.run_real")


class Aggregate:
    __slots__ = ("count", "total", "self_time", "samples")

    def __init__(self, sampled: bool):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples = array("d") if sampled else None


class Tracer:
    """Aggregates spans by name; ``strategy`` is the code of the GA run in progress."""

    def __init__(self):
        self.spans: dict[str, Aggregate] = {}
        self.counters: dict[str, int] = {}
        self.strategy = "none"
        self._stack: list[list] = []  # [name, start, time covered by child spans]

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def top(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def leave(self) -> None:
        end = perf_counter()
        name, start, covered = self._stack.pop()
        duration = end - start
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = Aggregate(name in SAMPLED)
        agg.count += 1
        agg.total += duration
        agg.self_time += duration - covered
        if agg.samples is not None:
            agg.samples.append(duration)
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def summary(self) -> dict:
        return {
            "spans": {name: {"count": a.count, "total_s": a.total, "self_s": a.self_time}
                      for name, a in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
        }


class NullTracer:
    """Stand-in for untraced runs: stage spans cost nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield


def _strategy_scoped(base: str):
    def name(tracer: Tracer, args, kwargs) -> str:
        if tracer.inside("dejong.run_real"):
            return f"dejong.{base}"
        return f"ga.{base}.{tracer.strategy}"
    return name


def _oracle_name(tracer, args, kwargs):
    return "oracle.report" if tracer.inside("stage.report") else "oracle.standalone"


def _step_name(mode: str):
    def name(tracer, args, kwargs):
        parent = tracer.top()
        if parent == "equilibrium.step.both":
            return f"{parent}.{mode}"
        return f"equilibrium.step.{mode}"
    return name


def _on_run(tracer, args, kwargs):
    tracer.strategy = args[1].strategy.code


def _on_fit_error(tracer, name, exc):
    if isinstance(exc, RankDeficient):
        tracer.count("regress.rank_deficient")


def _on_gev_error(tracer, name, exc):
    if isinstance(exc, DegenerateSample):
        tracer.count("evstats.gev_degenerate")


def _on_oracle(tracer, name, result):
    tracer.count(f"{name}.subsets", result.n_evaluated)


# (module, attribute, span name or namer, before-call hook, result hook, error hook)
TARGETS = [
    (batch, "load_dataset", "dataset.load", None, None, None),
    (batch, "dataset_digest", "dataset.digest", None, None, None),
    (batch, "exhaustive_search", _oracle_name, None, _on_oracle, None),
    (batch, "fit_mlr", "regress.fit", None, None, _on_fit_error),
    (batch, "run", "ga.run", _on_run, None, None),
    (batch, "write_cfg_file", "batch.write", None, None, None),
    (batch, "write_evo_file", "batch.write", None, None, None),
    (batch, "read_evo_file", "batch.read_evo", None, None, None),
    (ga, "select_parents", _strategy_scoped("select"), None, None, None),
    (ga, "survive", _strategy_scoped("survive"), None, None, None),
    (ga, "crossover", "ga.vary", None, None, None),
    (ga, "mutate", "ga.vary", None, None, None),
    (ga, "evaluate", "ga.evaluate", None, None, None),
    (ga, "fit_mlr", "regress.fit", None, None, _on_fit_error),
    (evstats, "fit_gev", "evstats.gev", None, None, _on_gev_error),
    (evstats, "fit_lp3", "evstats.lp3", None, None, None),
    (equilibrium, "step_mutation", _step_name("mutation"), None, None, None),
    (equilibrium, "step_recombination", _step_name("recombination"), None, None, None),
    (equilibrium, "step_both", "equilibrium.step.both", None, None, None),
    (equilibrium, "string_counts", "equilibrium.tabulate", None, None, None),
    (dejong, "run_real", "dejong.run_real", None, None, None),
]


def _wrap(tracer: Tracer, func, name, before, on_result, on_error):
    def wrapper(*args, **kwargs):
        span = name(tracer, args, kwargs) if callable(name) else name
        if before is not None:
            before(tracer, args, kwargs)
        tracer.enter(span)
        try:
            result = func(*args, **kwargs)
        except Exception as exc:
            tracer.leave()
            if on_error is not None:
                on_error(tracer, span, exc)
            raise
        tracer.leave()
        if on_result is not None:
            on_result(tracer, span, result)
        return result
    wrapper.__wrapped__ = func
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, *_ in TARGETS]
    try:
        for (module, attr, name, before, on_result, on_error), (_, _, func) in zip(TARGETS, originals):
            setattr(module, attr, _wrap(tracer, func, name, before, on_result, on_error))
        yield tracer
    finally:
        for module, attr, func in originals:
            setattr(module, attr, func)
