"""Span tracing around the calls that cross hqopt's layer boundaries.

The tracer patches the public functions listed in ``TARGETS`` in every
loaded ``hqopt`` module that holds them, so calls made through
``from .x import f`` bindings are traced as well.  Each call records a span
(layer, function, start, end, parent span) plus a few counts read from its
arguments and result.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
The benchmark runs sweeps with one worker (it unsets HQOPT_THREADS), so
calls are sequential on one thread and children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("instances", "sdp", "lowrank", "rounding", "probability", "experiment")

# (layer, defining module, function name)
TARGETS = (
    ("instances", "hqopt.instances", "generate"),
    ("sdp", "hqopt.sdp", "solve_instance"),
    ("sdp", "hqopt.sdp", "slater_check"),
    ("lowrank", "hqopt.lowrank", "reduce_rank"),
    ("rounding", "hqopt.rounding", "gaussian_round_min"),
    ("rounding", "hqopt.rounding", "sign_round_max"),
    ("rounding", "hqopt.rounding", "gaussian_round_max"),
    ("rounding", "hqopt.rounding", "complex_exact_extraction"),
    ("probability", "hqopt.probability", "run_lemma_check"),
    ("experiment", "hqopt.experiment", "run_experiment"),
    ("experiment", "hqopt.experiment", "write_csv"),
)

# the benchmark's own span around one timed round
ROOT_LAYER = "bench"


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``install`` patches the targets, ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, layer: str, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, layer, name, 0.0)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            _record_counts(span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in list(sys.modules.items()) if key == "hqopt" or key.startswith("hqopt.")]
        for layer, module_name, name in TARGETS:
            original = getattr(importlib.import_module(module_name), name)
            wrapper = self._wrap(layer, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _record_counts(span: Span, args: tuple, kwargs: dict, result) -> None:
    """Counts read at the boundary; heavy derived values are deferred to the report."""
    a = span.attrs
    if span.name == "solve_instance":
        a["field"] = args[0].field
        a["iterations"] = int(result.iterations)
    elif span.name == "reduce_rank":
        a["X"] = args[0].X.a  # rank_in is computed after the run, off the clock
        a["field"] = args[1].field
        a["rank_out"] = int(result.r)
        a["steps"] = int(result.steps)
    elif span.layer == "rounding":
        a["samples"] = int(result.num_samples)
        a["feasible"] = int(result.samples_feasible)
        a["discarded"] = int(result.samples_discarded)
    elif span.name == "run_lemma_check":
        a["samples"] = int(sum(r.samples for r in result.results))
    elif span.name == "write_csv":
        stream = args[1] if len(args) > 1 else kwargs["stream"]
        a["bytes"] = len(stream.getvalue().encode("utf-8"))


def numerical_rank(X: np.ndarray, field: str, tol: float = 1e-9) -> int:
    """Rank of a relaxation optimum in the problem's own field.

    Complex optima are stored through the real 2n embedding, whose spectrum
    repeats every eigenvalue twice.  The threshold matches the relative rule
    the rank reduction starts from.
    """
    if field == "Complex":
        n = X.shape[0] // 2
        re = 0.5 * (X[:n, :n] + X[n:, n:])
        im = 0.5 * (X[n:, :n] - X[:n, n:])
        X = re + 1j * im
        X = 0.5 * (X + np.conj(X.T))
    vals = np.linalg.eigvalsh(X)
    top = max(float(vals[-1]), 0.0)
    return int(np.count_nonzero(vals > tol * top)) if top > 0 else 0


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _p50_ms(durations: list[float]) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans: list[Span], rounds: int, traced_wall_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics over ``rounds`` traced rounds; counts and times are per round."""
    selfs = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s.layer == layer]
        out[f"{layer}.calls"] = (len(mine) / rounds, "count")
        out[f"{layer}.self_s"] = (sum(selfs[i] for i in mine) / rounds, "s")
        out[f"{layer}.call_ms_p50"] = (_p50_ms([spans[i].duration for i in mine]), "ms")

    solves = [s for s in spans if s.name == "solve_instance"]
    iterations = sum(s.attrs["iterations"] for s in solves)
    out["sdp.ipm_iterations"] = (iterations / rounds, "count")
    out["sdp.ms_per_iteration"] = (
        1e3 * sum(s.duration for s in solves) / iterations if iterations else 0.0,
        "ms",
    )
    for fld in ("Real", "Complex"):
        out[f"sdp.solve_ms_p50_{fld.lower()}"] = (
            _p50_ms([s.duration for s in solves if s.attrs["field"] == fld]),
            "ms",
        )
    slater = [s for s in spans if s.name == "slater_check"]
    out["sdp.slater_calls"] = (len(slater) / rounds, "count")
    out["sdp.slater_ms_p50"] = (_p50_ms([s.duration for s in slater]), "ms")

    rounding = [i for i, s in enumerate(spans) if s.layer == "rounding"]
    samples = sum(spans[i].attrs["samples"] for i in rounding)
    out["rounding.samples"] = (samples / rounds, "count")
    out["rounding.us_per_sample"] = (
        1e6 * sum(selfs[i] for i in rounding) / samples if samples else 0.0,
        "us",
    )
    out["rounding.feasible_frac"] = (
        sum(spans[i].attrs["feasible"] for i in rounding) / samples if samples else 0.0,
        "ratio",
    )
    out["rounding.discarded"] = (sum(spans[i].attrs["discarded"] for i in rounding) / rounds, "count")

    reductions = [s for s in spans if s.name == "reduce_rank"]
    out["lowrank.steps"] = (sum(s.attrs["steps"] for s in reductions) / rounds, "count")
    out["lowrank.rank_in"] = (
        statistics.fmean(numerical_rank(s.attrs["X"], s.attrs["field"]) for s in reductions)
        if reductions
        else 0.0,
        "count",
    )
    out["lowrank.rank_out"] = (
        statistics.fmean(s.attrs["rank_out"] for s in reductions) if reductions else 0.0,
        "count",
    )

    checks = [s for s in spans if s.name == "run_lemma_check"]
    out["probability.samples"] = (sum(s.attrs["samples"] for s in checks) / rounds, "count")

    csv = [s for s in spans if s.name == "write_csv"]
    out["experiment.csv_bytes"] = (sum(s.attrs["bytes"] for s in csv) / rounds, "B")
    out["experiment.csv_write_ms"] = (_p50_ms([s.duration for s in csv]), "ms")

    layer_self = sum(t for s, t in zip(spans, selfs) if s.layer != ROOT_LAYER)
    out["trace.wall_s"] = (traced_wall_s / rounds, "s")
    out["trace.cover_frac"] = (layer_self / traced_wall_s if traced_wall_s > 0 else 0.0, "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def span_records(spans: list[Span]) -> list[dict]:
    """JSON-ready spans (array attributes dropped) with their self times."""
    return [
        {
            "id": s.id,
            "parent": s.parent,
            "layer": s.layer,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "self": t,
            **{k: v for k, v in s.attrs.items() if not isinstance(v, np.ndarray)},
        }
        for s, t in zip(spans, self_times(spans))
    ]
