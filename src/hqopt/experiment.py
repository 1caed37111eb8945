"""Sweep runner: generate, solve, reduce, round, and tabulate ratio records.

One root seed drives the whole sweep.  For sweep position (case index c,
constraint count m, instance index i) the derivation is

    instance_seed, rounding_seed = SeedSequence((root_seed, c, m, i)).generate_state(2)

so any single record can be reproduced in isolation from the numbers in its
row.  Every case of a config shares n, field and m, so the relaxations of
one m have one shape, and its tasks are taken in batches of
sdp.batch_size: a batch's instances are generated, their relaxations
solved in one batched call (a solve's outcome does not depend on its
batch), and its records rounded in task order.  A batch's records do not
depend on which other batches run, or where.

A sweep of several batches runs them in W = min(CPUs the process may run
on (os.sched_getaffinity), batches) processes: the calling process forks
W - 1 children and then works beside them.  Every process takes the next
batch index from one shared counter, largest m first, so that no long
batch starts last and each batch runs once.  Children inherit the
imported modules, so a worker costs a fork and no import; nothing starts
a thread.  A child sends its records, or its exception, back through its
own pipe and exits.  run_experiment raises a child's exception; an
exception in the caller's own share, Ctrl-C included, kills every child,
and every child is reaped before the call returns.  With one worker (one
batch, one CPU, or a platform without fork) the caller forks nothing and
claims every batch itself, through the same counter; to run serially, pin
the process to one CPU (taskset -c 0).  The records are returned in task
order, so the CSV has the same bytes for any worker count.

A record whose instance could not be generated (the feasibility retries
ran out) gets status GenerationFailed; one whose relaxation is not solved
keeps the solver status; one whose rounding found no point (including a
max instance without a positive definite constraint aggregate) gets status
RoundingFailed.
"""

import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, fields

import numpy as np

from .instances import CASES, GeneratorSpec, OBJECTIVE_IDENTITY, OBJECTIVE_INDEFINITE, generate
from .rounding import GAUSSIAN_MIN, SCHEMES, RoundingParams, round_solution
from .sdp import COMPLEX, MAXIMIZE, MINIMIZE, OPTIMAL, REAL, batch_size, solve_instances

CSV_HEADER = "case,m,instance_seed,status,v_sdp,v_hat_qp,ratio,bound"
ROUNDING_FAILED = "RoundingFailed"
GENERATION_FAILED = "GenerationFailed"

_SUMMARY_STATUSES = ("SummaryMin", "SummaryMean", "SummaryMax")


@dataclass(frozen=True)
class ExperimentRecord:
    """One generated instance's outcome; v_hat_qp is the best rounded value.

    The fields are declared in the order of the CSV columns, which csv_row
    writes them in.
    """

    case: str
    m: int
    instance_seed: int
    solve_status: str
    v_sdp: float
    v_hat_qp: float
    empirical_ratio: float
    theoretical_bound: float

    def csv_row(self) -> str:
        values = (getattr(self, f.name) for f in fields(self))
        return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values)


@dataclass(frozen=True)
class SummaryRecord:
    """Aggregate over one (case, m) cell; count is the number of finite ratios."""

    case: str
    m: int
    count: int
    ratio_min: float
    ratio_mean: float
    ratio_max: float

    def csv_rows(self) -> list:
        stats = (self.ratio_min, self.ratio_mean, self.ratio_max)
        return [
            f"{self.case},{self.m},{self.count},{status},,,{_fmt(value)},"
            for status, value in zip(_SUMMARY_STATUSES, stats)
        ]


@dataclass(frozen=True)
class ExperimentConfig:
    cases: tuple = ("A_OneIndef_RestPD",)
    m_list: tuple = (5, 10, 15, 20, 25, 30)
    instances_per_m: int = 100
    samples: int = 100
    root_seed: int = 0
    n: int = 10
    scheme: str = GAUSSIAN_MIN
    field: str = REAL

    def __post_init__(self) -> None:
        if not self.cases or any(c not in CASES for c in self.cases):
            raise ValueError(f"cases must be drawn from {CASES}")
        if not self.m_list or any(
                not isinstance(m, int) or isinstance(m, bool) or m < 1 for m in self.m_list):
            raise ValueError("m_list must hold positive integers")
        # a repeated entry would solve its cells again and write their rows twice
        for name, values in (("cases", self.cases), ("m_list", self.m_list)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicate entries: {tuple(values)}")
        if not isinstance(self.root_seed, int) or isinstance(self.root_seed, bool) or self.root_seed < 0:
            # it seeds every np.random.SeedSequence of the sweep
            raise ValueError(f"root_seed must be a non-negative integer, got {self.root_seed!r}")
        for name, low in (("instances_per_m", 0), ("samples", 1), ("n", 2)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.field == COMPLEX and self.scheme != GAUSSIAN_MIN:
            raise ValueError("complex sweeps support the GaussianMin scheme only")

    @property
    def sense(self) -> str:
        return MINIMIZE if self.scheme == GAUSSIAN_MIN else MAXIMIZE

    @property
    def objective_kind(self) -> str:
        return OBJECTIVE_IDENTITY if self.sense == MINIMIZE else OBJECTIVE_INDEFINITE


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple
    summaries: tuple


def _fmt(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return repr(float(v))


def derive_seeds(root_seed: int, case_index: int, m: int, index: int) -> tuple[int, int]:
    state = np.random.SeedSequence((root_seed, case_index, m, index)).generate_state(2)
    return int(state[0]), int(state[1])


def _draw(config: ExperimentConfig, case: str, case_index: int, m: int, index: int):
    """One task's seeds and its instance; None when generation ran out of retries."""
    instance_seed, rounding_seed = derive_seeds(config.root_seed, case_index, m, index)
    spec = GeneratorSpec(
        n=config.n,
        m=m,
        case=case,
        sense=config.sense,
        objective_kind=config.objective_kind,
        seed=instance_seed,
        field=config.field,
    )
    try:
        inst = generate(spec)
    except RuntimeError:  # no feasible draw within the retry budget
        inst = None
    return case, m, instance_seed, rounding_seed, inst


def _record(config: ExperimentConfig, case, m, instance_seed, rounding_seed, inst, sol) -> ExperimentRecord:
    """Round one solved task; failures stay in-row."""
    if inst is None:
        v_sdp, status = math.nan, GENERATION_FAILED
    else:
        v_sdp, status = sol.objective_value, sol.status
    if status != OPTIMAL:
        return ExperimentRecord(
            case=case,
            m=m,
            instance_seed=instance_seed,
            v_sdp=v_sdp,
            v_hat_qp=math.nan,
            empirical_ratio=math.nan,
            theoretical_bound=math.nan,
            solve_status=status,
        )

    params = RoundingParams(config.scheme, config.samples, rounding_seed)
    report = round_solution(inst, sol, params, exact_first=True)
    return ExperimentRecord(
        case=case,
        m=m,
        instance_seed=instance_seed,
        v_sdp=report.v_sdp,
        v_hat_qp=report.best_objective,
        empirical_ratio=report.empirical_ratio,
        theoretical_bound=report.theoretical_bound,
        solve_status=ROUNDING_FAILED if report.failed else sol.status,
    )


def _run_tasks(config: ExperimentConfig, tasks) -> list:
    """Generate every task's instance, solve them in one batched call, round in task order."""
    drawn = [_draw(config, *t) for t in tasks]
    sols = iter(solve_instances([d[-1] for d in drawn if d[-1] is not None]))
    return [_record(config, *d, None if d[-1] is None else next(sols)) for d in drawn]


def summarize(records) -> tuple:
    cells = {}
    for rec in records:
        cells.setdefault((rec.case, rec.m), []).append(rec.empirical_ratio)
    out = []
    for (case, m), ratios in cells.items():
        finite = [r for r in ratios if math.isfinite(r)]
        if finite:
            out.append(
                SummaryRecord(
                    case=case,
                    m=m,
                    count=len(finite),
                    ratio_min=min(finite),
                    ratio_mean=sum(finite) / len(finite),
                    ratio_max=max(finite),
                )
            )
        else:
            out.append(
                SummaryRecord(
                    case=case, m=m, count=0, ratio_min=math.nan, ratio_mean=math.nan, ratio_max=math.nan
                )
            )
    return tuple(out)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    tasks = [
        (case, ci, m, i)
        for ci, case in enumerate(config.cases)
        for m in config.m_list
        for i in range(config.instances_per_m)
    ]
    # the relaxations of one m share a shape, so its tasks batch together
    batches = []
    for m in config.m_list:
        cell = [t for t in tasks if t[2] == m]
        size = batch_size(config.n, m, config.field)
        batches += [cell[lo : lo + size] for lo in range(0, len(cell), size)]
    # largest relaxations first: no worker then starts a long batch last
    batches.sort(key=lambda batch: -batch[0][2])
    done = {}
    for batch, records in zip(batches, _run_batches(config, batches)):
        done.update(zip(batch, records))
    records = [done[t] for t in tasks]
    return ExperimentResult(config=config, records=tuple(records), summaries=summarize(records))


def _workers(batches: int) -> int:
    """Worker processes for a sweep of this many batches: at most one per usable CPU."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, batches)


def _run_batches(config: ExperimentConfig, batches: list) -> list:
    """Each batch's records, in batch order; the caller and its children claim the batches in that order."""
    workers = _workers(len(batches))
    counter = os.pipe()
    os.write(counter[1], _index(0))
    done, children = {}, []
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(config, batches, counter, write)
            os.close(write)
            children.append((pid, read))
        done.update((i, _run_tasks(config, batches[i])) for i in _claims(counter, len(batches)))
        for pid, read in children:
            with open(read, "rb", closefd=False) as pipe:
                sent = pipe.read()
            if not sent:
                raise RuntimeError(f"sweep worker {pid} exited without sending its records")
            payload = pickle.loads(sent)  # written by this function's own child
            if isinstance(payload, tuple):
                exc, text = payload
                raise exc from RuntimeError(f"in sweep worker {pid}:\n{text}")
            done.update(payload)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
        for fd in counter:
            os.close(fd)
    return [done[i] for i in range(len(batches))]


def _index(i: int) -> bytes:
    return i.to_bytes(8, "little")


def _claim(counter: tuple, count: int, stop: bool = False) -> int:
    """Take the next batch index; count once every batch is taken.

    The pipe holds the next index as its only 8 bytes, so reading them takes
    the counter and no other worker can read it until it is written back;
    a write of 8 bytes is atomic.  stop writes back count: no worker then
    takes another batch.
    """
    index = int.from_bytes(os.read(counter[0], 8), "little")
    os.write(counter[1], _index(count if stop else min(index + 1, count)))
    return index


def _claims(counter: tuple, count: int):
    while (index := _claim(counter, count)) < count:
        yield index


def _child(config: ExperimentConfig, batches: list, counter: tuple, write: int) -> None:
    """A forked worker: run claimed batches, pickle (index, records) pairs or the exception, exit."""
    status = 1
    try:
        # Ctrl-C reaches the whole process group; the parent handles it and kills its children
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            payload = [(i, _run_tasks(config, batches[i])) for i in _claims(counter, len(batches))]
        except Exception as exc:
            _claim(counter, len(batches), stop=True)
            payload = (exc, traceback.format_exc())
        sent = pickle.dumps(payload)  # before writing: a payload that does not pickle sends nothing
        with open(write, "wb") as pipe:
            pipe.write(sent)
        status = 0
    finally:
        # never return into the caller's code; os._exit also skips the parent's atexit and buffers
        os._exit(status)


def write_csv(result: ExperimentResult, stream) -> None:
    """Emit the record table: root-seed comment, header, rows, summary rows.

    Summary rows reuse the fixed column layout with status SummaryMin /
    SummaryMean / SummaryMax, the finite-ratio count in the instance_seed
    column, and the statistic in the ratio column.
    """
    stream.write(f"# root_seed={result.config.root_seed}\n")
    stream.write(CSV_HEADER + "\n")
    for rec in result.records:
        stream.write(rec.csv_row() + "\n")
    for summary in result.summaries:
        for row in summary.csv_rows():
            stream.write(row + "\n")
