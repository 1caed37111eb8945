"""Sweep runner: generate, solve, reduce, round, and tabulate ratio records.

One root seed drives the whole sweep.  For sweep position (case index c,
constraint count m, instance index i) the derivation is

    instance_seed, rounding_seed = SeedSequence((root_seed, c, m, i)).generate_state(2)

so any single record can be reproduced in isolation from the numbers in its
row.  Every case of a config shares n, field and m, so the relaxations of
one m have one shape, and its tasks are taken in groups of
sdp.batch_size: a group's instances are generated, their relaxations
solved in one batched call (a solve's outcome does not depend on its
batch), and its records rounded in task order.  The records are returned
in task order.  A record whose
instance could not be generated (the feasibility retries ran out) gets
status GenerationFailed; one whose relaxation is not solved keeps the solver
status; one whose rounding found no point (including a max instance without
a positive definite constraint aggregate) gets status RoundingFailed.
"""

import math
from dataclasses import dataclass

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
    """One generated instance's outcome; v_hat_qp is the best rounded value."""

    case: str
    m: int
    instance_seed: int
    v_sdp: float
    v_hat_qp: float
    empirical_ratio: float
    theoretical_bound: float
    solve_status: str

    def csv_row(self) -> str:
        return ",".join(
            (
                self.case,
                str(self.m),
                str(self.instance_seed),
                self.solve_status,
                _fmt(self.v_sdp),
                _fmt(self.v_hat_qp),
                _fmt(self.empirical_ratio),
                _fmt(self.theoretical_bound),
            )
        )


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
        if not self.m_list or any(not isinstance(m, int) or m < 1 for m in self.m_list):
            raise ValueError("m_list must hold positive integers")
        # a repeated entry would solve its cells again and write their rows twice
        for name, values in (("cases", self.cases), ("m_list", self.m_list)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicate entries: {tuple(values)}")
        if self.instances_per_m < 0 or self.samples < 1 or self.n < 2:
            raise ValueError("need instances_per_m >= 0, samples >= 1, n >= 2")
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
    if isinstance(v, str):
        return v
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


def run_single(config: ExperimentConfig, case: str, case_index: int, m: int, index: int) -> ExperimentRecord:
    """Generate, solve, and round one sweep instance; failures stay in-row."""
    return _run_tasks(config, [(case, case_index, m, index)])[0]


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
    # the relaxations of one m share a shape, so its tasks batch together;
    # one batch is generated, solved and rounded at a time
    done = {}
    for m in config.m_list:
        cell = [t for t in tasks if t[2] == m]
        size = batch_size(config.n, m, config.field)
        for lo in range(0, len(cell), size):
            done.update(zip(cell[lo : lo + size], _run_tasks(config, cell[lo : lo + size])))
    records = [done[t] for t in tasks]
    return ExperimentResult(config=config, records=tuple(records), summaries=summarize(records))


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
