"""The four fixed-work workloads.

A workload's ``prepare`` makes its inputs from the seed and warms up; it can
run any number of times.  ``run_round`` is the timed part: the same list of
operations every time, whose outputs must not change from round to round.
``check`` judges one round's outputs with the independent checks of
``checks.py`` and returns, per operation, an empty string or the reason it
failed.

All calls into hqopt go through module attributes (``experiment.run_experiment``
rather than a name imported from it), so the tracer's patches reach them.
"""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np

from hqopt import experiment, instances, lowrank, probability, rounding, sdp

import checks

N = 10
CASE_A, CASE_B, CASE_C = instances.CASE_A, instances.CASE_B, instances.CASE_C
M_LIST = (5, 30, 100)


class SweepWorkload:
    """Ratio sweeps timed around ``run_experiment`` + ``write_csv``; one op is one record."""

    def __init__(self, plans: tuple, per_m: int, seed: int, smoke: bool) -> None:
        per_m = 1 if smoke else per_m
        m_list = (5,) if smoke else M_LIST
        self.configs = [
            experiment.ExperimentConfig(
                cases=cases, m_list=m_list, instances_per_m=per_m, samples=100,
                root_seed=seed, n=N, scheme=scheme, field=field,
            )
            for scheme, field, cases in plans
        ]
        self.ops_per_round = sum(len(c.cases) * len(c.m_list) * c.instances_per_m for c in self.configs)

    def prepare(self) -> None:
        # the sweep generates its own instances; warm up every code path once
        for cfg in self.configs:
            small = experiment.ExperimentConfig(
                cases=cfg.cases, m_list=(5,), instances_per_m=1, samples=cfg.samples,
                root_seed=cfg.root_seed + 1, n=cfg.n, scheme=cfg.scheme, field=cfg.field,
            )
            experiment.write_csv(experiment.run_experiment(small), io.StringIO())

    def run_round(self) -> list:
        out = []
        for cfg in self.configs:
            try:
                result = experiment.run_experiment(cfg)
                buf = io.StringIO()
                experiment.write_csv(result, buf)
                out.append((cfg, result, buf.getvalue()))
            except Exception as exc:  # a sweep that aborts loses all its records
                out.append((cfg, None, f"aborted: {exc!r}"))
        return out

    @staticmethod
    def fingerprint(outputs: list) -> str:
        return "".join(csv for _, _, csv in outputs)

    def check(self, outputs: list) -> list[str]:
        reasons = []
        for cfg, result, csv in outputs:
            expected = len(cfg.cases) * len(cfg.m_list) * cfg.instances_per_m
            if result is None or len(result.records) != expected:
                reasons += [csv or "wrong record count"] * expected
                continue
            for rec in result.records:
                reasons.append(_check_record(cfg, rec))
        return reasons

    def paper_scale_hours(self, records_per_s: float) -> float | None:
        """Projected time of 4 cases x 20 m values x 1000 instances at this rate."""
        return 80_000 / records_per_s / 3600.0 if records_per_s > 0 else None


def _check_record(cfg, rec) -> str:
    if rec.solve_status != sdp.OPTIMAL:
        return f"{rec.case} m={rec.m} seed={rec.instance_seed}: status {rec.solve_status}"
    spec = instances.GeneratorSpec(
        n=cfg.n, m=rec.m, case=rec.case, sense=cfg.sense,
        objective_kind=cfg.objective_kind, seed=rec.instance_seed, field=cfg.field,
    )
    inst = instances.generate(spec)
    sol = sdp.solve_instance(inst)
    why = checks.dual_certificate(inst, sol.dual_multipliers, rec.v_sdp) or checks.ratio_in_range(
        cfg.sense, rec.v_sdp, rec.v_hat_qp, rec.empirical_ratio, rec.theoretical_bound
    )
    return f"{cfg.scheme} {cfg.field} {rec.case} m={rec.m} seed={rec.instance_seed}: {why}" if why else ""


# (scheme, field, case) of each rounding call, min and max, real and complex
ROUND_PLANS = (
    ("GaussianMin", "Real", CASE_A),
    ("GaussianMin", "Complex", CASE_A),
    ("SignMax", "Real", CASE_A),
    ("GaussianMax", "Real", CASE_B),
)
ROUND_M = 10


class RoundWorkload:
    """The ``hqopt round`` sequence, many samples per call; one op is one report.

    Each op is solve -> reduce -> round, the calls ``cli.cmd_round`` makes,
    made through the library because the command's JSON output step fails
    for GaussianMax reports.
    """

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.samples = 500 if smoke else 10_000
        self.per_plan = 1 if smoke else 2
        self.calls = []
        self.ops_per_round = len(ROUND_PLANS) * self.per_plan

    def prepare(self) -> None:
        self.calls = []
        for p, (scheme, field, case) in enumerate(ROUND_PLANS):
            for j in range(self.per_plan):
                inst_seed, round_seed = (
                    int(v) for v in np.random.SeedSequence((self.seed, p, j)).generate_state(2)
                )
                sense = sdp.MINIMIZE if scheme == rounding.GAUSSIAN_MIN else sdp.MAXIMIZE
                kind = instances.OBJECTIVE_IDENTITY if sense == sdp.MINIMIZE else instances.OBJECTIVE_INDEFINITE
                inst = instances.generate(
                    instances.GeneratorSpec(n=N, m=ROUND_M, case=case, sense=sense,
                                            objective_kind=kind, seed=inst_seed, field=field)
                )
                self.calls.append((inst, rounding.RoundingParams(scheme, self.samples, round_seed)))
        # warm-up: one short call per scheme
        for inst, params in self.calls[:: self.per_plan]:
            _round(inst, rounding.RoundingParams(params.scheme, 50, params.seed))

    def run_round(self) -> list:
        return [_round(inst, params) for inst, params in self.calls]

    @staticmethod
    def fingerprint(outputs: list) -> str:
        return "\n".join(repr(dataclasses.astuple(r)) if r is not None else "not optimal" for r in outputs)

    def check(self, outputs: list) -> list[str]:
        reasons = []
        for (inst, params), report in zip(self.calls, outputs):
            why = "relaxation not solved to optimality" if report is None else _check_report(inst, report)
            reasons.append(f"{params.scheme} {inst.field} seed={params.seed}: {why}" if why else "")
        return reasons


def _round(inst, params):
    sol = sdp.solve_instance(inst)
    if sol.status != sdp.OPTIMAL:
        return None
    if params.scheme == rounding.GAUSSIAN_MAX:
        return rounding.gaussian_round_max(inst, sol, params)
    low = lowrank.reduce_rank(sol, inst)
    if params.scheme == rounding.SIGN_MAX:
        return rounding.sign_round_max(inst, low, params)
    return rounding.gaussian_round_min(inst, low, params)


def _check_report(inst, report) -> str:
    if report.failed or report.best_x is None:
        return f"rounding failed: {report.message}"
    sol = sdp.solve_instance(inst)
    v_sdp = report.v_sdp
    return (
        checks.point_feasible(inst, report.best_x, report.best_objective)
        or checks.ratio_in_range(inst.sense, v_sdp, report.best_objective,
                                 report.empirical_ratio, report.theoretical_bound)
        or checks.dual_certificate(inst, sol.dual_multipliers, sol.objective_value)
        or (
            ""
            if abs(sol.objective_value - v_sdp) <= checks.VALUE_TOL * max(1.0, abs(v_sdp))
            else f"report v_sdp {v_sdp!r} differs from the relaxation value {sol.objective_value!r}"
        )
    )


class VerifyWorkload:
    """Every registered lemma check at a fixed sample count; one op is one outcome."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.samples = 2_000 if smoke else 100_000
        self.ops_per_round = len(probability.CHECK_IDS)

    def prepare(self) -> None:
        for check_id in probability.CHECK_IDS:
            probability.run_lemma_check(check_id, samples=1_000, cases=3, seed=self.seed)

    def run_round(self) -> list:
        return [
            probability.run_lemma_check(check_id, samples=self.samples, seed=self.seed)
            for check_id in probability.CHECK_IDS
        ]

    @staticmethod
    def fingerprint(outputs: list) -> str:
        return json.dumps([o.to_dict() for o in outputs], sort_keys=True)

    @staticmethod
    def check(outputs: list) -> list[str]:
        return ["" if o.passed else f"{o.check_id}: {'; '.join(o.notes)}" for o in outputs]


# instances per (case, m) cell
SWEEP_PER_M = {"sweep_min": 4, "sweep_max": 3}
SWEEP_PLANS = {
    # real case C is left out: it fails on some seeds (see CHANGES.md)
    "sweep_min": (
        ("GaussianMin", "Real", (CASE_A,)),
        ("GaussianMin", "Complex", (CASE_A, CASE_C)),
    ),
    "sweep_max": (
        ("GaussianMax", "Real", (CASE_A, CASE_B)),
        ("SignMax", "Real", (CASE_A, CASE_B)),
    ),
}
NAMES = ("sweep_min", "sweep_max", "round_heavy", "verify")


def make(name: str, seed: int, smoke: bool):
    if name in SWEEP_PLANS:
        return SweepWorkload(SWEEP_PLANS[name], SWEEP_PER_M[name], seed, smoke)
    if name == "round_heavy":
        return RoundWorkload(seed, smoke)
    if name == "verify":
        return VerifyWorkload(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
