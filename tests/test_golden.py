"""Golden sweep fixtures: small committed sweeps that every refactor must reproduce.

Each fixture is the CSV that ``write_csv`` produced for one sweep (m in
{5, 10}, 5 instances per m, root seed 0).  The test reruns the sweep and
compares it row by row: case, m, status and instance_seed exactly; v_sdp,
v_hat_qp, ratio and bound to 1e-9 relative (NaN matches NaN).

Regenerate the fixtures only when a change moves a value on purpose:

    PYTHONPATH=src python tests/test_golden.py

A committed line that the rerun still matches keeps its text: BLAS round-off
moves last digits between machines, and the diff should show only rows that
moved beyond REL_TOL.
"""

import io
import math
from pathlib import Path

import pytest

from hqopt import _ipm
from hqopt.experiment import ExperimentConfig, run_experiment, write_csv
from hqopt.instances import CASE_A, CASE_B, CASE_C
from hqopt.rounding import GAUSSIAN_MAX, GAUSSIAN_MIN, SIGN_MAX
from hqopt.sdp import COMPLEX, REAL, batch_size

FIXTURES = Path(__file__).parent / "golden"
REL_TOL = 1e-9

SWEEPS = {
    "gaussian_min_real": (GAUSSIAN_MIN, REAL, (CASE_A, CASE_B)),
    "gaussian_min_complex": (GAUSSIAN_MIN, COMPLEX, (CASE_A, CASE_C)),
    "gaussian_max_real": (GAUSSIAN_MAX, REAL, (CASE_A, CASE_B)),
    "sign_max_real": (SIGN_MAX, REAL, (CASE_A, CASE_B)),
}


def sweep_csv(name: str) -> str:
    scheme, field, cases = SWEEPS[name]
    return _csv(ExperimentConfig(
        cases=cases, m_list=(5, 10), instances_per_m=5, root_seed=0, scheme=scheme, field=field
    ))


def _csv(config: ExperimentConfig) -> str:
    stream = io.StringIO()
    write_csv(run_experiment(config), stream)
    return stream.getvalue()


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    if not a or not b:
        return False
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _same_row(got: str, expected: str) -> bool:
    """case, m, instance_seed and status equal; v_sdp, v_hat_qp, ratio and bound within REL_TOL."""
    gc, ec = got.split(","), expected.split(",")
    return len(gc) == len(ec) and gc[:4] == ec[:4] and all(map(_close, gc[4:8], ec[4:8]))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden_fixture(name):
    expected = (FIXTURES / f"{name}.csv").read_text().splitlines()
    got = sweep_csv(name).splitlines()
    assert got[:2] == expected[:2]
    assert len(got) == len(expected)
    for row, (g, e) in enumerate(zip(got[2:], expected[2:]), start=3):
        assert _same_row(g, e), f"{name} line {row}: {g!r} != {e!r}"


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_one_instance_batches_write_the_same_csv(name, monkeypatch):
    # a solve's outcome does not depend on its batch: capping every batch at
    # one instance changes no byte of the sweep
    default = sweep_csv(name)
    monkeypatch.setattr(_ipm, "_BATCH_ELEMENTS", 1)
    assert _ipm.batch_size(11, 20) == 1
    assert sweep_csv(name) == default


def test_large_m_batches_write_the_same_csv(monkeypatch):
    # the fixtures' m <= 10 cells fit one batch at any cap; complex m = 30 and
    # m = 100 relaxations are split into several batches of several instances
    config = ExperimentConfig(
        cases=(CASE_A, CASE_C), m_list=(30, 100), instances_per_m=3, root_seed=0,
        scheme=GAUSSIAN_MIN, field=COMPLEX,
    )
    assert 2 <= batch_size(10, 100, COMPLEX) < 6
    default = _csv(config)
    monkeypatch.setattr(_ipm, "_BATCH_ELEMENTS", 1)
    assert batch_size(10, 30, COMPLEX) == 1
    assert _csv(config) == default


VALUE_COLUMNS = ("v_sdp", "v_hat_qp", "ratio", "bound")
V_SDP_REGEN_TOL = 1e-6


def _rel_move(a: str, b: str) -> float:
    if a == b:
        return 0.0
    x, y = float(a or "nan"), float(b or "nan")
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def regeneration_problems(new: list, old: list) -> list:
    """Why a rerun may not replace a committed fixture, as messages; empty when it may.

    Every row must keep case, m, instance_seed and status, v_sdp must stay
    within V_SDP_REGEN_TOL * max(1, |v_sdp|), and a finite ratio must stay at
    or below its bound.
    """
    if new[:2] != old[:2] or len(new) != len(old):
        return ["header or row count changed"]
    problems = []
    for row, (n, o) in enumerate(zip(new[2:], old[2:]), start=3):
        nc, oc = n.split(","), o.split(",")
        if nc[:4] != oc[:4]:
            problems.append(f"line {row}: key or status changed: {o!r} -> {n!r}")
            continue
        v_new, v_old = (float(c[4] or "nan") for c in (nc, oc))
        if not (
            math.isnan(v_new) and math.isnan(v_old)
            or abs(v_new - v_old) <= V_SDP_REGEN_TOL * max(1.0, abs(v_old))
        ):
            problems.append(f"line {row}: v_sdp moved {v_old!r} -> {v_new!r}")
        ratio, bound = float(nc[6] or "nan"), float(nc[7] or "nan")
        if math.isfinite(ratio) and not math.isnan(bound) and not ratio <= bound:
            problems.append(f"line {row}: ratio {ratio!r} above bound {bound!r}")
    return problems


if __name__ == "__main__":
    # print every rewritten row and the largest move per column; write
    # nothing if any fixture fails regeneration_problems
    FIXTURES.mkdir(exist_ok=True)
    planned, failures = {}, []
    for sweep in SWEEPS:
        path = FIXTURES / f"{sweep}.csv"
        old = path.read_text().splitlines() if path.exists() else []
        new = sweep_csv(sweep).splitlines()
        lines = [o if _same_row(n, o) else n for n, o in zip(new, old)] + new[len(old):]
        moved = [(o, n) for o, n in zip(old[2:], lines[2:]) if o != n]
        print(f"{sweep}: {len(moved)} of {len(lines) - 2} rows rewritten")
        for o, n in moved:
            print(f"  - {o}\n  + {n}")
        if moved:
            largest = {
                col: max(_rel_move(n.split(",")[4 + i], o.split(",")[4 + i]) for o, n in moved)
                for i, col in enumerate(VALUE_COLUMNS)
            }
            print("  largest relative move: " + ", ".join(f"{c} {v:.2e}" for c, v in largest.items()))
        if old:
            failures += [f"{sweep} {msg}" for msg in regeneration_problems(new, old)]
        planned[path] = lines
    if failures:
        print("not regenerated:", *failures, sep="\n  ")
        raise SystemExit(1)
    for path, lines in planned.items():
        path.write_text("".join(line + "\n" for line in lines))
        print(f"wrote {path}")
