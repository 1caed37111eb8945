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

from hqopt.experiment import ExperimentConfig, run_experiment, write_csv
from hqopt.instances import CASE_A, CASE_B, CASE_C
from hqopt.rounding import GAUSSIAN_MAX, GAUSSIAN_MIN, SIGN_MAX
from hqopt.sdp import COMPLEX, REAL

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
    config = ExperimentConfig(
        cases=cases, m_list=(5, 10), instances_per_m=5, root_seed=0, scheme=scheme, field=field
    )
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


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for sweep in SWEEPS:
        path = FIXTURES / f"{sweep}.csv"
        old = path.read_text().splitlines() if path.exists() else []
        new = sweep_csv(sweep).splitlines()
        lines = [o if _same_row(n, o) else n for n, o in zip(new, old)] + new[len(old):]
        path.write_text("".join(line + "\n" for line in lines))
        print(f"wrote {path}")
