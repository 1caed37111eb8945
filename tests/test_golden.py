"""Golden sweep fixtures: small committed sweeps that every refactor must reproduce.

Each fixture is the CSV that ``write_csv`` produced for one sweep (m in
{5, 10}, 5 instances per m, root seed 0).  The test reruns the sweep and
compares it row by row: case, m, status and instance_seed exactly; v_sdp,
v_hat_qp, ratio and bound to 1e-9 relative (NaN matches NaN).  The same
sweeps, run on one, two or three worker processes, must write the same bytes.

Regenerate the fixtures only when a change moves a value on purpose:

    PYTHONPATH=src python tests/test_golden.py

A committed line that the rerun still matches keeps its text: BLAS round-off
moves last digits between machines, and the diff should show only rows that
moved beyond REL_TOL.
"""

import io
import math
import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

from hqopt import _ipm, experiment
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


def sweep_config(name: str) -> ExperimentConfig:
    scheme, field, cases = SWEEPS[name]
    return ExperimentConfig(
        cases=cases, m_list=(5, 10), instances_per_m=5, root_seed=0, scheme=scheme, field=field
    )


def sweep_csv(name: str) -> str:
    return _csv(sweep_config(name))


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


# complex m = 30 and m = 100 relaxations, split into several batches of
# several instances; the fixtures' m <= 10 cells fit one batch at any cap
LARGE_M = ExperimentConfig(
    cases=(CASE_A, CASE_C), m_list=(30, 100), instances_per_m=3, root_seed=0,
    scheme=GAUSSIAN_MIN, field=COMPLEX,
)


def test_large_m_batches_write_the_same_csv(monkeypatch):
    assert 2 <= batch_size(10, 100, COMPLEX) < 6
    default = _csv(LARGE_M)
    monkeypatch.setattr(_ipm, "_BATCH_ELEMENTS", 1)
    assert batch_size(10, 30, COMPLEX) == 1
    assert _csv(LARGE_M) == default


POOLED = {**{name: sweep_config(name) for name in SWEEPS}, "complex_large_m": LARGE_M}


@pytest.fixture
def forks(monkeypatch):
    """The number of Python threads alive at each os.fork call the test makes."""
    seen, real_fork = [], os.fork

    def fork():
        seen.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return seen


def _at_most(workers, monkeypatch):
    monkeypatch.setattr(experiment, "_workers", lambda batches: min(workers, batches))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("name", sorted(POOLED))
def test_two_workers_write_the_same_csv(name, monkeypatch, forks):
    monkeypatch.setattr(experiment, "_workers", lambda batches: 1)
    serial = _csv(POOLED[name])
    assert forks == []
    threads = threading.active_count()
    _at_most(2, monkeypatch)
    assert _csv(POOLED[name]) == serial
    # the caller is one of the two workers: one fork, with no thread started, and no child outlives the sweep
    assert forks == [threads]
    assert multiprocessing.active_children() == []
    _no_child_left()


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("name, one_per_batch", [("complex_large_m", False), ("gaussian_max_real", True)])
def test_three_workers_write_the_same_csv(name, one_per_batch, monkeypatch, forks):
    if one_per_batch:  # 20 batches: many more claims than workers
        monkeypatch.setattr(_ipm, "_BATCH_ELEMENTS", 1)
    monkeypatch.setattr(experiment, "_workers", lambda batches: 1)
    serial = _csv(POOLED[name])
    threads = threading.active_count()
    _at_most(3, monkeypatch)
    assert _csv(POOLED[name]) == serial
    assert forks == [threads, threads]
    _no_child_left()


@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_worker_exception_is_raised_and_no_worker_outlives_it(monkeypatch, forks):
    def generate(spec):
        raise KeyError(spec.seed)

    monkeypatch.setattr(experiment, "generate", generate)
    _at_most(2, monkeypatch)
    with pytest.raises(KeyError):
        run_experiment(POOLED["gaussian_min_real"])
    assert len(forks) == 1
    assert multiprocessing.active_children() == []
    _no_child_left()


@pytest.mark.parametrize(
    "failing, exc", [("child", KeyError), ("parent", KeyError), ("parent", KeyboardInterrupt)]
)
def test_exception_in_one_share_is_raised_and_kills_every_child(failing, exc, monkeypatch, forks):
    # one instance per batch: 20 batches, so every process claims some
    monkeypatch.setattr(_ipm, "_BATCH_ELEMENTS", 1)
    parent, real_generate = os.getpid(), experiment.generate

    def generate(spec):
        if (os.getpid() == parent) == (failing == "parent"):
            raise exc(spec.seed)
        # the other share stays busy: a child until it is killed, the caller until a child has failed
        time.sleep(20 if failing == "parent" else 0.05)
        return real_generate(spec)

    monkeypatch.setattr(experiment, "generate", generate)
    _at_most(3, monkeypatch)
    start = time.monotonic()
    with pytest.raises(exc) as raised:
        run_experiment(POOLED["gaussian_min_real"])
    assert time.monotonic() - start < 10
    assert len(forks) == 2
    if failing == "child":
        assert "in sweep worker" in str(raised.value.__cause__)
    _no_child_left()


@pytest.mark.parametrize("m_list, per_m", [((5,), 5), ((5, 10), 0)])
def test_one_batch_or_none_forks_nothing(m_list, per_m, monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert [experiment._workers(b) for b in (0, 1, 3, 9)] == [0, 1, 3, 4]
    config = ExperimentConfig(cases=(CASE_A, CASE_B), m_list=m_list, instances_per_m=per_m)
    assert len(run_experiment(config).records) == 2 * len(m_list) * per_m
    assert forks == []


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
