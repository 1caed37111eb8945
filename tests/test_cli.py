"""Tests for the sweep runner and the command-line front end."""

import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from hqopt import cli, experiment
from hqopt.cli import main
from hqopt.experiment import (
    CSV_HEADER,
    GENERATION_FAILED,
    ROUNDING_FAILED,
    ExperimentConfig,
    derive_seeds,
    run_experiment,
    write_csv,
)
from hqopt.instances import CANONICAL_IDS, CASE_A, CASE_B, CASE_C, MAX_COUPLING, MIN_COUPLING
from hqopt.rounding import GAUSSIAN_MAX, GAUSSIAN_MIN, SIGN_MAX
from hqopt.sdp import COMPLEX, MINIMIZE, OPTIMAL, REAL, QcqpInstance

from oracles import run_single

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    rc = main(argv, out)
    return rc, out.getvalue()


def write_identity_instance(path, n=3):
    inst = QcqpInstance(MINIMIZE, REAL, np.stack([np.eye(n), np.eye(n)]))
    path.write_text(json.dumps(inst.to_json_dict()))
    return inst


def assert_json_close(got, want, path="$"):
    """got equals want with floats to 1e-8 relative or 1e-10 absolute, and everything else exactly."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_json_close(a, b, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), path


class TestExperimentConfig:
    def test_defaults_are_desk_scale(self):
        config = ExperimentConfig()
        assert config.instances_per_m == 100
        assert max(config.m_list) <= 30
        assert config.scheme == GAUSSIAN_MIN
        assert config.sense == MINIMIZE

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cases": ()},
            {"cases": ("Z_Unknown",)},
            {"m_list": (0,)},
            {"instances_per_m": -1},
            {"samples": 0},
            {"n": 1},
            {"scheme": "Median"},
            {"field": "Complex", "scheme": SIGN_MAX},
            {"m_list": (5, 5)},
            {"cases": (CASE_A, CASE_A)},
            {"root_seed": -1},
            {"root_seed": 1.5},
            {"root_seed": "0"},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("instances_per_m", 1.5),
            ("instances_per_m", True),
            ("n", 3.0),
            ("n", True),
            ("samples", 2.5),
            ("samples", True),
            ("m_list", (True,)),
            ("root_seed", True),
        ],
    )
    def test_rejects_non_integers_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize(
        "flags", [["--m-list", "5,5"], ["--cases", "a,a"], ["--cases", "a,A_OneIndef_RestPD"]]
    )
    def test_duplicate_cells_exit_two(self, tmp_path, flags):
        out = tmp_path / "dup.csv"
        rc, _ = run_cli(["experiment", *flags, "--instances-per-m", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seeds(7, 0, 5, 3) == derive_seeds(7, 0, 5, 3)

    def test_distinct_across_positions(self):
        seen = {derive_seeds(7, c, m, i) for c in range(2) for m in (5, 10) for i in range(20)}
        assert len(seen) == 80


class TestRunSingle:
    def test_min_record_invariant(self):
        config = ExperimentConfig(m_list=(4,), instances_per_m=1, samples=50, n=6)
        rec = run_single(config, CASE_A, 0, 4, 0)
        assert rec.solve_status == OPTIMAL
        assert rec.empirical_ratio == pytest.approx(rec.v_hat_qp / rec.v_sdp)
        assert rec.empirical_ratio >= 1.0 - 1e-6
        assert rec.empirical_ratio <= rec.theoretical_bound

    def test_max_record_invariant(self):
        config = ExperimentConfig(m_list=(4,), instances_per_m=1, samples=80, n=6, scheme=SIGN_MAX)
        rec = run_single(config, CASE_A, 0, 4, 0)
        assert rec.solve_status == OPTIMAL
        assert rec.empirical_ratio == pytest.approx(rec.v_sdp / rec.v_hat_qp)
        assert rec.empirical_ratio >= 1.0 - 1e-6


class TestRunExperiment:
    def test_deterministic_order_and_rerun(self):
        config = ExperimentConfig(m_list=(2, 3), instances_per_m=3, samples=20, n=5)
        a = run_experiment(config)
        b = run_experiment(config)
        assert [r.instance_seed for r in a.records] == [r.instance_seed for r in b.records]
        assert [r.empirical_ratio for r in a.records] == [r.empirical_ratio for r in b.records]
        assert [(r.case, r.m) for r in a.records] == [(CASE_A, 2)] * 3 + [(CASE_A, 3)] * 3

    def test_summary_matches_recomputation(self):
        config = ExperimentConfig(m_list=(2, 4), instances_per_m=4, samples=20, n=5)
        result = run_experiment(config)
        for summary in result.summaries:
            ratios = [
                r.empirical_ratio
                for r in result.records
                if r.case == summary.case and r.m == summary.m and math.isfinite(r.empirical_ratio)
            ]
            assert summary.count == len(ratios)
            assert summary.ratio_min == min(ratios)
            assert summary.ratio_max == max(ratios)
            assert summary.ratio_mean == sum(ratios) / len(ratios)

    def test_zero_instances_gives_header_only(self):
        config = ExperimentConfig(m_list=(2,), instances_per_m=0, samples=20, n=5)
        result = run_experiment(config)
        stream = io.StringIO()
        write_csv(result, stream)
        lines = stream.getvalue().splitlines()
        assert lines == ["# root_seed=0", CSV_HEADER]

    def test_csv_byte_identical_and_inf_serialization(self):
        # two indefinite constraints per instance: no claimed bound, inf column
        config = ExperimentConfig(
            cases=(CASE_B,), m_list=(10,), instances_per_m=2, samples=60, n=6, root_seed=3
        )
        result = run_experiment(config)
        s1, s2 = io.StringIO(), io.StringIO()
        write_csv(result, s1)
        write_csv(run_experiment(config), s2)
        assert s1.getvalue() == s2.getvalue()
        body = s1.getvalue().splitlines()
        assert body[0] == "# root_seed=3"
        assert body[1] == CSV_HEADER
        data_rows = [ln for ln in body[2:] if "Summary" not in ln]
        assert all(ln.split(",")[-1] == "inf" for ln in data_rows)


class TestSweepRobustness:
    """A bad record becomes a row status; it never aborts the sweep or hides."""

    def test_max_sweep_without_definite_aggregate_completes(self):
        config = ExperimentConfig(cases=(CASE_C,), m_list=(5,), instances_per_m=20, scheme=GAUSSIAN_MAX)
        records = run_experiment(config).records
        assert len(records) == 20
        # instance 8 has no positive definite constraint aggregate
        assert records[8].solve_status == ROUNDING_FAILED
        assert math.isnan(records[8].empirical_ratio)

    def test_failed_rounding_is_not_labelled_optimal(self):
        config = ExperimentConfig(cases=(CASE_B,), m_list=(60,), instances_per_m=20)
        records = run_experiment(config).records
        assert not any(r.solve_status == OPTIMAL and math.isnan(r.empirical_ratio) for r in records)
        assert any(r.solve_status == ROUNDING_FAILED for r in records)

    def test_exhausted_generation_retries_keep_the_row(self, monkeypatch):
        real_generate = experiment.generate
        bad_seed = derive_seeds(0, 0, 5, 1)[0]

        def generate(spec):
            if spec.seed == bad_seed:
                raise RuntimeError("no feasible instance after 20 retries")
            return real_generate(spec)

        monkeypatch.setattr(experiment, "generate", generate)
        config = ExperimentConfig(cases=(CASE_A,), m_list=(5,), instances_per_m=3)
        records = run_experiment(config).records
        assert len(records) == 3
        assert [r.solve_status for r in records] == [OPTIMAL, GENERATION_FAILED, OPTIMAL]
        failed = records[1]
        assert failed.instance_seed == bad_seed
        assert all(math.isnan(v) for v in (failed.v_sdp, failed.v_hat_qp, failed.empirical_ratio,
                                           failed.theoretical_bound))

    def test_complex_gaussian_fallback_claims_sampling_bound(self):
        # exact extraction finds no rank-one point on this m = 3 instance, so
        # the record is Gaussian-sampled (ratio about 1.0126) and may not claim 1
        config = ExperimentConfig(cases=(CASE_A,), m_list=(3,), instances_per_m=14, field=COMPLEX)
        rec = run_single(config, CASE_A, 0, 3, 13)
        assert rec.instance_seed == 527385492
        assert rec.solve_status == OPTIMAL
        assert rec.empirical_ratio > 1.0 + 1e-4
        assert rec.empirical_ratio <= rec.theoretical_bound == 2400.0 * 3

    def test_slightly_negative_solver_eigenvalue_is_accepted(self):
        # instance 4's Optimal solution has an eigenvalue of -3.85e-9
        config = ExperimentConfig(cases=(CASE_C,), m_list=(10,), instances_per_m=10, scheme=SIGN_MAX)
        records = run_experiment(config).records
        assert len(records) == 10
        assert all(r.solve_status == OPTIMAL and math.isfinite(r.empirical_ratio) for r in records)


class TestCliSolve:
    def test_identity_instance(self, tmp_path):
        path = tmp_path / "inst.json"
        write_identity_instance(path)
        rc, text = run_cli(["solve", str(path)])
        assert rc == 0
        payload = json.loads(text)
        assert payload["status"] == "optimal"
        assert payload["objective_value"] == pytest.approx(1.0, abs=1e-7)

    def test_unbounded_relaxation_exits_three(self, tmp_path):
        rc, _ = run_cli(["example", "--id", "max_unbounded_relaxation", "--out", str(tmp_path / "e.json")])
        assert rc == 0
        rc, text = run_cli(["solve", str(tmp_path / "e.json")])
        assert rc == 3
        assert json.loads(text)["status"] == "unbounded"

    def test_infeasible_relaxation_prints_its_farkas_certificate(self, tmp_path):
        # min |x|^2 subject to -|x|^2 >= 1 and x_1^2 >= 1
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([np.eye(2), -np.eye(2), np.diag([1.0, 0.0])]))
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(inst.to_json_dict()))
        rc, text = run_cli(["solve", str(path)])
        assert rc == 3
        payload = json.loads(text)
        assert payload["status"] == "infeasible"
        y = np.array(payload["infeasibility_certificate"])
        assert y.min() >= 0.0 and y.sum() == pytest.approx(1.0, abs=1e-9)
        Z = np.array(payload["dual_slack"]["re"]).reshape(2, 2)
        np.testing.assert_allclose(Z, -np.tensordot(y, inst.field_view.A, 1), atol=1e-8)
        assert np.linalg.eigvalsh(Z)[0] >= -1e-9

    def test_gap_example_solves_to_zero(self, tmp_path):
        run_cli(["example", "--id", "min_gap_infinite", "--out", str(tmp_path / "g.json")])
        rc, text = run_cli(["solve", str(tmp_path / "g.json")])
        assert rc == 0
        assert abs(json.loads(text)["objective_value"]) <= 1e-7

    @pytest.mark.parametrize(
        "name, rc",
        [
            ("example_min_coupling", 0),
            ("example_max_coupling", 0),
            ("instance_complex", 0),
            ("example_max_unbounded_relaxation", 3),
            ("instance_infeasible", 3),
            ("instance_complex_max", 0),
            ("instance_numerical_failure", 1),
        ],
    )
    def test_matches_the_committed_output(self, name, rc):
        # solve_<name>.json holds `hqopt solve <name>.json`; floats may move by round-off
        # across numpy versions, except in the numerical failure, whose 200th iterate
        # is compared on its exact fields only
        got_rc, text = run_cli(["solve", str(GOLDEN / f"{name}.json")])
        got, want = json.loads(text), json.loads((GOLDEN / f"solve_{name}.json").read_text())
        assert got_rc == rc and list(got) == list(want)
        for key in ("status", "message", "field", "n", "iterations"):
            assert got[key] == want[key], key
        if want["status"] != "numerical_failure":
            assert_json_close(got, want)

    def test_numerical_failure_exits_one(self):
        # real case C GaussianMax, n = 10, m = 5, instance seed 1877033296
        rc, text = run_cli(["solve", str(GOLDEN / "instance_numerical_failure.json")])
        assert rc == 1
        payload = json.loads(text)
        assert payload["status"] == "numerical_failure"
        assert payload["message"] == "iteration cap reached"

    def test_truncated_file_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sense": "min", "field"')
        rc, _ = run_cli(["solve", str(path)])
        assert rc == 2

    def test_missing_file_exits_two(self):
        rc, _ = run_cli(["solve", "/nonexistent/inst.json"])
        assert rc == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"sense": "min", "field": "real", "C": {"n": 1, "re": [1]}, "A": 5},
            {"sense": "min", "field": "real", "C": {"n": True, "re": [1]}, "A": [{"n": 1, "re": [1]}]},
            {"sense": "min", "field": "real", "C": {"n": 1, "re": [{}]}, "A": [{"n": 1, "re": [1]}]},
        ],
        ids=["int-constraints", "bool-dimension", "object-entry"],
    )
    def test_malformed_instance_exits_two(self, tmp_path, payload, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        rc, text = run_cli(["solve", str(path)])
        assert rc == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")


class TestCliRound:
    def test_identity_ratio_one(self, tmp_path):
        path = tmp_path / "inst.json"
        write_identity_instance(path)
        rc, text = run_cli(["round", str(path), "--samples", "20"])
        assert rc == 0
        report = json.loads(text)
        assert report["empirical_ratio"] == pytest.approx(1.0, abs=1e-6)
        assert report["certificate_satisfied"] is True

    def test_coupled_min_example(self, tmp_path):
        run_cli(["example", "--id", "min_coupling", "--M", "10", "--out", str(tmp_path / "m.json")])
        rc, text = run_cli(["round", str(tmp_path / "m.json"), "--samples", "400", "--seed", "1"])
        assert rc == 0
        report = json.loads(text)
        # every feasible point of this instance costs at least the analytic optimum
        root = (10.0 + math.sqrt(104.0)) / 2.0
        assert report["best_objective"] >= 1.0 + root * root - 1e-4
        assert report["multi_indefinite_warning"] is True
        assert report["theoretical_bound"] == "inf"

    def test_rounding_failure_exits_four(self, tmp_path):
        run_cli(["example", "--id", "min_gap_infinite", "--out", str(tmp_path / "g.json")])
        rc, text = run_cli(["round", str(tmp_path / "g.json"), "--samples", "50"])
        assert rc == 4
        report = json.loads(text)
        assert report["failed"] is True
        assert report["samples_feasible"] == 0

    @pytest.mark.parametrize(
        "scheme, example",
        [(GAUSSIAN_MIN, "min_coupling"), (SIGN_MAX, "max_coupling"), (GAUSSIAN_MAX, "max_coupling")],
    )
    def test_every_scheme_prints_a_json_report(self, tmp_path, scheme, example):
        path = str(tmp_path / "e.json")
        run_cli(["example", "--id", example, "--M", "10", "--out", path])
        rc, text = run_cli(["round", path, "--scheme", scheme, "--samples", "200"])
        assert rc == 0
        report = json.loads(text)
        assert report["scheme"] == scheme
        assert report["failed"] is False
        assert report["samples_feasible"] + report["samples_discarded"] == 200

    def test_unbounded_instance_skips_rounding(self, tmp_path):
        run_cli(["example", "--id", "max_unbounded_relaxation", "--out", str(tmp_path / "e.json")])
        rc, text = run_cli(["round", str(tmp_path / "e.json"), "--scheme", GAUSSIAN_MAX])
        assert rc == 3
        assert json.loads(text)["status"] == "unbounded"


class TestCliExperiment:
    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc, text = run_cli(
            [
                "experiment",
                "--m-list",
                "3",
                "--instances-per-m",
                "3",
                "--samples",
                "20",
                "--n",
                "5",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "root_seed=11" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "# root_seed=11"
        assert lines[1] == CSV_HEADER
        assert len([ln for ln in lines if ln.startswith("A_OneIndef")]) == 3 + 3

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "experiment", "--m-list", "3", "--instances-per-m", "2", "--samples", "10",
            "--n", "5", "--seed", "2",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_m_list_exits_two(self, tmp_path):
        rc, _ = run_cli(["experiment", "--m-list", "5,x", "--out", str(tmp_path / "c.csv")])
        assert rc == 2

    @pytest.mark.parametrize("paper_scale", [[], ["--paper-scale"]], ids=["desk", "paper"])
    @pytest.mark.parametrize("flag, message", [("--cases", "cases must be drawn from"),
                                               ("--m-list", "m_list must hold positive integers")],
                             ids=["cases", "m_list"])
    def test_empty_list_exits_two_before_the_sweep(self, tmp_path, monkeypatch, capsys, flag, message,
                                                   paper_scale):
        # an empty list is an input error, not a request for the default sweep
        def run_experiment(config):
            raise AssertionError("the sweep ran on an empty list")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        out = tmp_path / "c.csv"
        rc, text = run_cli(["experiment", flag, "", "--out", str(out)] + paper_scale)
        assert rc == 2 and text == ""
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_directory_exits_two_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def run_experiment(config):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        rc, _ = run_cli(["experiment", "--m-list", "3", "--out", str(tmp_path / "missing" / "c.csv")])
        assert rc == 2
        assert "missing" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_directory_out_exits_two_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def run_experiment(config):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        rc, _ = run_cli(["experiment", "--m-list", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert "is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc, text = run_cli(["experiment", "--m-list", "3", "--seed", "-1", "--out", str(out)])
        assert rc == 2 and text == ""
        assert "root_seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestCliVerify:
    def test_single_check_passes(self):
        rc, text = run_cli(["verify", "--lemma", "L2_1", "--samples", "40000", "--seed", "0"])
        assert rc == 0
        payload = json.loads(text)
        assert payload["all_passed"] is True
        assert payload["checks"][0]["check_id"] == "L2_1"
        assert payload["root_seed"] == 0

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_exits_two(self, samples, capsys):
        rc, text = run_cli(["verify", "--lemma", "L2_1", "--samples", samples])
        assert rc == 2 and text == ""
        assert "samples >= 1" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, capsys):
        rc, text = run_cli(["verify", "--lemma", "L3_1", "--seed", "-1"])
        assert rc == 2 and text == ""
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_unknown_check_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--lemma", "L9_9"])
        assert err.value.code == 2

    def test_prints_the_committed_bytes(self):
        # every L4_1 value is an exhaustive sign-enumeration count, so the output bytes are fixed
        rc, text = run_cli(["verify", "--lemma", "L4_1"])
        assert rc == 0 and text == (GOLDEN / "verify_L4_1.json").read_text()

    def test_all_checks_match_the_committed_output(self):
        # written by `hqopt verify --lemma all --seed 0`; ids, methods, node counts,
        # verdicts and notes match exactly, and values up to the round-off that moves
        # between numpy versions (a radius is a difference of nearly equal sums)
        rc, text = run_cli(["verify", "--lemma", "all", "--seed", "0"])
        got, want = json.loads(text), json.loads((GOLDEN / "verify_all_seed0.json").read_text())
        assert rc == 0 and (got["root_seed"], got["all_passed"]) == (want["root_seed"], want["all_passed"])
        assert [c["check_id"] for c in got["checks"]] == [c["check_id"] for c in want["checks"]]
        for check, ref in zip(got["checks"], want["checks"]):
            assert (check["passed"], check["notes"]) == (ref["passed"], ref["notes"]), ref["check_id"]
            exact = [(r["lemma_id"], r["method"], r["samples"]) for r in check["results"]]
            assert exact == [(r["lemma_id"], r["method"], r["samples"]) for r in ref["results"]]
            for res, old in zip(check["results"], ref["results"]):
                for key in ("estimate", "analytic_lower_bound"):
                    assert res[key] == pytest.approx(old[key], rel=1e-12, abs=0.0), (ref["check_id"], key)
                assert res["confidence_radius"] == pytest.approx(old["confidence_radius"], rel=0.0, abs=1e-12)


class TestCliExample:
    def test_payload_shape(self):
        rc, text = run_cli(["example", "--id", "max_coupling", "--M", "10"])
        assert rc == 0
        payload = json.loads(text)
        assert payload["id"] == "max_coupling"
        assert payload["known_values"]["v_sdp_lower"] == pytest.approx(1.1)
        assert payload["instance"]["sense"] == "max"

    def test_missing_coupling_strength_exits_two(self):
        rc, _ = run_cli(["example", "--id", "min_coupling"])
        assert rc == 2

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["example", "--id", "mystery"])
        assert err.value.code == 2

    @pytest.mark.parametrize("example_id", CANONICAL_IDS)
    def test_prints_the_committed_bytes(self, example_id):
        coupling = ["--M", "10"] if example_id in (MIN_COUPLING, MAX_COUPLING) else []
        rc, text = run_cli(["example", "--id", example_id, *coupling])
        assert rc == 0 and text == (GOLDEN / f"example_{example_id}.json").read_text()


class TestInstanceFiles:
    """Instance files as QcqpInstance reads and writes them: {"n", "re"[, "im"]} per matrix."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_load_and_write_back_keeps_the_text(self, field):
        text = (GOLDEN / f"instance_{field}.json").read_text()
        inst = QcqpInstance.from_json_dict(json.loads(text))
        assert json.dumps(inst.to_json_dict(), indent=2) + "\n" == text

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_slightly_asymmetric_matrices_are_symmetrized(self, field):
        data = json.loads((GOLDEN / f"instance_{field}.json").read_text())
        blocks = ("re", "im") if field == "complex" else ("re",)
        for key in blocks:
            data["A"][0][key][1] += 1e-12  # entry (0, 1) of a 3 x 3 matrix; (1, 0) is entry 3
        A0 = QcqpInstance.from_json_dict(data).field_view.A[0]
        re, im = data["A"][0]["re"], data["A"][0].get("im")
        assert A0.real[0, 1] == A0.real[1, 0] == 0.5 * (re[1] + re[3])
        if im is not None:
            assert A0.imag[0, 1] == -A0.imag[1, 0] == 0.5 * (im[1] - im[3])


def run_python(args, blas: dict):
    """Run python with hqopt importable and the BLAS variables set exactly to blas."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True, text=True)


class TestBlasThreads:
    # importing hqopt sets one BLAS thread per process unless the caller chose a count

    def test_import_sets_one_thread_and_keeps_a_chosen_count(self):
        show = ["-c", "import os, hqopt; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)]
        assert run_python(show, {}).stdout.split() == ["1", "1", "1"]
        assert run_python(show, {"OPENBLAS_NUM_THREADS": "3"}).stdout.split() == ["3", "1", "1"]

    def test_sweep_bytes_same_with_blas_variables_unset(self, tmp_path):
        # unpinned, a multi-threaded BLAS rounds the complex m = 100 products
        # differently on a machine with more than one CPU
        sweep = ["-m", "hqopt.cli", "experiment", "--complex-field", "--m-list", "100",
                 "--instances-per-m", "4", "--out"]
        unset, pinned = tmp_path / "unset.csv", tmp_path / "pinned.csv"
        run_python([*sweep, str(unset)], {})
        run_python([*sweep, str(pinned)], dict.fromkeys(BLAS_VARS, "1"))
        assert unset.read_bytes() == pinned.read_bytes()
