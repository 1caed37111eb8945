"""Tests for the sweep runner and the command-line front end."""

import io
import json
import math

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
    run_single,
    summarize,
    write_csv,
)
from hqopt.instances import CASE_A, CASE_B, CASE_C
from hqopt.matrices import SymMatrix
from hqopt.rounding import GAUSSIAN_MAX, GAUSSIAN_MIN, SIGN_MAX
from hqopt.sdp import COMPLEX, MINIMIZE, OPTIMAL, REAL, QcqpInstance


def run_cli(argv):
    out = io.StringIO()
    rc = main(argv, out)
    return rc, out.getvalue()


def write_identity_instance(path, n=3):
    inst = QcqpInstance(
        sense=MINIMIZE,
        field=REAL,
        objective=SymMatrix(np.eye(n)),
        constraints=(SymMatrix(np.eye(n)),),
    )
    path.write_text(json.dumps(inst.to_json_dict()))
    return inst


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

    def test_gap_example_solves_to_zero(self, tmp_path):
        run_cli(["example", "--id", "min_gap_infinite", "--out", str(tmp_path / "g.json")])
        rc, text = run_cli(["solve", str(tmp_path / "g.json")])
        assert rc == 0
        assert abs(json.loads(text)["objective_value"]) <= 1e-7

    def test_truncated_file_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sense": "min", "field"')
        rc, _ = run_cli(["solve", str(path)])
        assert rc == 2

    def test_missing_file_exits_two(self):
        rc, _ = run_cli(["solve", "/nonexistent/inst.json"])
        assert rc == 2


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

    def test_unknown_check_rejected(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--lemma", "L9_9"])
        assert err.value.code == 2


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
