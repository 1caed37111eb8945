"""Tests for instance generation, canonical examples, and the grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqopt.instances import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    MAX_COUPLING,
    MAX_UNBOUNDED_RELAXATION,
    MIN_COUPLING,
    MIN_GAP_INFINITE,
    OBJECTIVE_IDENTITY,
    OBJECTIVE_INDEFINITE,
    GeneratorSpec,
    canonical,
    generate,
    generate_report,
    indefinite_matrix,
)
from hqopt.matrices import to_json
from hqopt.sdp import (
    COMPLEX,
    INDEFINITE,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    PSD,
    REAL,
    UNBOUNDED,
    QcqpInstance,
    constraint_values,
    objective_value,
    solve_instance,
    tag_matrix,
)

from oracles import BruteGrid, brute_force_qcqp


def spec_a(**overrides):
    base = dict(
        n=8, m=5, case=CASE_A, sense=MINIMIZE, objective_kind=OBJECTIVE_IDENTITY, seed=0
    )
    base.update(overrides)
    return GeneratorSpec(**base)


class TestGeneratorSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"m": -1},
            {"case": "E_Everything"},
            {"sense": "minimise"},
            {"objective_kind": "Zero"},
            {"seed": -1},
            {"field": "Quaternion"},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            spec_a(**overrides)

    @pytest.mark.parametrize("name", ["n", "m", "seed"])
    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_non_integers_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            spec_a(**{name: value})

    def test_indefinite_count_by_case(self):
        assert spec_a(case=CASE_A).num_indefinite == 1
        assert spec_a(case=CASE_C).num_indefinite == 1
        assert spec_a(case=CASE_B, m=9).num_indefinite == 1
        assert spec_a(case=CASE_B, m=19).num_indefinite == 2
        assert spec_a(case=CASE_D, m=29).num_indefinite == 3

    def test_psd_rank_by_case(self):
        assert spec_a(case=CASE_A).psd_rank == 8
        assert spec_a(case=CASE_B).psd_rank == 8
        assert spec_a(case=CASE_C).psd_rank == 1
        assert spec_a(case=CASE_D).psd_rank == 1

    def test_json_fields(self):
        payload = to_json(spec_a(seed=7))
        assert payload["case"] == CASE_A
        assert payload["seed"] == 7
        assert payload["field"] == REAL


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(spec_a(seed=3))
        b = generate(spec_a(seed=3))
        assert all(np.array_equal(x.a, y.a) for x, y in zip(a.constraints, b.constraints))
        assert np.array_equal(a.objective.a, b.objective.a)

    def test_seed_changes_instance(self):
        a = generate(spec_a(seed=3))
        b = generate(spec_a(seed=4))
        assert not np.array_equal(a.constraints[0].a, b.constraints[0].a)

    def test_single_indefinite_full_rank_rest(self):
        inst = generate(spec_a(seed=1))
        assert inst.tags[0] == INDEFINITE
        assert all(t == PSD for t in inst.tags[1:])
        for a in inst.constraints[1:]:
            assert np.linalg.matrix_rank(a.a, tol=1e-8) == inst.n

    def test_rank_one_case(self):
        inst = generate(spec_a(case=CASE_C, seed=1))
        assert inst.tags[0] == INDEFINITE
        for a in inst.constraints[1:]:
            assert tag_matrix(a.a[None]) == (PSD,)
            assert np.linalg.matrix_rank(a.a, tol=1e-8) == 1

    def test_ten_percent_indefinite(self):
        rep = generate_report(spec_a(case=CASE_B, m=19, seed=2))
        assert sum(t == INDEFINITE for t in rep.instance.tags) == 2
        assert rep.feasibility_retries >= 0

    def test_identity_and_indefinite_objectives(self):
        ident = generate(spec_a(seed=5))
        assert np.array_equal(ident.objective.a, np.eye(8))
        indef = generate(
            spec_a(sense=MAXIMIZE, objective_kind=OBJECTIVE_INDEFINITE, seed=5)
        )
        assert tag_matrix(indef.objective.a[None]) == (INDEFINITE,)

    def test_complex_field(self):
        inst = generate(spec_a(n=4, m=3, field=COMPLEX, seed=6))
        assert inst.field == COMPLEX
        assert np.iscomplexobj(inst.field_view.A)
        assert inst.tags[0] == INDEFINITE
        assert all(t == PSD for t in inst.tags[1:])

    def test_generated_min_instance_solves(self):
        inst = generate(spec_a(n=6, m=4, seed=9))
        assert solve_instance(inst).status == OPTIMAL

    def test_indefinite_draw_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            indefinite_matrix(np.random.default_rng(0), 1)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 6),
        m=st.integers(1, 5),
        case=st.sampled_from([CASE_A, CASE_C]),
        seed=st.integers(0, 500),
    )
    def test_tags_always_match_case(self, n, m, case, seed):
        inst = generate(
            GeneratorSpec(
                n=n, m=m, case=case, sense=MINIMIZE, objective_kind=OBJECTIVE_IDENTITY, seed=seed
            )
        )
        assert inst.tags[0] == INDEFINITE
        assert all(t == PSD for t in inst.tags[1:])


class TestCanonicalCoupledMin:
    def test_requires_coupling_strength(self):
        with pytest.raises(ValueError):
            canonical(MIN_COUPLING)
        with pytest.raises(ValueError):
            canonical(MIN_COUPLING, -2.0)

    def test_known_values(self):
        ex = canonical(MIN_COUPLING, 10.0)
        root = (10.0 + math.sqrt(104.0)) / 2.0
        assert ex.known_values["v_sdp"] == 2.0
        assert ex.known_values["v_qp_lower"] == pytest.approx(1.0 + root * root)
        assert ex.instance.tags == (PSD, INDEFINITE, INDEFINITE)

    def test_relaxation_value_is_two(self):
        ex = canonical(MIN_COUPLING, 10.0)
        sol = solve_instance(ex.instance)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)

    def test_true_optimum_matches_formula(self):
        ex = canonical(MIN_COUPLING, 10.0)
        v = brute_force_qcqp(ex.instance, BruteGrid(radius=16.0))
        assert v == pytest.approx(ex.known_values["v_qp_lower"], abs=1e-4)


class TestCanonicalInfiniteGap:
    def test_relaxation_value_is_zero(self):
        ex = canonical(MIN_GAP_INFINITE)
        sol = solve_instance(ex.instance)
        assert sol.status == OPTIMAL
        assert abs(sol.objective_value) <= 1e-7

    def test_witness_achieves_three(self):
        ex = canonical(MIN_GAP_INFINITE)
        w = np.array([math.sqrt(2.0), math.sqrt(2.0), 0.0, math.sqrt(3.0)])
        assert constraint_values(ex.instance, w).min() >= 1.0 - 1e-12
        assert objective_value(ex.instance, w) == pytest.approx(3.0)
        assert ex.known_values == {"v_sdp": 0.0, "v_qp_lower": 3.0}

    def test_reduced_grid_confirms_lower_bound(self):
        # the objective enters only through x4^2 = max(0, 1 + |x1 x2| - x3^2),
        # leaving a three-variable search over the two hyperbolic constraints
        axis = np.linspace(-4.0, 4.0, 161)
        x1, x2, x3 = np.meshgrid(axis, axis, np.linspace(-2.0, 2.0, 81), indexing="ij")
        feas = (0.5 * x1 * x1 - x3 * x3 >= 1.0) & (0.5 * x2 * x2 - x3 * x3 >= 1.0)
        needed = np.maximum(0.0, 1.0 + np.abs(x1 * x2) - x3 * x3)
        val = float(np.where(feas, needed, np.inf).min())
        assert 3.0 - 1e-12 <= val <= 3.1


class TestCanonicalCoupledMax:
    def test_relaxation_value_inside_band(self):
        ex = canonical(MAX_COUPLING, 10.0)
        sol = solve_instance(ex.instance)
        assert sol.status == OPTIMAL
        assert 1.1 - 1e-6 <= sol.objective_value <= 1.2 + 1e-6

    def test_true_optimum_below_stated_bound(self):
        for M in (10.0, 100.0):
            ex = canonical(MAX_COUPLING, M)
            v = brute_force_qcqp(ex.instance)
            assert 0.0 < v <= ex.known_values["v_qp_upper"] + 1e-3

    def test_known_values(self):
        ex = canonical(MAX_COUPLING, 50.0)
        assert ex.known_values["v_sdp_lower"] == pytest.approx(1.02)
        assert ex.known_values["v_sdp_upper"] == pytest.approx(1.04)
        assert ex.known_values["ratio_lower"] == pytest.approx(19.1)


class TestCanonicalUnboundedRelaxation:
    def test_relaxation_unbounded_with_finite_optimum(self):
        ex = canonical(MAX_UNBOUNDED_RELAXATION)
        sol = solve_instance(ex.instance)
        assert sol.status == UNBOUNDED
        v = brute_force_qcqp(ex.instance)
        assert v == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-4)
        assert ex.known_values["v_qp"] == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0)
        assert ex.known_values["sdp_status"] == UNBOUNDED

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown canonical"):
            canonical("median_example")


class TestBruteForce:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_min(self, n):
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([np.eye(n), np.eye(n)]))
        assert brute_force_qcqp(inst) == pytest.approx(1.0, abs=1e-5)

    def test_identity_max(self):
        inst = QcqpInstance(MAXIMIZE, REAL, np.stack([np.eye(2), np.eye(2)]))
        assert brute_force_qcqp(inst) == pytest.approx(1.0, abs=1e-5)

    def test_unbounded_max_ray(self):
        inst = QcqpInstance(MAXIMIZE, REAL, np.stack([np.eye(2), np.diag([1.0, -1.0])]))
        assert brute_force_qcqp(inst) == math.inf

    def test_unbounded_min_ray(self):
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([np.diag([1.0, -1.0]), np.eye(2)]))
        assert brute_force_qcqp(inst) == -math.inf

    def test_infeasible_raises(self):
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([np.eye(2), -np.eye(2)]))
        with pytest.raises(ValueError, match="feasible"):
            brute_force_qcqp(inst)

    def test_dimension_and_field_limits(self):
        big = QcqpInstance(MINIMIZE, REAL, np.stack([np.eye(4), np.eye(4)]))
        with pytest.raises(ValueError, match="n <= 3"):
            brute_force_qcqp(big)
        cplx = QcqpInstance(MINIMIZE, COMPLEX, np.stack([np.eye(2), np.eye(2)]))
        with pytest.raises(ValueError, match="real"):
            brute_force_qcqp(cplx)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BruteGrid(radius=0.0)
        with pytest.raises(ValueError):
            BruteGrid(points=3)
