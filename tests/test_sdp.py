import dataclasses
import json
import math

import numpy as np
import pytest

from hqopt import _ipm, sdp
from hqopt.experiment import ExperimentConfig
from hqopt.instances import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    CASES,
    OBJECTIVE_IDENTITY,
    OBJECTIVE_INDEFINITE,
    GeneratorSpec,
    generate,
)
from hqopt.matrices import hermitian_part, matrix_to_json
from hqopt.rounding import GAUSSIAN_MAX

from oracles import run_single


def embed(a):
    """The real 2n x 2n embedding [[Re, -Im], [Im, Re]] of complex arrays (..., n, n)."""
    a = np.asarray(a)
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def field_point(inst, x):
    """A reported point in the instance's field: its (Re; Im) read back for complex data."""
    x = np.asarray(x)
    return x[: inst.n] + 1j * x[inst.n :] if inst.field == sdp.COMPLEX else x


def sym(a):
    return hermitian_part(np.asarray(a, float))


def herm(re, im):
    return hermitian_part(np.asarray(re, float) + 1j * np.asarray(im, float))


def example_4_3(M):
    return sdp.QcqpInstance(sdp.MAXIMIZE, sdp.REAL, np.stack([
        sym(np.diag([1.0, 1.0 / M])),
        sym([[0.0, M / 2], [M / 2, 1.0]]),
        sym([[0.0, -M / 2], [-M / 2, 1.0]]),
        sym(np.diag([M, -M])),
    ]))


def example_4_4():
    return sdp.QcqpInstance(sdp.MAXIMIZE, sdp.REAL, np.stack([
        sym([[1.0, 0.5], [0.5, 0.0]]),
        sym([[0.0, 0.5], [0.5, 0.0]]),
        sym(np.diag([1.0, -1.0])),
    ]))


def example_3_7():
    cross = np.zeros((4, 4))
    cross[0, 1] = cross[1, 0] = 0.5
    lift = np.diag([0.0, 0.0, 1.0, 1.0])
    return sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([
        sym(np.diag([0.0, 0.0, 0.0, 1.0])),
        sym(cross + lift),
        sym(-cross + lift),
        sym(np.diag([0.5, 0.0, -1.0, 0.0])),
        sym(np.diag([0.0, 0.5, -1.0, 0.0])),
    ]))


def coupling_min_instance(M):
    # min x1^2+x2^2 s.t. x2^2 >= 1, x1^2 +- M x1 x2 >= 1
    return sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([
        sym(np.eye(2)),
        sym(np.diag([0.0, 1.0])),
        sym([[1.0, M / 2], [M / 2, 0.0]]),
        sym([[1.0, -M / 2], [-M / 2, 0.0]]),
    ]))


def random_real_instance(rng, n, m, sense):
    mats = []
    for _ in range(m + 1):
        kind = rng.integers(0, 3)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if kind == 0:
            A = float(rng.random()) * Q.T @ np.diag(np.abs(rng.standard_normal(n))) @ Q
        elif kind == 1:
            v = Q[0] * math.sqrt(abs(rng.standard_normal()) + 0.1)
            A = np.outer(v, v)
        else:
            A = Q.T @ np.diag(rng.standard_normal(n)) @ Q
        mats.append(sym(A))
    if sense == sdp.MAXIMIZE:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mats[0] = sym(Q.T @ np.diag(np.abs(rng.standard_normal(n)) + 0.1) @ Q)
        D = rng.standard_normal((n, n))
        C = sym(D + D.T)
    else:
        C = sym(np.eye(n))
    return sdp.QcqpInstance(sense, sdp.REAL, np.stack([C, *mats]))


def clarabel_value(inst):
    cp = pytest.importorskip("cvxpy")
    X = cp.Variable((inst.n, inst.n), symmetric=True)
    tr = [cp.trace(a.a @ X) for a in inst.constraints]
    if inst.sense == sdp.MINIMIZE:
        pr = cp.Problem(cp.Minimize(cp.trace(inst.objective.a @ X)), [X >> 0] + [t >= 1 for t in tr])
    else:
        pr = cp.Problem(cp.Maximize(cp.trace(inst.objective.a @ X)), [X >> 0] + [t <= 1 for t in tr])
    pr.solve(solver=cp.CLARABEL)
    return pr.status, pr.value


class TestTags:
    def test_basic(self):
        assert sdp.tag_matrix(sym(np.eye(3))[None]) == (sdp.PSD,)
        assert sdp.tag_matrix(sym(-np.eye(3))[None]) == (sdp.NSD,)
        assert sdp.tag_matrix(sym(np.diag([1.0, -1.0]))[None]) == (sdp.INDEFINITE,)
        assert sdp.tag_matrix(sym(np.zeros((2, 2)))[None]) == (sdp.PSD,)

    def test_rank_one(self):
        v = np.array([1.0, 2.0, -1.0])
        assert sdp.tag_matrix(sym(np.outer(v, v))[None]) == (sdp.PSD,)

    def test_tolerance_scales_with_norm(self):
        base = np.diag([1e6, -1e-5])
        assert sdp.tag_matrix(sym(base)[None]) == (sdp.PSD,)  # -1e-5 within 1e-9 * 1e6
        assert sdp.tag_matrix(sym(np.diag([1.0, -1e-5]))[None]) == (sdp.INDEFINITE,)

    def test_hermitian(self):
        h = herm(np.zeros((2, 2)), np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert sdp.tag_matrix(h[None]) == (sdp.INDEFINITE,)


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            sdp.QcqpInstance("Min", sdp.REAL, np.stack([sym(np.eye(2)), sym(np.eye(2))]))
        with pytest.raises(ValueError):
            sdp.QcqpInstance(sdp.MINIMIZE, "Quaternion", np.stack([sym(np.eye(2)), sym(np.eye(2))]))
        with pytest.raises(ValueError):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([sym(np.eye(2))]))
        with pytest.raises(ValueError):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, [sym(np.eye(2)), sym(np.eye(3))])
        with pytest.raises(TypeError):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([sym(np.eye(2)), sym(np.eye(2))]) + 0j)

    def test_counting_and_index_sets(self):
        inst = example_4_3(10.0)
        assert inst.m == 2 and inst.n == 2
        assert inst.tags == (sdp.INDEFINITE, sdp.INDEFINITE, sdp.INDEFINITE)
        assert inst.psd_indices == ()
        assert inst.non_psd_indices == (0, 1, 2)
        inst37 = example_3_7()
        assert inst37.tags[0] == sdp.INDEFINITE
        assert inst37.tags[2] == sdp.INDEFINITE

    def test_json_roundtrip_real(self):
        inst = example_4_3(10.0)
        data = json.loads(json.dumps(inst.to_json_dict()))
        back = sdp.QcqpInstance.from_json_dict(data)
        assert back.sense == inst.sense and back.field == inst.field
        assert np.array_equal(back.objective.a, inst.objective.a)
        for a, b in zip(back.constraints, inst.constraints):
            assert np.array_equal(a.a, b.a)

    def test_json_roundtrip_complex(self):
        h = herm(np.eye(2), np.array([[0.0, -0.3], [0.3, 0.0]]))
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.COMPLEX, np.stack([h, h]))
        back = sdp.QcqpInstance.from_json_dict(inst.to_json_dict())
        assert np.array_equal(back.field_view.A[0].imag, h.imag)

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            sdp.QcqpInstance.from_json_dict({"sense": "min"})
        with pytest.raises(ValueError):
            sdp.QcqpInstance.from_json_dict({"sense": "down", "field": "real", "C": {}, "A": []})
        with pytest.raises(ValueError):
            sdp.QcqpInstance.from_json_dict({"sense": "min", "field": "real", "C": {"n": 1, "re": [1]}, "A": 5})
        with pytest.raises(ValueError):
            sdp.QcqpInstance.from_json_dict(
                {"sense": "min", "field": "real", "C": {"n": True, "re": [1]}, "A": [{"n": 1, "re": [1]}]}
            )

    def test_quad_helpers(self):
        inst = example_3_7()
        x = np.array([math.sqrt(2.0), math.sqrt(2.0), 0.0, math.sqrt(3.0)])
        vals = sdp.constraint_values(inst, x)
        assert np.all(vals >= 1.0 - 1e-12)
        assert sdp.objective_value(inst, x) == pytest.approx(3.0)

    def test_quad_complex_embedding_agrees(self):
        # z* H z equals xi^T embed(H) xi with xi = (Re z; Im z)
        h = herm(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[0.0, -0.7], [0.7, 0.0]]))
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.COMPLEX, np.stack([h, h]))
        z = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        xi = np.concatenate([z.real, z.imag])
        want = xi @ embed(h) @ xi
        assert sdp.constraint_values(inst, z)[0] == pytest.approx(want, rel=1e-12)
        assert sdp.objective_value(inst, z) == pytest.approx(want, rel=1e-12)


def _assert_one_stored_form(inst):
    """field_stack, objective and constraints agree and none of them can be written."""
    stack = inst.field_stack
    assert stack.shape == (inst.m + 2, inst.n, inst.n) and not stack.flags.writeable
    assert isinstance(inst.constraints, tuple) and len(inst.constraints) == inst.m + 1
    for k, mat in enumerate((inst.objective, *inst.constraints)):
        assert np.array_equal(mat.a, stack[k])
        with pytest.raises(ValueError, match="read-only"):
            mat.a[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.field_stack = stack.copy()


class TestStoredStack:
    @pytest.mark.parametrize("field", sdp.FIELDS)
    def test_hand_built_json_and_generated_agree(self, field):
        hand = random_instance(field, n=4, p=5, seed=2)
        back = sdp.QcqpInstance.from_json_dict(json.loads(json.dumps(hand.to_json_dict())))
        gen = generate(
            GeneratorSpec(
                n=4, m=4, case=CASE_A, sense=sdp.MAXIMIZE, objective_kind=OBJECTIVE_INDEFINITE,
                seed=2, field=field,
            )
        )
        for inst in (hand, back, gen):
            _assert_one_stored_form(inst)
        assert back.field_stack.tobytes() == hand.field_stack.tobytes()
        assert back.tags == hand.tags
        again = sdp.QcqpInstance.from_json_dict(gen.to_json_dict())
        assert again.field_stack.tobytes() == gen.field_stack.tobytes()

    @pytest.mark.parametrize("field", sdp.FIELDS)
    def test_constructor_holds_its_own_copy(self, field):
        inst = random_instance(field, n=3, p=4, seed=5)
        source = np.array(inst.field_stack)
        same = sdp.QcqpInstance(inst.sense, field, source)
        assert same.field_stack.tobytes() == inst.field_stack.tobytes()
        assert same.tags == inst.tags
        source[1] = 0.0  # the instance holds its own copy
        assert same.field_stack.tobytes() == inst.field_stack.tobytes()

    def test_stack_validation(self):
        eye = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(TypeError):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, eye.astype(complex))
        with pytest.raises(ValueError, match="sense"):
            sdp.QcqpInstance("Min", sdp.REAL, eye)
        with pytest.raises(ValueError, match="field"):
            sdp.QcqpInstance(sdp.MINIMIZE, "Quaternion", eye)
        with pytest.raises(ValueError, match="constraint"):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, eye[:1])
        with pytest.raises(ValueError, match="stack"):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.ones((2, 2, 3)))
        bad = eye.copy()
        bad[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, bad)
        bad = eye.copy()
        bad[1, 0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, bad)
        with pytest.raises(ValueError, match="symmetric"):
            sdp.QcqpInstance(sdp.MINIMIZE, sdp.COMPLEX, eye + 0.5j)


def random_instance(field, n=3, p=3, seed=0):
    rng = np.random.default_rng(seed)

    def draw():
        a = rng.standard_normal((n, n))
        if field == sdp.REAL:
            return sym(a)
        return herm(a, rng.standard_normal((n, n)))

    return sdp.QcqpInstance(sdp.MINIMIZE, field, np.stack([draw(), *(draw() for _ in range(p))]))


class TestFieldViews:
    @pytest.mark.parametrize("field", sdp.FIELDS)
    def test_views_match_each_matrix(self, field):
        inst = random_instance(field)
        mats = (inst.objective, *inst.constraints)
        C, A = inst.field_view
        for mat, f in zip(mats, (C, *A)):
            assert np.array_equal(f, mat.to_complex() if field == sdp.COMPLEX else mat.a)
        assert A.shape == (inst.m + 1, inst.n, inst.n)
        assert np.iscomplexobj(A) == (field == sdp.COMPLEX)
        assert not A.flags.writeable and not C.flags.writeable

    @pytest.mark.parametrize("field", sdp.FIELDS)
    def test_views_are_built_once(self, field):
        inst = random_instance(field)
        assert inst.field_view is inst.field_view

    @pytest.mark.parametrize("field", sdp.FIELDS)
    def test_constraint_values_match_each_matrix(self, field):
        # the stacked product against x* A_k x matrix by matrix
        inst = random_instance(field, n=5, p=7, seed=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(5) + (1j * rng.standard_normal(5) if field == sdp.COMPLEX else 0.0)
        got = sdp.constraint_values(inst, x)
        want = [np.real(np.conj(x) @ (h.a @ x)) for h in inst.constraints]
        assert got.dtype == np.float64 and got.shape == (7,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_constraint_values_on_vector_and_embedding(self):
        # a report carries a complex point as (Re; Im); read back, it has the
        # point's values, which are those of the real embedding
        inst = random_instance(sdp.COMPLEX, n=4, p=5, seed=3)
        rng = np.random.default_rng(4)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        xi = np.array(sdp.real_point(z))
        assert np.array_equal(xi, np.concatenate([z.real, z.imag]))
        assert np.array_equal(field_point(inst, xi), z)
        want = [xi @ embed(h.a) @ xi for h in inst.constraints]
        np.testing.assert_allclose(sdp.constraint_values(inst, z), want, rtol=1e-12)
        x = np.array([1.0, -2.0, 0.5])
        assert sdp.real_point(x) == (1.0, -2.0, 0.5)


class TestBuildRelaxation:
    """The relaxation each instance is solved as: its own stack, with one slack sign per sense."""

    def test_trivial_min(self):
        # Tr(X) >= 1: with the other slack sign the minimum would be 0
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([sym(np.eye(2)), sym(np.eye(2))]))
        sol = sdp.solve_instance(inst)
        assert sol.status == sdp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)

    def test_max_slack_sign(self):
        # every Tr(A_k X) <= 1: with the other slack sign the maximum would be unbounded
        inst = example_4_3(10.0)
        sol = sdp.solve_instance(inst)
        assert sol.status == sdp.OPTIMAL
        traces = np.tensordot(inst.field_view.A, sol.X.a, 2)
        assert traces.max() == pytest.approx(1.0, abs=1e-7)

    def test_inequality_encoding(self):
        # first row of the M=10 relaxation reads M*X12 + X22 against rhs 1
        A = example_4_3(10.0).field_view.A
        X = np.array([[0.5, 0.2], [0.2, 0.3]])
        assert float(np.tensordot(A[0], X, 2)) == pytest.approx(10.0 * 0.2 + 0.3)

    def test_complex_relaxation_is_native(self):
        h = herm(np.eye(2), np.array([[0.0, -0.5], [0.5, 0.0]]))
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.COMPLEX, np.stack([h, h]))
        assert inst.field_view.A.shape == (1, 2, 2) and np.array_equal(inst.field_view.A[0], h)
        sol = sdp.solve_instance(inst)
        assert sol.status == sdp.OPTIMAL and sol.n == 2
        assert np.iscomplexobj(sol.X.a) and sol.X.a.shape == (2, 2)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)


class TestSolve:
    def test_identity_m0(self):
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([sym(np.eye(3)), sym(np.eye(3))]))
        sol = sdp.solve_instance(inst)
        assert sol.status == sdp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)

    def test_gap_example_zero_optimum(self):
        sol = sdp.solve_instance(example_3_7())
        assert sol.status == sdp.OPTIMAL
        assert abs(sol.objective_value) <= 1e-7
        # diag(4,4,1,0) is feasible, so the optimum cannot exceed 0 by duality
        feas = np.diag([4.0, 4.0, 1.0, 0.0])
        inst = example_3_7()
        for a in inst.constraints:
            assert float(np.tensordot(a.a, feas, 2)) >= 1.0 - 1e-12

    @pytest.mark.parametrize("M", [10.0, 100.0])
    def test_coupled_max_example(self, M):
        sol = sdp.solve_instance(example_4_3(M))
        assert sol.status == sdp.OPTIMAL
        assert 1.0 + 1.0 / M - 1e-6 <= sol.objective_value <= 1.0 + 2.0 / M + 1e-6
        assert sol.primal_residual <= 1e-7 and sol.dual_residual <= 1e-7
        assert sol.gap <= 1e-7
        assert min(sol.dual_multipliers) >= 0.0

    def test_unbounded_with_ray(self):
        sol = sdp.solve_instance(example_4_4())
        assert sol.status == sdp.UNBOUNDED
        assert sol.objective_value == math.inf
        D = sol.ray.a
        inst = example_4_4()
        assert np.linalg.eigvalsh(D)[0] >= -1e-9
        assert float(np.tensordot(inst.objective.a, D, 2)) > 0.0
        for a in inst.constraints:
            assert float(np.tensordot(a.a, D, 2)) <= 1e-8

    @pytest.mark.parametrize("M", [1.0, 10.0, 100.0])
    def test_coupling_min_relaxation_value(self, M):
        # averaging the paired constraints forces X11 >= 1 on top of X22 >= 1
        sol = sdp.solve_instance(coupling_min_instance(M))
        assert sol.status == sdp.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)

    def test_infeasible_certificate(self):
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([sym(np.eye(3)), sym(-np.eye(3))]))
        sol = sdp.solve_instance(inst)
        assert sol.status == sdp.INFEASIBLE
        assert sol.objective_value == math.inf
        y = np.array(sol.infeasibility_certificate)
        assert y @ np.ones(1) > 0.0
        # sum_k y_k A_k must be NSD for a valid certificate
        S = y[0] * -np.eye(3)
        assert np.linalg.eigvalsh(S)[-1] <= 1e-9

    def test_objective_scaling_invariance(self):
        inst = example_4_3(10.0)
        base = sdp.solve_instance(inst)
        scaled = sdp.QcqpInstance(inst.sense, inst.field, np.stack([
            5.0 * inst.field_view.C,
            *inst.field_view.A,
        ]))
        sol5 = sdp.solve_instance(scaled)
        assert sol5.objective_value == pytest.approx(5.0 * base.objective_value, rel=1e-7)
        assert np.allclose(sol5.X.a, base.X.a, atol=1e-6)

    def test_matches_clarabel_on_random_instances(self):
        pytest.importorskip("cvxpy")
        rng = np.random.default_rng(7)
        solved = 0
        for trial in range(24):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 9))
            sense = sdp.MAXIMIZE if trial % 2 else sdp.MINIMIZE
            inst = random_real_instance(rng, n, m, sense)
            sol = sdp.solve_instance(inst)
            ref_status, ref = clarabel_value(inst)
            if sol.status == sdp.OPTIMAL:
                assert ref_status in ("optimal", "optimal_inaccurate")
                assert sol.objective_value == pytest.approx(ref, rel=2e-6, abs=2e-6)
                assert np.linalg.eigvalsh(sol.X.a)[0] >= -1e-8
                assert sol.gap <= 1e-7
                # weak duality: multipliers certify a bound on the other side
                solved += 1
            elif sol.status == sdp.INFEASIBLE:
                assert ref_status in ("infeasible", "infeasible_inaccurate")
            elif sol.status == sdp.UNBOUNDED:
                assert ref_status in ("unbounded", "unbounded_inaccurate")
        assert solved >= 10

    def test_complex_solve_matches_clarabel(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(11)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            re = rng.standard_normal((n, n))
            im = rng.standard_normal((n, n))
            A0 = herm(re @ re.T + n * np.eye(n), im - im.T)
            inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.COMPLEX, np.stack([
                herm(np.eye(n), np.zeros((n, n))),
                A0,
            ]))
            sol = sdp.solve_instance(inst)
            assert sol.status == sdp.OPTIMAL
            X = cp.Variable((n, n), hermitian=True)
            pr = cp.Problem(
                cp.Minimize(cp.real(cp.trace(X))),
                [X >> 0, cp.real(cp.trace(A0 @ X)) >= 1],
            )
            pr.solve(solver=cp.CLARABEL)
            assert sol.objective_value == pytest.approx(pr.value, rel=1e-6, abs=1e-8)

    def test_solution_json(self):
        sol = sdp.solve_instance(example_4_3(10.0))
        d = sol.to_report_dict()
        assert d["status"] == "optimal"
        assert isinstance(d["objective_value"], float)
        unb = sdp.solve_instance(example_4_4()).to_report_dict()
        assert unb["status"] == "unbounded"
        assert unb["objective_value"] == "inf"
        assert unb["ray"] is not None

    def test_infeasible_solution_json(self):
        # min |x|^2 subject to -|x|^2 >= 1 and x_1^2 >= 1, whose Farkas certificate hqopt solve prints
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([np.eye(2), -np.eye(2), np.diag([1.0, 0.0])]))
        sol = sdp.solve_instance(inst)
        assert sol.status == sdp.INFEASIBLE
        d = sol.to_report_dict()
        # the SdpSolution field order, which the README lists
        assert list(d) == [
            "status", "objective_value", "dual_multipliers", "X", "dual_slack", "primal_residual",
            "dual_residual", "gap", "iterations", "ray", "infeasibility_certificate", "field", "n",
            "message",
        ]
        assert d["status"] == "infeasible" and d["field"] == "real"
        assert d["X"] is None and d["ray"] is None
        assert d["objective_value"] == "inf"
        assert d["primal_residual"] is None and d["gap"] is None
        assert d["infeasibility_certificate"] == list(sol.infeasibility_certificate)
        assert d["dual_multipliers"] == list(sol.dual_multipliers)
        assert d["dual_slack"] == matrix_to_json(sol.dual_slack.a)

    @pytest.mark.parametrize(
        "sense, objective_kind",
        [(sdp.MINIMIZE, OBJECTIVE_IDENTITY), (sdp.MAXIMIZE, OBJECTIVE_INDEFINITE)],
    )
    def test_complex_optimum_is_hermitian(self, sense, objective_kind):
        spec = GeneratorSpec(
            n=6, m=5, case=CASE_A, sense=sense, objective_kind=objective_kind,
            seed=3, field=sdp.COMPLEX,
        )
        inst = generate(spec)
        sol = sdp.solve_instance(inst)
        assert sol.status == sdp.OPTIMAL
        assert np.iscomplexobj(sol.X.a) and np.iscomplexobj(sol.dual_slack.a)
        X = sol.X.a
        assert X.shape == (6, 6) and np.array_equal(X, np.conj(X.T))
        assert np.linalg.eigvalsh(X)[0] >= -sdp.PSD_TOL
        C, A = inst.field_view
        assert np.real(np.trace(C @ X)) == pytest.approx(sol.objective_value, rel=1e-8)
        traces = np.real(np.trace(A @ X, axis1=1, axis2=2))
        slack = traces - 1.0 if sense == sdp.MINIMIZE else 1.0 - traces
        assert np.all(slack >= -1e-7)
        assert sol.to_report_dict()["X"]["n"] == 6

    @pytest.mark.parametrize("sense", sdp.SENSES)
    @pytest.mark.parametrize("case", CASES)
    def test_complex_relaxation_matches_the_real_embedding(self, case, sense):
        # the reference: the same relaxation in the real 2n embedding, whose
        # traces double, so its constraints are halved and its optimum is halved
        kind = OBJECTIVE_IDENTITY if sense == sdp.MINIMIZE else OBJECTIVE_INDEFINITE
        insts = [
            generate(GeneratorSpec(n=10, m=m, case=case, sense=sense, objective_kind=kind,
                                   seed=0, field=sdp.COMPLEX))
            for m in (5, 30, 100)
        ]
        sign = 1.0 if sense == sdp.MAXIMIZE else -1.0
        for inst, sol in zip(insts, sdp.solve_instances(insts)):
            C, A = inst.field_view
            ref = _ipm.solve_conic(embed(C)[None], (0.5 * embed(A))[None], [sign])[0]
            assert sol.status == ref["status"], inst.m
            if ref["status"] == sdp.OPTIMAL:
                assert sol.objective_value == pytest.approx(0.5 * ref["objective_value"], rel=1e-7)

    @pytest.mark.parametrize("sense", sdp.SENSES)
    @pytest.mark.parametrize("case", CASES)
    def test_real_instance_solved_in_the_complex_field_matches(self, case, sense):
        # a real instance is also a complex one with the same relaxation value:
        # Re X is feasible with the same traces; this runs the complex path of
        # the interior-point core against the real one
        kind = OBJECTIVE_IDENTITY if sense == sdp.MINIMIZE else OBJECTIVE_INDEFINITE
        insts = [generate(GeneratorSpec(n=10, m=m, case=case, sense=sense, objective_kind=kind, seed=seed))
                 for seed in (0, 1, 2) for m in (5, 30)]
        as_complex = [sdp.QcqpInstance(inst.sense, sdp.COMPLEX, inst.field_stack.astype(complex))
                      for inst in insts]
        for inst, real, cplx in zip(insts, sdp.solve_instances(insts), sdp.solve_instances(as_complex)):
            assert cplx.status == real.status, inst.m
            if real.status == sdp.OPTIMAL:
                assert cplx.objective_value == pytest.approx(real.objective_value, rel=1e-7)


@pytest.fixture
def ipm_calls(monkeypatch):
    """Counts calls into the interior-point core."""
    calls = []
    real = _ipm.solve_conic

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_ipm, "solve_conic", counting)
    return calls


def recheck_slater(inst, rep):
    """Verify a SlaterReport's certificate, witness or bound by eigenvalues of the instance's own data."""
    A = inst.field_view.A
    if not rep.dual_slater and rep.certificate == () and rep.witness is None:
        # the probe's no: t bounds lambda_min of every combination on the simplex
        for mu in np.random.default_rng(0).dirichlet(np.ones(len(A)), size=20):
            assert np.linalg.eigvalsh(np.tensordot(mu, A, 1))[0] <= rep.t + 1e-9
        assert rep.indeterminate == (rep.t > sdp._SLATER_TOL)
        return
    if rep.dual_slater or rep.witness is None:
        mu = np.array(rep.certificate)
        assert np.all(mu >= 0.0) and mu.sum() == pytest.approx(1.0)
        t = np.linalg.eigvalsh(np.tensordot(mu, A, 1))[0]
        assert t == pytest.approx(rep.t, rel=1e-9, abs=1e-12)
        assert (t > sdp._SLATER_TOL) == rep.dual_slater
        return
    x = field_point(inst, rep.witness)
    assert rep.certificate == ()
    assert np.linalg.norm(x) == pytest.approx(1.0)
    values = sdp.constraint_values(inst, x)
    assert values.max() == pytest.approx(rep.t, rel=1e-9, abs=1e-12)
    assert rep.t <= sdp._SLATER_TOL
    # x bounds lambda_min of every combination on the simplex
    for mu in np.random.default_rng(0).dirichlet(np.ones(len(A)), size=20):
        assert np.linalg.eigvalsh(np.tensordot(mu, A, 1))[0] <= sdp._SLATER_TOL


def probe_decides(inst):
    """The reference answer: the probe relaxation's decision."""
    return sdp._probe_definite(inst).dual_slater


def rotated_max_instance(field, mats, seed=0):
    """Maximization instance with constraints Q* A_k Q, Q a random orthogonal (unitary) matrix."""
    rng = np.random.default_rng(seed)
    n = len(mats[0])
    G = rng.standard_normal((n, n))
    if field == sdp.COMPLEX:
        G = G + 1j * rng.standard_normal((n, n))
    Q = np.linalg.qr(G)[0]
    cons = tuple(hermitian_part(np.conj(Q.T) @ np.asarray(a, float) @ Q) for a in mats)
    return sdp.QcqpInstance(sdp.MAXIMIZE, field, np.stack([np.eye(n), *cons]))


E1, E2 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
# with P = E1 + E2, ker P = e3 and A_j restricted to it is 1 > 0: A_j + s P > 0 for s > 5
FINSLER_YES = [E1, E2, [[-1.0, 0.0, 2.0], [0.0, -1.0, 0.0], [2.0, 0.0, 1.0]]]
# A_j restricted to ker P is -1
FINSLER_NO = [E1, E2, np.diag([1.0, 1.0, -1.0])]
PSD_SINGULAR = [E1, E2]


class TestSlater:
    def test_identity_alone(self):
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([sym(np.eye(2)), sym(np.eye(2))]))
        rep = sdp.slater_check(inst)
        assert rep.dual_slater
        assert rep.certificate == pytest.approx((1.0,))
        assert rep.t == pytest.approx(1.0, abs=1e-6)

    def test_coupled_max_example_against_grid(self):
        inst = example_4_3(10.0)
        rep = sdp.slater_check(inst)
        assert rep.dual_slater
        # independent oracle: best lambda_min over a simplex grid
        mats = [a.a for a in inst.constraints]
        best = -np.inf
        ticks = np.linspace(0.0, 1.0, 41)
        for u in ticks:
            for v in ticks:
                if u + v > 1.0 + 1e-12:
                    continue
                S = u * mats[0] + v * mats[1] + (1.0 - u - v) * mats[2]
                best = max(best, float(np.linalg.eigvalsh(S)[0]))
        assert best > 1e-9
        assert rep.t >= best - 1e-2

    def test_unbounded_example_fails(self):
        rep = sdp.slater_check(example_4_4())
        assert not rep.dual_slater
        assert not rep.indeterminate

    def test_negative_probe(self, ipm_calls):
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.REAL, np.stack([sym(np.eye(2)), sym(-np.eye(2))]))
        rep = sdp.slater_check(inst)
        assert not rep.dual_slater
        assert rep.certificate == () and rep.t == pytest.approx(-1.0)
        recheck_slater(inst, rep)
        assert len(ipm_calls) == 0

    def test_complex_probe(self):
        h = herm(np.eye(2), np.zeros((2, 2)))
        inst = sdp.QcqpInstance(sdp.MINIMIZE, sdp.COMPLEX, np.stack([h, h]))
        rep = sdp.slater_check(inst)
        assert rep.dual_slater and rep.t == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("field", sdp.FIELDS)
    @pytest.mark.parametrize(
        "mats, dual_slater",
        [(FINSLER_YES, True), (FINSLER_NO, False), (PSD_SINGULAR, False)],
        ids=["finsler-yes", "finsler-no", "psd-singular"],
    )
    def test_closed_form_outcomes(self, ipm_calls, field, mats, dual_slater):
        inst = rotated_max_instance(field, mats)
        rep = sdp.slater_check(inst)
        assert rep.dual_slater == dual_slater
        assert (rep.witness is None) == dual_slater
        recheck_slater(inst, rep)
        assert len(ipm_calls) == 0
        assert probe_decides(inst) == dual_slater

    @pytest.mark.parametrize("inst, dual_slater", [(example_4_3(10.0), True), (example_4_4(), False)])
    def test_two_indefinite_runs_one_probe(self, ipm_calls, inst, dual_slater):
        rep = sdp.slater_check(inst)
        assert len(ipm_calls) == 1
        assert rep.dual_slater == dual_slater and rep.witness is None
        recheck_slater(inst, rep)

    def test_probe_bound_at_the_tolerance_is_indeterminate(self, ipm_calls):
        # uniform mu gives lambda_min 0.95e-9 <= tol, but the kernel candidate e1
        # has x*A_0 x = 1.9e-9 > tol, so neither closed-form answer holds; the
        # best lambda_min is 1.9e-9 at mu = (1, 0), too close to tol for the
        # probe's primal bound (max_k Tr(A_k D), at least 1.9e-9) to tell, so
        # its no is indeterminate
        A0, A1 = sym(np.diag([1.9e-9, 1.0])), sym(np.diag([0.0, 1.0]))
        inst = sdp.QcqpInstance(sdp.MAXIMIZE, sdp.REAL, np.stack([sym(np.eye(2)), A0, A1]))
        rep = sdp.slater_check(inst)
        assert len(ipm_calls) == 1 and rep.witness is None
        assert not rep.dual_slater and rep.indeterminate and rep.certificate == ()
        assert rep.t == pytest.approx(2.87e-9, rel=1e-2)
        recheck_slater(inst, rep)

    def test_probe_decides_a_near_singular_aggregate(self, ipm_calls):
        # GaussianMax, cases A-D, m = 10, 20 instances per m, root seed 0: the
        # case D row with instance seed 1910532901 has a best lambda_min near
        # zero, on which the unshifted probe failed and the row lost its point
        config = ExperimentConfig(cases=(CASE_A, CASE_B, CASE_C, CASE_D), m_list=(10,),
                                  instances_per_m=20, root_seed=0, scheme=GAUSSIAN_MAX)
        record = run_single(config, CASE_D, 3, 10, 6)
        assert record.instance_seed == 1910532901
        assert record.solve_status == sdp.OPTIMAL
        assert record.empirical_ratio == pytest.approx(1.0, abs=1e-6)
        assert len(ipm_calls) == 2  # the relaxation, then the probe

    def test_failed_probe_is_indeterminate(self, monkeypatch):
        def failing(insts):
            return [sdp.SdpSolution(status=sdp.NUMERICAL_FAILURE, iterations=200, field=i.field, n=i.n,
                                    message="iteration cap reached") for i in insts]

        monkeypatch.setattr(sdp, "solve_instances", failing)
        rep = sdp.slater_check(example_4_3(10.0))
        assert not rep.dual_slater and rep.indeterminate
        assert rep.certificate == () and rep.witness is None and rep.t == math.inf

    @pytest.mark.parametrize("field", sdp.FIELDS)
    @pytest.mark.parametrize("case", CASES)
    def test_generated_max_instances_agree_with_probe(self, ipm_calls, case, field):
        for n, m in [(6, 5), (6, 30), (10, 5), (10, 30), (10, 100)]:
            spec = GeneratorSpec(n=n, m=m, case=case, sense=sdp.MAXIMIZE,
                                 objective_kind=OBJECTIVE_IDENTITY, seed=n + m, field=field)
            inst = generate(spec)
            rep = sdp.slater_check(inst)
            recheck_slater(inst, rep)
            assert len(ipm_calls) == 0, (n, m)
            if m < 100:
                assert probe_decides(inst) == rep.dual_slater, (n, m)
                ipm_calls.clear()
