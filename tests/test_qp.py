from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from swarmcbf import qp
from swarmcbf.dynamics import make_model, nominal_control_batch
from swarmcbf.world import generate_scenario, make_scenario_config, pairs_within


def test_pair_h_static_pair():
    assert qp.pair_h([0, 0, 0, 0], [1, 0, 0, 0], 0.05) == pytest.approx(0.99)


def test_pair_h_closing_pair():
    assert qp.pair_h([0, 0, 1, 0], [1, 0, 0, 0], 0.05) == pytest.approx(-1.01)


def test_pair_h_coincident():
    assert qp.pair_h([0, 0, 0, 0], [0, 0, 0, 0], 0.05) == pytest.approx(-0.01)


def test_hdot_coeffs_static():
    const, c1, c2 = qp.pair_hdot_coeffs([0, 0, 0, 0], [1, 0, 0, 0])
    assert const == 0.0
    assert np.allclose(c1, [-2, 0]) and np.allclose(c2, [2, 0])


def test_hdot_coeffs_degenerate_dp_zero():
    const, c1, c2 = qp.pair_hdot_coeffs([0, 0, 1, 0], [0, 0, 0, 0])
    assert np.allclose(c1, 0.0) and np.allclose(c2, 0.0)
    assert const == pytest.approx(2.0)   # 2|dv|^2


def test_hdot_decomposition_example():
    # static pair separated in x: dp=(1,0), a1=(1,0), a2=0 -> hdot = 2
    const, c1, c2 = qp.pair_hdot_coeffs([1, 0, 0, 0], [0, 0, 0, 0])
    hdot = const + c1 @ np.array([1.0, 0.0]) + c2 @ np.zeros(2)
    assert hdot == pytest.approx(2.0)


def test_hdot_coeffs_match_finite_difference():
    """Differentiate pair_h along the dynamics numerically."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        x1 = rng.normal(size=4)
        x2 = rng.normal(size=4)
        a1 = rng.normal(size=2)
        a2 = rng.normal(size=2)
        const, c1, c2 = qp.pair_hdot_coeffs(x1, x2)
        analytic = const + c1 @ a1 + c2 @ a2
        dt = 1e-7

        def advance(x, a):
            return x + dt * np.concatenate([x[2:], a])

        fd = (qp.pair_h(advance(x1, a1), advance(x2, a2), 0.05)
              - qp.pair_h(x1, x2, 0.05)) / dt
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-5)


# --- solver -------------------------------------------------------------------

def _kkt_solve(p, c, Aw, bw):
    """min 1/2 u^T diag(p) u - c^T u with the rows Aw u = bw, by one KKT
    solve (least squares when singular); returns (u, lam, consistent)."""
    n, k = p.shape[0], Aw.shape[0]
    KKT = np.block([[np.diag(p), -Aw.T], [Aw, np.zeros((k, k))]])
    rhs = np.concatenate([c, bw])
    try:
        sol = np.linalg.solve(KKT, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
    u, lam = sol[:n], sol[n:]
    consistent = bool(np.max(np.abs(Aw @ u - bw), initial=0.0)
                      < 1e-7 * (1.0 + np.max(np.abs(bw), initial=0.0)))
    return u, lam, consistent


def brute_force_qp(problem):
    """Independent oracle: enumerate candidate active sets, solve the KKT
    system for each, keep the feasible one with nonnegative multipliers."""
    A, b = problem.full_rows()
    p = problem.p_diag()
    c = p * problem.center
    m = A.shape[0]
    best = None
    for k in range(m + 1):
        for S in combinations(range(m), k):
            S = list(S)
            u, lam, consistent = _kkt_solve(p, c, A[S], b[S])
            if not consistent:
                continue
            if m and (A @ u - b).min() < -1e-9:
                continue
            if lam.size and lam.min() < -1e-9:
                continue
            val = float(np.sum((u - problem.center) ** 2))
            if best is None or val < best[0]:
                best = (val, u)
    return None if best is None else best[1]


def test_no_constraints_returns_center():
    prob = qp.QpProblem(center=np.array([1.0, -2.0]), A=np.zeros((0, 2)),
                        b=np.zeros(0))
    out = qp.solve_qp(prob)
    assert out.status == "optimal"
    assert np.array_equal(out.u, [1.0, -2.0])


def test_single_constraint_projection():
    prob = qp.QpProblem(center=np.array([0.0]), A=np.array([[1.0]]),
                        b=np.array([1.0]))
    out = qp.solve_qp(prob)
    assert out.u[0] == pytest.approx(1.0)
    assert out.kkt_residual < 1e-8


@pytest.mark.parametrize("trial", range(25))
def test_random_qp_against_enumeration_oracle(trial):
    rng = np.random.default_rng(1000 + trial)
    A = rng.normal(size=(3, 4))
    b = rng.normal(size=3) - 1.0
    prob = qp.QpProblem(center=rng.normal(size=4), A=A, b=b)
    ref = brute_force_qp(prob)
    out = qp.solve_qp(prob)
    if ref is None:
        assert out.status == "infeasible"
    else:
        assert out.status == "optimal"
        assert np.allclose(out.u, ref, atol=1e-6)
        assert out.kkt_residual < 1e-8


def test_kkt_verified_on_returned_solutions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.normal(size=(5, 3))
        b = rng.normal(size=5) - 0.5
        prob = qp.QpProblem(center=rng.normal(size=3), A=A, b=b,
                            lb=np.full(3, -10.0), ub=np.full(3, 10.0))
        out = qp.solve_qp(prob)
        if out.status == "optimal":
            assert qp.kkt_residual(prob, out.u, out.lam) < 1e-8


def test_infeasible_detection():
    prob = qp.QpProblem(center=np.array([0.0]), A=np.array([[1.0], [-1.0]]),
                        b=np.array([1.0, 1.0]))
    out = qp.solve_qp(prob)
    assert out.status == "infeasible"


def test_large_problem():
    rng = np.random.default_rng(11)
    n = 100
    A = rng.normal(size=(30, n))
    b = rng.normal(size=30) - 2.0
    prob = qp.QpProblem(center=rng.normal(size=n), A=A, b=b,
                        lb=np.full(n, -10.0), ub=np.full(n, 10.0))
    out = qp.solve_qp(prob)
    assert out.status == "optimal"
    assert out.kkt_residual < 1e-7


# --- filters -------------------------------------------------------------------

def far_apart():
    states = np.array([[0.0, 0, 0, 0], [5.0, 0, 0, 0]])
    nominals = np.array([[1.0, 0.5], [-0.3, 0.2]])
    return states, nominals


def test_centralized_inactive_when_far():
    states, nominals = far_apart()
    out = qp.centralized_filter(states, nominals, 1.0, 0.05, 1.0)
    assert np.array_equal(out.controls, nominals)
    assert out.n_constraints == 0
    assert not out.fallback.any()


def test_decentralized_inactive_when_far():
    states, nominals = far_apart()
    out = qp.decentralized_filter(states, nominals, 1.0, 0.05, 1.0)
    assert np.array_equal(out.controls, nominals)


def test_filter_inactive_with_satisfied_constraints():
    """Neighbors in range but already separating: constraints hold at the
    nominal, so the filter returns it exactly."""
    states = np.array([[0.0, 0, -0.5, 0], [0.8, 0, 0.5, 0]])
    nominals = np.array([[-0.1, 0.0], [0.1, 0.0]])
    out = qp.centralized_filter(states, nominals, 1.0, 0.05, 1.0)
    assert out.n_constraints == 3   # one pair row + a speed-cap row per agent
    assert np.array_equal(out.controls, nominals)


def test_symmetric_head_on_mirrored():
    states = np.array([[-0.2, 0, 0.8, 0], [0.2, 0, -0.8, 0]])
    nominals = np.array([[1.0, 0.0], [-1.0, 0.0]])
    out = qp.centralized_filter(states, nominals, 1.0, 0.05, 1.0)
    assert np.allclose(out.controls[0], -out.controls[1], atol=1e-8)


def test_centralized_enforces_derivative_condition():
    rng = np.random.default_rng(3)
    for _ in range(10):
        states = rng.normal(size=(4, 4)) * 0.3
        nominals = rng.normal(size=(4, 2)) * 2
        out = qp.centralized_filter(states, nominals, 1.0, 0.05, 1.0)
        if out.fallback.any():
            continue
        u = out.controls
        for i in range(4):
            for j in range(i + 1, 4):
                if np.linalg.norm(states[i, :2] - states[j, :2]) > 1.0:
                    continue
                h = qp.pair_h(states[i], states[j], 0.05)
                const, ci, cj = qp.pair_hdot_coeffs(states[i], states[j])
                if np.allclose(ci, 0.0):
                    continue
                hdot = const + ci @ u[i] + cj @ u[j]
                assert hdot + h >= -1e-6


def test_decentralized_isolated_agent_nominal():
    states = np.array([[0.0, 0, 0, 0]])
    nominals = np.array([[0.7, -0.4]])
    out = qp.decentralized_filter(states, nominals, 1.0, 0.05, 1.0)
    assert np.array_equal(out.controls, nominals)


def test_coincident_positions_dropped_and_flagged():
    states = np.array([[0.0, 0, 1, 0], [0.0, 0, -1, 0]])
    nominals = np.zeros((2, 2))
    out = qp.centralized_filter(states, nominals, 1.0, 0.05, 1.0)
    assert out.degenerate_pairs == 1
    assert out.n_constraints == 0


def test_bounds_respected():
    states = np.array([[-0.08, 0, 0.8, 0], [0.08, 0, -0.8, 0]])
    nominals = np.array([[9.9, 0.0], [-9.9, 0.0]])
    out = qp.centralized_filter(states, nominals, 1.0, 0.05, 1.0,
                                control_bound=10.0)
    assert np.all(np.abs(out.controls) <= 10.0 + 1e-9)


# --- batched 2-variable solver and the decentralized filter --------------------

@st.composite
def _qp2_batches(draw):
    """1-3 problems on a half-integer grid, padded into one batch, so that
    zero, duplicate and parallel rows, slack exactly 0, empty polygons and
    centers outside the box are all exact."""
    half = st.integers(-16, 16).map(lambda k: k / 2.0)
    coef = st.integers(-3, 3).map(float)
    problems = []
    for _ in range(draw(st.integers(1, 3))):
        center = np.array([draw(half), draw(half)])
        A = [[draw(coef), draw(coef)] for _ in range(draw(st.integers(0, 4)))]
        b = [draw(half) for _ in A]
        if A and draw(st.booleans()):       # a parallel (or duplicate) copy
            k = draw(st.integers(0, len(A) - 1))
            A.append([draw(st.sampled_from([1.0, 2.0, -1.0])) * a for a in A[k]])
            b.append(draw(half))
        if A and draw(st.booleans()):       # a row through the center
            k = draw(st.integers(0, len(A) - 1))
            b[k] = float(np.dot(A[k], center))
        problems.append((center, np.array(A).reshape(-1, 2), np.array(b)))
    return problems, draw(st.sampled_from([1.0, 2.5, 5.0]))


@given(_qp2_batches())
@settings(max_examples=200, deadline=None)
def test_batched_qp2_matches_enumeration_oracle(case):
    problems, bound = case
    m = max(A.shape[0] for _, A, _ in problems)
    A = np.zeros((len(problems), m, 2))
    b = np.zeros((len(problems), m))
    for k, (_, Ak, bk) in enumerate(problems):
        A[k, :len(bk)], b[k, :len(bk)] = Ak, bk
    u, solved = qp.solve_qp2_batch(np.array([c for c, _, _ in problems]), A, b, bound)
    for k, (center, Ak, bk) in enumerate(problems):
        problem = qp.QpProblem(center, Ak, bk, lb=np.full(2, -bound), ub=np.full(2, bound))
        ref = brute_force_qp(problem)
        dense = qp.solve_qp(problem)
        clipped = np.clip(center, -bound, bound)
        clipped_meets_rows = not Ak.size or (Ak @ clipped - bk).min() >= 0.0
        assert solved[k] == (ref is not None)
        assert (dense.status == "optimal") == (ref is not None)
        if ref is not None:
            assert np.abs(u[k] - ref).max() <= 1e-9
            assert np.abs(dense.u - ref).max() <= 1e-9
            assert np.abs(u[k]).max() <= bound
        if ref is None or clipped_meets_rows:
            assert np.array_equal(u[k], clipped)    # the answer or the fallback


PINNED_CENTER = np.array([10.0, 1.0445155589421666])
PINNED_A = np.array([[-0.35370116035170795, -1.176512741058744],
                     [-0.9303055332694292, 1.2304166872881268],
                     [0.07001056353280109, 0.9975462500525074]])
PINNED_B = np.array([2.600975719453799, -8.138083534211134, -3.700743415417189e-15])


def test_batched_qp2_solves_a_problem_the_dense_solver_calls_infeasible():
    """Step 10, agent 34 of the mdcbf_qp benchmark round at seed 1: the
    nominal, on the box edge, violates one row, and the optimum is that
    row's crossing with a second one near the opposite edge, 19.6 away."""
    center, A, b = PINNED_CENTER, PINNED_A, PINNED_B
    u, solved = qp.solve_qp2_batch(center[None], A[None], b[None], 10.0)
    assert solved[0]
    assert np.abs(u[0] - [-9.59308632, 0.67326941]).max() < 1e-8
    assert (A @ u[0] - b).min() >= -1e-12 and np.abs(u[0]).max() <= 10.0
    ref = minimize(lambda x: ((x - center) ** 2).sum(), np.zeros(2),
                   jac=lambda x: 2.0 * (x - center), method="SLSQP",
                   bounds=[(-10.0, 10.0)] * 2,
                   constraints=[{"type": "ineq", "fun": lambda x: A @ x - b,
                                 "jac": lambda x: A}],
                   options={"ftol": 1e-15, "maxiter": 500}).x
    assert np.abs(u[0] - ref).max() <= 1e-9


def test_dense_solver_solves_the_pinned_problem():
    out = qp.solve_qp(qp.QpProblem(PINNED_CENTER, PINNED_A, PINNED_B,
                                   lb=np.full(2, -10.0), ub=np.full(2, 10.0)))
    assert out.status == "optimal"
    assert np.abs(out.u - [-9.59308632, 0.67326941]).max() < 1e-8
    assert out.kkt_residual < 1e-8


def _per_agent_filter(states, nominals, alpha, r, R, bound=10.0,
                      margin=qp.FILTER_MARGIN_DEFAULT, speed_bound=0.8, dt=0.03):
    """The decentralized filter as a loop: each agent's rows built one
    neighbor at a time and handed to solve_qp."""
    qi, pj, _ = pairs_within(states[:, :2], states[:, :2], R)
    controls, fallback, n_rows = np.zeros_like(nominals), np.zeros(len(states), bool), 0
    for i in range(len(states)):
        rows, rhs = [], []
        for j in pj[(qi == i) & (pj != i)]:
            h = qp.pair_h(states[i], states[j], r)
            const, ci, cj = qp.pair_hdot_coeffs(states[i], states[j])
            if not np.allclose(ci, 0.0):
                rows.append(ci)
                rhs.append(margin - const - alpha * h - cj @ nominals[j])
        s = np.linalg.norm(states[i, 2:4])
        if rows and s >= 1e-9:
            rows.append(-states[i, 2:4] / s)
            rhs.append(-(speed_bound - s) / dt)
        out = qp.solve_qp(qp.QpProblem(nominals[i], np.reshape(rows, (-1, 2)),
                                       np.array(rhs), lb=np.full(2, -bound),
                                       ub=np.full(2, bound)))
        fallback[i] = out.status != "optimal"
        controls[i] = np.clip(nominals[i], -bound, bound) if fallback[i] else out.u
        n_rows += len(rows)
    return controls, fallback, n_rows


def test_decentralized_filter_matches_per_agent_solves():
    car = make_model("SimpleCar")
    cfg = make_scenario_config("SimpleCar", 64, "keep_density", 0)
    scn = generate_scenario(cfg)
    u_nom = nominal_control_batch(car, scn.states, scn.goals)
    out = qp.decentralized_filter(scn.states, u_nom, qp.FILTER_ALPHA_DEFAULT,
                                  cfg.r, cfg.sensing_radius)
    controls, fallback, n_rows = _per_agent_filter(
        scn.states, u_nom, qp.FILTER_ALPHA_DEFAULT, cfg.r, cfg.sensing_radius)
    moved = ~np.all(out.controls == u_nom, axis=1) & ~out.fallback
    assert out.fallback.any() and moved.sum() >= 5      # the state exercises both
    assert np.array_equal(out.fallback, fallback)
    assert out.n_constraints == n_rows
    assert np.abs(out.controls - controls).max() <= 1e-9
    assert np.array_equal(out.controls[~moved], controls[~moved])


def test_centralized_rows_match_per_pair_assembly(monkeypatch):
    """Row order: pairs i < j in pairs_within order, then speed caps in
    agent order; coefficients as the per-pair formulas give them."""
    rng = np.random.default_rng(5)
    states = np.concatenate([rng.uniform(0, 1.5, (12, 2)), rng.normal(0, 0.5, (12, 2))], 1)
    states[3] = states[7] + [0.0, 0.0, 0.1, 0.0]       # a coincident pair
    nominals = rng.normal(0, 2, (12, 2))
    seen = []

    def keep_problem(problem, tol):
        seen.append(problem)
        return qp.QpResult(problem.center, "optimal", 0, 0.0, np.zeros(0))

    monkeypatch.setattr(qp, "solve_qp", keep_problem)
    out = qp.centralized_filter(states, nominals, 5.0, 0.05, 0.6)
    qi, pj, _ = pairs_within(states[:, :2], states[:, :2], 0.6)
    rows, rhs, involved = [], [], []
    for i, j in zip(qi.tolist(), pj.tolist()):
        const, ci, cj = qp.pair_hdot_coeffs(states[i], states[j])
        if i < j and not np.allclose(ci, 0.0):
            row = np.zeros(24)
            row[2 * i:2 * i + 2], row[2 * j:2 * j + 2] = ci, cj
            rows.append(row)
            rhs.append(qp.FILTER_MARGIN_DEFAULT - const - 5.0 * qp.pair_h(states[i], states[j], 0.05))
            involved += [i, j]
    for i in sorted(set(involved)):
        s = np.linalg.norm(states[i, 2:4])
        row = np.zeros(24)
        row[2 * i:2 * i + 2] = -states[i, 2:4] / s
        rows.append(row)
        rhs.append(-(0.8 - s) / 0.03)
    assert out.degenerate_pairs == 1 and out.n_constraints == len(rows)
    assert np.allclose(seen[0].A, rows, rtol=0, atol=1e-12)
    assert np.allclose(seen[0].b, rhs, rtol=0, atol=1e-12)


def test_decentralized_non_finite_nominal_falls_back_alone():
    states = np.array([[0.0, 0, 0, 0], [5.0, 5, 0, 0]])
    nominals = np.array([[np.nan, 0.0], [1.0, 1.0]])
    out = qp.decentralized_filter(states, nominals, 5.0, 0.05, 1.0)
    assert out.fallback.tolist() == [True, False]
    assert np.array_equal(out.controls, nominals, equal_nan=True)


def test_centralized_non_finite_nominal_falls_back():
    states = np.array([[0.0, 0, 0, 0], [5.0, 5, 0, 0], [5.3, 5, 0, 0]])
    nominals = np.array([[np.nan, 0.0], [1.0, 1.0], [np.inf, 20.0]])
    out = qp.centralized_filter(states, nominals, 5.0, 0.05, 1.0)
    assert out.fallback.all()
    assert np.array_equal(out.controls, np.clip(nominals, -10.0, 10.0), equal_nan=True)
