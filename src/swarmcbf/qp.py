"""Handcrafted pairwise barrier for the planar double integrator and
centralized/decentralized QP safety filters.  The centralized filter's
joint problem goes to an exact dense solver, the dual active-set method
of Goldfarb & Idnani; the decentralized filter's per-agent 2-variable
problems are solved exactly in one vectorized batch.

Pair barrier between states x1, x2 (layout [px, py, vx, vy]):

    h = 2 dpx dvx + 2 dpy dvy + (dpx^2 + dpy^2 - 4 r^2)

whose time derivative is affine in the two accelerations:

    hdot = 2 |dv|^2 + 2 dp.dv + 2 dp.(a1 - a2)
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .world import pairs_within


def pair_h(x1: np.ndarray, x2: np.ndarray, r: float) -> np.ndarray:
    """h of the pairs (x1, x2), states (..., 4)."""
    x1, x2 = np.asarray(x1, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    dp, dv = x1[..., :2] - x2[..., :2], x1[..., 2:4] - x2[..., 2:4]
    return 2.0 * (dp * dv).sum(-1) + (dp * dp).sum(-1) - 4.0 * r * r


def pair_hdot_coeffs(x1: np.ndarray, x2: np.ndarray):
    """Affine split hdot = const + c1.a1 + c2.a2 of the pairs (x1, x2)."""
    x1, x2 = np.asarray(x1, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    dp, dv = x1[..., :2] - x2[..., :2], x1[..., 2:4] - x2[..., 2:4]
    return 2.0 * (dv * dv).sum(-1) + 2.0 * (dp * dv).sum(-1), 2.0 * dp, -2.0 * dp


@dataclass
class QpProblem:
    """min |u - center|^2  s.t.  A u >= b,  lb <= u <= ub."""
    center: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def full_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """All inequalities in A u >= b form, bounds folded in."""
        n = self.center.shape[0]
        rows = [np.atleast_2d(self.A)] if self.A.size else []
        rhs = [np.atleast_1d(self.b)] if self.b.size else []
        eye = np.eye(n)
        if self.lb is not None:
            rows.append(eye)
            rhs.append(np.asarray(self.lb, dtype=np.float64))
        if self.ub is not None:
            rows.append(-eye)
            rhs.append(-np.asarray(self.ub, dtype=np.float64))
        if not rows:
            return np.zeros((0, n)), np.zeros(0)
        return np.concatenate(rows, axis=0), np.concatenate(rhs)

    def p_diag(self) -> np.ndarray:
        """Diagonal of the Hessian of the objective."""
        return np.full(self.center.shape, 2.0)


@dataclass
class QpResult:
    u: np.ndarray
    status: str                 # "optimal" | "infeasible"
    iterations: int
    kkt_residual: float
    lam: np.ndarray             # multipliers for the folded rows


def kkt_residual(problem: QpProblem, u: np.ndarray, lam: np.ndarray) -> float:
    """Max of stationarity, primal/dual feasibility, and complementarity."""
    A, b = problem.full_rows()
    p = problem.p_diag()
    c = p * problem.center
    stat = p * u - c - (A.T @ lam if A.size else 0.0)
    res = float(np.max(np.abs(stat))) if np.size(stat) else 0.0
    if A.size:
        slack = A @ u - b
        res = max(res, float(max(0.0, -slack.min())))
        res = max(res, float(max(0.0, -lam.min())))
        res = max(res, float(np.max(np.abs(lam * slack))))
    return res


# Steps (one row added or dropped each) after which solve_qp gives up; the
# dual active-set method ends in finitely many, so only rounding reaches it.
MAX_STEPS = 10_000


def solve_qp(problem: QpProblem, tol: float = 1e-8) -> QpResult:
    """Dual active-set method of Goldfarb & Idnani (Math. Programming 27,
    1983).  Start at the unconstrained minimum `center`; while a row is
    violated by more than tol times its norm, add the most violated one q
    by moving u and the multipliers together so that the active rows stay
    met.  Over the k active rows N that move is the k x k solve
    (N P^-1 N^T) r = N P^-1 n_q, as P is diagonal, and it stops at the
    first of: q met (the full step, q joins), or an active multiplier
    reaching 0 (the partial step, that row leaves).  Neither existing means
    no point meets the rows, so the problem is infeasible; so is any
    non-finite input.  "optimal" is decided by the final KKT check."""
    A, b = problem.full_rows()
    pinv = 1.0 / problem.p_diag()
    u = np.array(problem.center, dtype=np.float64)
    lam = np.zeros(A.shape[0])
    if not (np.isfinite(u).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        return QpResult(u, "infeasible", 0, np.inf, lam)
    slack_tol = tol * np.sqrt((A * A).sum(1))
    active: list[int] = []
    q = -1
    for it in range(1, MAX_STEPS + 1):
        if q < 0:
            viol = b - A @ u - slack_tol
            if not viol.size or viol.max() <= 0.0:
                res = kkt_residual(problem, u, lam)
                status = "optimal" if res <= max(tol, 1e-7) else "infeasible"
                return QpResult(u, status, it, res, lam)
            q = int(np.argmax(viol))
        n, N = A[q], A[active]
        r = np.linalg.solve((N * pinv) @ N.T, (N * pinv) @ n)
        z = pinv * (n - N.T @ r)
        # full step: q met; none when n_q lies in the span of the active rows
        zn = z @ n
        t_full = (b[q] - n @ u) / zn if zn > 1e-12 * (n @ (pinv * n)) else np.inf
        # partial step: the first active multiplier to reach 0
        pos = np.flatnonzero(r > 0.0)
        ratios = lam[active][pos] / r[pos]
        t_part = ratios.min(initial=np.inf)
        t = min(t_full, t_part)
        if t == np.inf:
            return QpResult(u, "infeasible", it, np.inf, lam)
        if t_full < np.inf:
            u = u + t * z
        lam[active] -= t * r
        lam[q] += t
        if t_full <= t_part:
            active.append(q)
            q = -1
        else:
            drop = active.pop(int(pos[np.argmin(ratios)]))
            lam[drop] = 0.0
    return QpResult(u, "infeasible", MAX_STEPS, np.inf, lam)


def solve_qp2_batch(center: np.ndarray, A: np.ndarray, b: np.ndarray,
                    bound: float, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Exact solve of K problems min |u - center_k|^2 s.t. A_k u >= b_k,
    |u| <= bound at once: center (K, 2), A (K, M, 2), b (K, M), zero rows
    with b = 0 pad, and a row is met within tol of its half-plane.  The
    optimum is the clipped center, the projection of the center onto a line
    it violates, or such a line's crossing with another: the candidate
    nearest the center that meets every row.  An empty polygon leaves none.
    Returns (u, solved), with the clipped center where unsolved."""
    center = np.asarray(center, dtype=np.float64)
    box = np.broadcast_to([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                          (center.shape[0], 4, 2))
    A = np.concatenate([np.asarray(A, dtype=np.float64), box], axis=1)
    b = np.concatenate([np.asarray(b, dtype=np.float64), np.full(box.shape[:2], -bound)], 1)
    slack_tol = -tol * np.sqrt((A * A).sum(-1))[:, None]

    def meets(points):    # (K, C, 2) -> (K, C): every row of the current A, b met
        return np.all(points @ A.swapaxes(1, 2) - b[:, None] >= slack_tol, axis=-1)

    u = np.clip(center, -bound, bound)
    solved = meets(u[:, None])[:, 0]
    todo = np.flatnonzero(~solved)
    if todo.size == 0:
        return u, solved
    A, b, slack_tol, c = A[todo], b[todo], slack_tol[todo], center[todo]
    violated = (A * c[:, None]).sum(-1) < b
    k = np.arange(todo.size)
    # every row each center violates (a non-finite center violates none)
    first = np.argsort(~violated, axis=1, kind="stable")[:, :max(violated.sum(1).max(), 1)]
    Aj, bj = A[k[:, None], first], b[k[:, None], first]     # (K, V, 2), (K, V)
    with np.errstate(all="ignore"):
        proj = c[:, None] + ((bj - (Aj * c[:, None]).sum(-1))
                             / (Aj * Aj).sum(-1))[..., None] * Aj
        Aj, bj, Ak, bk = Aj[:, :, None], bj[:, :, None], A[:, None], b[:, None]
        det = Aj[..., 0] * Ak[..., 1] - Aj[..., 1] * Ak[..., 0]   # (K, V, M)
        cross = np.stack([bj * Ak[..., 1] - bk * Aj[..., 1],
                          Aj[..., 0] * bk - Ak[..., 0] * bj], axis=-1) / det[..., None]
        cand = np.concatenate([proj, cross.reshape(todo.size, -1, 2)], axis=1)
        dist = np.where(meets(cand), ((cand - c[:, None]) ** 2).sum(-1), np.inf)
    best = cand[k, np.argmin(dist, axis=1)]
    found = np.isfinite(dist.min(axis=1))
    u[todo[found]] = np.clip(best[found], -bound, bound)
    solved[todo] = found
    return u, solved


# --- safety filters -------------------------------------------------------

# Discrete-time settings for the handcrafted filters: small alpha reacts
# too slowly to fast pairs first sensed with a negative barrier value,
# large alpha approaches the boundary so closely that the 0.03 s stepping
# overshoots it; the margin keeps the constraint strictly inside the
# boundary to absorb the second-order stepping error.
FILTER_ALPHA_DEFAULT = 5.0
FILTER_MARGIN_DEFAULT = 0.05


@dataclass
class FilterResult:
    controls: np.ndarray          # (N, 2)
    solve_time: float             # seconds: row assembly and solve, pair scan excluded
    fallback: np.ndarray          # (N,) bool, agents served by the clamped nominal
    n_constraints: int
    degenerate_pairs: int = 0


def _check_simplecar(states: np.ndarray, nominals: np.ndarray):
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    nominals = np.atleast_2d(np.asarray(nominals, dtype=np.float64))
    if states.shape[1] != 4 or nominals.shape[1] != 2:
        raise ValueError("filters support the planar double integrator only "
                         "(states (N,4), controls (N,2))")
    return states, nominals


def _pair_rows(states: np.ndarray, i: np.ndarray, j: np.ndarray, r: float,
               alpha: float, margin: float):
    """Rows hdot + alpha h >= margin of the pairs (i, j) as (i, j, agent i's
    coefficients c (agent j's are -c), right-hand side without agent j's
    term, count of pairs dropped: coincident positions make a row vacuous)."""
    const, c, _ = pair_hdot_coeffs(states[i], states[j])
    rhs = margin - const - alpha * pair_h(states[i], states[j], r)
    keep = ~np.all(np.abs(c) <= 1e-8, axis=1)
    return i[keep], j[keep], c[keep], rhs[keep], int(np.count_nonzero(~keep))


def _speed_caps(states: np.ndarray, agents: np.ndarray, speed_bound: float,
                dt: float):
    """Linearized speed limits vhat . a <= (u_M - |v|) / dt, as rows of
    A u >= b for those of the agents that move (returned first).  Without
    them the simulator's post-step speed clamp cancels "accelerate away"
    commands at the cap, and the realized hdot falls short of the model."""
    v = states[agents, 2:4]
    s = np.sqrt((v * v).sum(1))
    moving = ~(s < 1e-9)
    return agents[moving], -v[moving] / s[moving, None], -(speed_bound - s[moving]) / dt


def centralized_filter(states: np.ndarray, nominals: np.ndarray, alpha: float,
                       r: float, R: float, control_bound: float = 10.0,
                       tol: float = 1e-8, margin: float = FILTER_MARGIN_DEFAULT,
                       speed_bound: float = 0.8, dt: float = 0.03
                       ) -> FilterResult:
    """One joint QP over all 2N accelerations with a row per pair within R:
    hdot + alpha h >= margin."""
    states, nominals = _check_simplecar(states, nominals)
    n = states.shape[0]
    qi, pj, _ = pairs_within(states[:, :2], states[:, :2], R)
    upper = qi < pj
    t0 = time.perf_counter()
    qi, pj, c, rhs, degenerate = _pair_rows(states, qi[upper], pj[upper], r, alpha, margin)
    capped, cap, cap_rhs = _speed_caps(states, np.unique(np.concatenate([qi, pj])),
                                       speed_bound, dt)
    A = np.zeros((qi.size + capped.size, n, 2))
    k = np.arange(A.shape[0])
    A[k[:qi.size], qi], A[k[:qi.size], pj], A[k[qi.size:], capped] = c, -c, cap
    problem = QpProblem(nominals.ravel(), A.reshape(len(A), 2 * n), np.concatenate([rhs, cap_rhs]),
                        np.full(2 * n, -control_bound), np.full(2 * n, control_bound))
    out = solve_qp(problem, tol=tol)
    solve_time = time.perf_counter() - t0
    ok = out.status == "optimal"
    controls = out.u.reshape(n, 2) if ok else np.clip(nominals, -control_bound, control_bound)
    return FilterResult(controls, solve_time, np.full(n, not ok), A.shape[0], degenerate)


def decentralized_filter(states: np.ndarray, nominals: np.ndarray, alpha: float,
                         r: float, R: float, control_bound: float = 10.0,
                         tol: float = 1e-8, margin: float = FILTER_MARGIN_DEFAULT,
                         speed_bound: float = 0.8, dt: float = 0.03
                         ) -> FilterResult:
    """Per-agent 2-variable QPs, neighbors assumed to apply their nominal,
    solved together by `solve_qp2_batch` (tol is its row tolerance)."""
    states, nominals = _check_simplecar(states, nominals)
    n = states.shape[0]
    qi, pj, _ = pairs_within(states[:, :2], states[:, :2], R)
    other = qi != pj
    t0 = time.perf_counter()
    qi, pj, c, rhs, degenerate = _pair_rows(states, qi[other], pj[other], r, alpha, margin)
    rhs = rhs + (c * nominals[pj]).sum(1)
    capped, cap, cap_rhs = _speed_caps(states, np.unique(qi), speed_bound, dt)
    # each agent's pair rows in pairs_within order, then its speed cap
    n_pairs = np.bincount(qi, minlength=n)
    slot = np.arange(qi.size) - (np.cumsum(n_pairs) - n_pairs)[qi]
    A = np.zeros((n, n_pairs.max(initial=0) + 1, 2))
    b = np.zeros(A.shape[:2])
    A[qi, slot], b[qi, slot] = c, rhs
    A[capped, n_pairs[capped]], b[capped, n_pairs[capped]] = cap, cap_rhs
    controls, solved = solve_qp2_batch(nominals, A, b, control_bound, tol)
    return FilterResult(controls, time.perf_counter() - t0, ~solved,
                        qi.size + capped.size, degenerate)
