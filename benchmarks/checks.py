"""Checks on the program's outputs, computed apart from the program.

Each check returns a list of failure messages; an empty list is a pass.
Geometry comes from scipy's cKDTree and this file's own distance
formulas, the LQR reference from scipy.linalg.solve_discrete_are, QP
references from scipy.optimize, gradients from central differences.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_discrete_are
from scipy.optimize import minimize
from scipy.spatial import cKDTree

ROUNDING = 1e-12          # relative slack: clamps and KKT solves round at the bound
NOMINAL_TOL = 1e-8
PERMUTATION_TOL = 1e-10
QP_ROW_TOL = 1e-6         # the solvers accept rows violated by <= 1e-7
QP_OPT_TOL = 1e-6
GRAD_REL_TOL = 1e-4
KINK_TOL = GRAD_REL_TOL / 4   # smooth stencils agree at h and h/2 far below this
DEGENERATE = 1e-8         # qp.py drops rows whose coefficients allclose 0


# --- closed loops: collisions, goals, bounds -----------------------------------

def _obstacle_hits(pos: np.ndarray, shapes, centers, sizes, r: float) -> np.ndarray:
    hit = np.zeros(pos.shape[0], dtype=bool)
    for shape, c, size in zip(shapes, centers, sizes):
        if shape == "circle":
            dist = np.sqrt(((pos - c) ** 2).sum(axis=1)) - size[0]
        else:
            out = np.maximum(np.abs(pos - c) - size / 2.0, 0.0)
            dist = np.sqrt((out ** 2).sum(axis=1))
        hit |= dist <= r
    return hit


def recount(steps, scenario) -> tuple[np.ndarray, np.ndarray]:
    """Latched collisions and final goal flags from the kept per-step states,
    with obstacles advanced at their constant velocities."""
    cfg = scenario.config
    n, r = cfg.n_agents, cfg.r
    shapes = [ob.shape for ob in scenario.obstacles]
    centers = [ob.center for ob in scenario.obstacles]
    vels = [ob.velocity for ob in scenario.obstacles]
    sizes = [ob.size for ob in scenario.obstacles]
    collided = np.zeros(n, dtype=bool)
    pos = scenario.states[:, :2]
    for rec in steps:
        centers = [c + cfg.dt * v for c, v in zip(centers, vels)]
        pos = rec["next_states"][:, :2]
        pairs = cKDTree(pos).query_pairs(2.0 * r, output_type="ndarray")
        collided[pairs.ravel()] = True
        collided |= _obstacle_hits(pos, shapes, centers, sizes, r)
    reached = np.sqrt(((pos - scenario.goals) ** 2).sum(axis=1)) < r
    return collided, reached


def check_outcome(steps, scenario, result) -> list[str]:
    collided, reached = recount(steps, scenario)
    bad = []
    if not np.array_equal(collided, result.collided_ever):
        diff = np.nonzero(collided != result.collided_ever)[0]
        bad.append(f"collided_ever differs from the recount for agents {diff[:8].tolist()}")
    if not np.array_equal(reached, result.reached_final):
        diff = np.nonzero(reached != result.reached_final)[0]
        bad.append(f"reached_final differs from the recount for agents {diff[:8].tolist()}")
    if result.steps_used != len(steps):
        bad.append(f"steps_used {result.steps_used} but {len(steps)} world steps ran")
    return bad


def check_bounds(steps, control_bound: float, speed_bound: float) -> list[str]:
    bad = []
    for t, rec in enumerate(steps):
        u = np.asarray(rec["controls"])
        if not np.all(np.abs(u) <= control_bound * (1.0 + ROUNDING)):
            bad.append(f"step {t}: control beyond the bound {control_bound}")
        speed = np.sqrt((rec["next_states"][:, 2:4] ** 2).sum(axis=1))
        if not np.all(speed <= speed_bound * (1.0 + ROUNDING)):
            bad.append(f"step {t}: speed {speed.max():.17g} beyond {speed_bound}")
    return bad


# --- nominal controls ---------------------------------------------------------------

def lqr_gain(dt: float) -> np.ndarray:
    """Discrete LQR gain of the Euler-discretized planar double integrator."""
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = 1.0
    B = np.zeros((4, 2))
    B[2, 0] = B[3, 1] = 1.0
    Ad, Bd = np.eye(4) + dt * A, dt * B
    P = solve_discrete_are(Ad, Bd, np.eye(4), np.eye(2))
    return np.linalg.solve(np.eye(2) + Bd.T @ P @ Bd, Bd.T @ P @ Ad)


def check_nominal(steps, goals, dt: float, control_bound: float,
                  nominal_mask=None) -> list[str]:
    """Agents in nominal mode applied clip(K (x_goal - x)); nominal_mask(t)
    selects them (every agent when None)."""
    K = lqr_gain(dt)
    bad = []
    for t, rec in enumerate(steps):
        x = rec["states"]
        err = -x.copy()
        err[:, :2] += goals
        ref = np.clip(err @ K.T, -control_bound, control_bound)
        sel = slice(None) if nominal_mask is None else nominal_mask(t)
        gap = np.abs(np.asarray(rec["controls"])[sel] - ref[sel])
        if gap.size and gap.max() > NOMINAL_TOL:
            bad.append(f"step {t}: nominal-mode control off the LQR reference by {gap.max():.3g}")
    return bad


# --- learned controller: permutation equivariance ------------------------------

def check_permutation(barrier, graph, rng) -> list[str]:
    """Relabel agents and reorder edges; certificate values must follow."""
    import dataclasses
    from swarmcbf import nets
    n, e = graph.n_agents, graph.n_edges
    perm = rng.permutation(n)            # new agent k is old agent perm[k]
    pos = np.argsort(perm)               # old agent i becomes pos[i]
    order = rng.permutation(e)
    src = graph.edge_src[order]
    g = dataclasses.replace(
        graph, states=graph.states[perm], goals=graph.goals[perm],
        hit_owner=pos[graph.hit_owner], edge_dst=pos[graph.edge_dst[order]],
        edge_src=np.where(src >= 0, pos[np.maximum(src, 0)], -1),
        edge_hit=graph.edge_hit[order], edge_feat=graph.edge_feat[order],
        edge_flag=graph.edge_flag[order])
    h, _ = nets.barrier_values(barrier, graph)
    h_perm, _ = nets.barrier_values(barrier, g)
    gap = np.abs(h_perm[pos] - h).max() if n else 0.0
    if gap > PERMUTATION_TOL:
        return [f"certificate values do not follow an agent permutation (gap {gap:.3g})"]
    return []


# --- scenario generation ------------------------------------------------------------

def check_scenario(scenario) -> list[str]:
    cfg = scenario.config
    bad = []
    for what, pts in (("starts", scenario.states[:, :2]), ("goals", scenario.goals)):
        d, _ = cKDTree(pts).query(pts, k=2)
        if d[:, 1].min() < 4.0 * cfg.r:
            bad.append(f"{what} closer than 4r: {d[:, 1].min():.6g}")
        if pts.min() < 0.0 or pts.max() > cfg.side_length:
            bad.append(f"{what} outside the workspace [0, {cfg.side_length}]")
    return bad


# --- decentralized CBF-QP ---------------------------------------------------------------

def qp_rows(states, nominals, alpha, r, R, margin, speed_bound, dt):
    """Per-agent constraint rows a.c >= rhs, rebuilt from the pair barrier
    h = 2 dp.dv + |dp|^2 - 4r^2 with hdot = 2|dv|^2 + 2 dp.dv + 2 dp.(a_i - a_j)
    and neighbors at their nominal; plus the speed-cap row."""
    pos, vel = states[:, :2], states[:, 2:4]
    pairs = cKDTree(pos).query_pairs(R, output_type="ndarray")
    i = np.concatenate([pairs[:, 0], pairs[:, 1]])
    j = np.concatenate([pairs[:, 1], pairs[:, 0]])
    dp, dv = pos[i] - pos[j], vel[i] - vel[j]
    keep = ~np.all(np.abs(2.0 * dp) <= DEGENERATE, axis=1)
    i, j, dp, dv = i[keep], j[keep], dp[keep], dv[keep]
    h = 2.0 * (dp * dv).sum(1) + (dp * dp).sum(1) - 4.0 * r * r
    const = 2.0 * (dv * dv).sum(1) + 2.0 * (dp * dv).sum(1)
    rhs = margin - const - alpha * h + 2.0 * (dp * nominals[j]).sum(1)
    rows = {k: ([], []) for k in range(states.shape[0])}
    for k, c, b in zip(i, 2.0 * dp, rhs):
        rows[k][0].append(c)
        rows[k][1].append(b)
    out = {}
    for k, (cs, bs) in rows.items():
        if not cs:
            out[k] = (np.zeros((0, 2)), np.zeros(0))
            continue
        s = float(np.linalg.norm(vel[k]))
        if s >= 1e-9:
            cs.append(-vel[k] / s)
            bs.append(-(speed_bound - s) / dt)
        out[k] = (np.array(cs), np.array(bs))
    return out


def filter_arguments(controller):
    """(arguments with defaults, FilterResult) of one decentralized_filter call."""
    import inspect
    from swarmcbf import qp
    args, kwargs, out = controller
    bound = inspect.signature(qp.decentralized_filter).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments, out


def check_qp_step(controller, controls) -> tuple[list[str], dict]:
    """Rows, speed caps and boxes hold for every non-fallback agent;
    fallback agents apply their clipped nominal; agents whose nominal meets
    every row keep it exactly."""
    a, out = filter_arguments(controller)
    states, nominals = np.asarray(a["states"]), np.asarray(a["nominals"])
    bound = a["control_bound"]
    rows = qp_rows(states, nominals, a["alpha"], a["r"], a["R"], a["margin"],
                   a["speed_bound"], a["dt"])
    bad = []
    controls = np.asarray(controls)
    for k, (A, b) in rows.items():
        u = controls[k]
        if out.fallback[k]:
            if not np.array_equal(u, np.clip(nominals[k], -bound, bound)):
                bad.append(f"agent {k}: fallback control is not its clipped nominal")
            continue
        if A.shape[0] and (A @ u - b).min() < -QP_ROW_TOL:
            bad.append(f"agent {k}: row violated by {-(A @ u - b).min():.3g}")
        if np.abs(u).max() > bound * (1.0 + ROUNDING):
            bad.append(f"agent {k}: control outside its box")
        nom = nominals[k]
        if (A.shape[0] == 0 or (A @ nom - b).min() >= 0.0) and np.abs(nom).max() <= bound:
            if not np.array_equal(u, nom):
                bad.append(f"agent {k}: nominal meets every row but was changed")
    return bad, rows


def scipy_qp(center, A, b, bound):
    cons = [{"type": "ineq", "fun": lambda u: A @ u - b, "jac": lambda u: A}] if A.shape[0] else []
    res = minimize(lambda u: ((u - center) ** 2).sum(), np.clip(center, -bound, bound),
                   jac=lambda u: 2.0 * (u - center), method="SLSQP",
                   bounds=[(-bound, bound)] * 2, constraints=cons,
                   options={"ftol": 1e-15, "maxiter": 500})
    return res.x


def check_qp_optimal(samples) -> list[str]:
    """samples: (agent, nominal, A, b, bound, control) per sampled problem."""
    bad = []
    for k, center, A, b, bound, u in samples:
        ref = scipy_qp(center, A, b, bound)
        gap = np.abs(ref - u).max()
        if gap > QP_OPT_TOL:
            bad.append(f"agent {k}: QP control {u} but scipy.optimize gives {ref} (gap {gap:.3g})")
    return bad


# --- training ---------------------------------------------------------------------------

def check_losses(history) -> list[str]:
    keys = ("loss_total", "loss_safe", "loss_unsafe", "loss_deriv", "loss_ctrl")
    bad = [f"step {row['step']}: non-finite {k}" for row in history for k in keys
           if not np.isfinite(row[k])]
    return bad[:8]


def check_first_step(policy, samples, control_bound: float) -> list[str]:
    """With the residual head at zero, policy controls equal the nominals."""
    from swarmcbf import nets
    for t, s in enumerate(samples):
        u = nets.policy_controls(policy, s.graph_k, s.u_nom, control_bound)
        if not np.array_equal(u, s.u_nom):
            return [f"step 0, sample {t}: policy control differs from the nominal "
                    f"by {np.abs(u - s.u_nom).max():.3g}"]
    return []


def tape_gradients(loss_fn, params) -> list[np.ndarray]:
    from swarmcbf.autodiff import Tape
    for p in params:
        p.grad = None
    with Tape() as tape:
        total = loss_fn()
        tape.backward(total)
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    return grads


def sample_coords(grads, rng, n: int) -> list[tuple[int, int]]:
    """n coordinates drawn among those whose gradient is at least 1e-3 of
    the largest: central differences resolve those far below 1e-4 relative
    (their rounding scales with the loss, their truncation error with h^2)."""
    top = max(float(np.abs(g).max()) for g in grads if g.size)
    if top == 0.0:
        return []
    cand = [(k, i) for k, g in enumerate(grads)
            for i in np.nonzero(np.abs(g.ravel()) >= 1e-3 * top)[0]]
    pick = rng.choice(len(cand), size=min(n, len(cand)), replace=False)
    return [cand[p] for p in pick]


def _central_difference(loss_fn, flat: np.ndarray, i: int, h: float) -> float:
    orig = flat[i]
    flat[i] = orig + h
    f_plus = loss_fn().item()
    flat[i] = orig - h
    f_minus = loss_fn().item()
    flat[i] = orig
    return (f_plus - f_minus) / (2.0 * h)


def check_gradient(loss_fn, params, grads, coords, n: int, h: float = 1e-6) -> list[str]:
    """Tape gradient against central differences, relative tolerance 1e-4,
    on the first n coordinates of `coords` whose stencil is smooth.

    The loss is piecewise smooth (relu layers, hinges, clips).  Where a kink
    falls inside [x - h, x + h] the central difference is not a derivative;
    there the differences at h and h/2 disagree, and the coordinate is
    skipped.
    """
    bad, checked = [], 0
    for k, i in coords:
        if checked == n:
            break
        flat = params[k].data.reshape(-1)
        fd = _central_difference(loss_fn, flat, i, h / 2.0)
        if abs(_central_difference(loss_fn, flat, i, h) - fd) > KINK_TOL * abs(fd):
            continue
        checked += 1
        g = grads[k].reshape(-1)[i]
        if abs(g - fd) / max(abs(fd), abs(g)) > GRAD_REL_TOL:
            bad.append(f"tensor {k} coord {i}: tape {g:.10g} vs central difference {fd:.10g}")
    if not coords:
        bad.append("the loss gradient is zero in every coordinate")
    elif checked < min(n, len(coords)) // 2:
        bad.append(f"only {checked} sampled gradient coordinates had a smooth stencil")
    return bad
