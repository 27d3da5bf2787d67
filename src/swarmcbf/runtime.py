"""Runtime controller: certificate-based safety detector, nominal/learned
switching, and online refinement of violating controls.

The derivative of the certificate is estimated the same way the trainer
estimates it: a virtual Euler step, in-edges rebuilt at the stepped
positions by world.in_edges (LiDAR hit nodes stay frozen at their world
positions), and a finite difference across the two evaluations.  Each
agent's check assumes its neighbors apply their own nominal control.

Refinement is batched.  The detector checks all agents on one batch of
in-edges; each later stage runs once for all flagged agents: the
learned-control check, every descent iteration (on InEdges.subset of those
still violating), and the final re-check.  Because neighbors hold their
nominal controls, an agent's residue depends on its own control alone, so
one backward pass of the summed residues gives every agent its own
gradient.  The descent tape reads the certificate through a frozen view
(nets.frozen): it differentiates the controls only, and no weight gradient
is computed or left in .grad.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dynamics, nets, world
from .autodiff import Tensor, Tape
from .nets import BarrierParams, PolicyParams
from .world import GraphSnapshot, InEdges


@dataclass
class RefineConfig:
    max_iters: int = 30
    step_size: float = 0.3
    gamma: float = 0.02


@dataclass
class ControlDecision:
    control: np.ndarray
    mode: str           # "nominal" | "learned" | "refined"
    h_value: float
    hdot_value: float


def check_safe(barrier: BarrierParams, graph: GraphSnapshot,
               candidates: np.ndarray, u_nom: np.ndarray, dt: float,
               alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detector: hdot + alpha * h >= 0 per agent, candidate control for the
    agent itself, nominal controls for everyone else.

    Returns (ok, h, hdot).  One batch of virtual in-edges serves every
    agent; with nominal candidates it is the graph of the nominal step.
    """
    h_now, _ = nets.barrier_values(barrier, graph)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    u_nom = np.atleast_2d(np.asarray(u_nom, dtype=np.float64))
    X1_nom = dynamics.step_batch(graph.model, graph.states, u_nom, dt)
    h1, _ = _virtual_h(barrier, graph, X1_nom, np.arange(graph.n_agents),
                       candidates, dt)
    hdot = (h1 - h_now) / dt
    ok = hdot + alpha * h_now >= 0.0
    return ok, h_now, hdot


def _ego_h(barrier: BarrierParams, graph: GraphSnapshot, X1_nom: np.ndarray,
           edges: InEdges, emb) -> Tensor:
    """Certificate values, shape (k, 1), of the agents edges.rows embedded
    at emb (an array, or a tensor when differentiating), with every other
    agent at its nominal next state and the hits frozen."""
    model = graph.model
    feat = world.edge_features(edges, emb, dynamics.state_embedding(model, X1_nom),
                               dynamics.hit_embedding(model, graph.hit_pos))
    h, _ = nets.barrier_forward_edges(barrier, feat, edges.flag, edges.dst,
                                      edges.rows.shape[0])
    return h


def _virtual_h(barrier: BarrierParams, graph: GraphSnapshot,
               X1_nom: np.ndarray, rows: np.ndarray, U: np.ndarray,
               dt: float) -> tuple[np.ndarray, InEdges]:
    """h of each agent rows[k] after a virtual step where it applies U[k]
    and everyone else the nominal (plain numpy); also returns the in-edges,
    LiDAR hits frozen in the world frame."""
    model = graph.model
    sd = model.space_dim
    X1 = dynamics.step_batch(model, graph.states[rows], U, dt)
    edges = world.in_edges(X1[:, :sd], rows, X1_nom[:, :sd], graph.hit_owner,
                           graph.R)
    h = _ego_h(barrier, graph, X1_nom, edges, dynamics.state_embedding(model, X1))
    return h.data[:, 0], edges


def _make_residue_rows(barrier: BarrierParams, graph: GraphSnapshot,
                       X1_nom: np.ndarray, edges: InEdges, h: np.ndarray,
                       dt: float, alpha: float, gamma: float):
    """Batched residue: maps (active, U), U holding controls for the agents
    edges.rows[active], to their residues and each one's own gradient.

    The in-edges stay frozen as given, so the objective is continuous
    across descent iterations.  Neighbors hold their nominal controls, so
    agent k's residue depends on U[k] alone and one backward pass of the
    summed residues yields every row's gradient.  The certificate is read
    through a frozen view: no weight gradient is computed or stored.
    """
    model = graph.model
    barrier = nets.frozen(barrier)
    n_rows = edges.rows.shape[0]

    def value_and_grad(active: np.ndarray, U: np.ndarray):
        sub = edges if active.shape[0] == n_rows else edges.subset(active)
        h_a = h[active][:, None]
        u = Tensor(U, requires_grad=True)
        with Tape() as tape:
            x1 = dynamics.virtual_step_tensor(model, graph.states[sub.rows], u, dt)
            h1 = _ego_h(barrier, graph, X1_nom, sub,
                        dynamics.state_embedding_tensor(model, x1))
            hdot = ad.mul(ad.sub(h1, h_a), 1.0 / dt)
            delta = ad.relu(ad.sub(gamma - alpha * h_a, hdot))
            vals = delta.data[:, 0].copy()
            if delta.requires_grad and (vals > 0.0).any():
                tape.backward(ad.tensor_sum(delta))
        # u.grad stays None when no residue depends on the controls
        grads = np.zeros_like(U) if u.grad is None else u.grad
        return vals, grads

    return value_and_grad


def _make_residue_fn(barrier: BarrierParams, graph: GraphSnapshot,
                     X1_nom: np.ndarray, i: int, h_i: float, dt: float,
                     alpha: float, gamma: float):
    """One-agent view of the batched residue: maps a control for agent i to
    (residue, d residue / du), in-edges frozen at the first control."""
    rows = np.array([i], dtype=np.intp)
    only = np.zeros(1, dtype=np.intp)
    fn = None

    def value_and_grad(u_val: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal fn
        u = np.asarray(u_val, dtype=np.float64)[None, :]
        if fn is None:
            _, edges = _virtual_h(barrier, graph, X1_nom, rows, u, dt)
            fn = _make_residue_rows(barrier, graph, X1_nom, edges,
                                    np.array([h_i]), dt, alpha, gamma)
        vals, grads = fn(only, u)
        return float(vals[0]), grads[0]

    return value_and_grad


def _descend_rows(value_and_grad, U0: np.ndarray, config: RefineConfig,
                  clip_bound: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient descent on a batch of independent nonnegative
    residues.  value_and_grad(active, U) evaluates rows `active` at U.

    Each row keeps its own iterate, best iterate and iteration count, and
    stops being evaluated once its best residue reaches 0, it has spent
    config.max_iters iterations, or its projected step leaves its iterate
    where it is (a zero gradient, or one the clip cancels): evaluating it
    there again would repeat the last value and gradient.
    """
    U = np.array(U0, dtype=np.float64)
    vals, grads = value_and_grad(np.arange(U.shape[0]), U)
    best_U, best_val = U.copy(), np.array(vals, dtype=np.float64)
    grads = np.array(grads, dtype=np.float64)
    iters = np.zeros(U.shape[0], dtype=int)
    stuck = np.zeros(U.shape[0], dtype=bool)
    for _ in range(config.max_iters):
        active = np.nonzero((best_val > 0.0) & ~stuck)[0]
        Ua = U[active] - config.step_size * grads[active]
        if clip_bound is not None:
            Ua = np.clip(Ua, -clip_bound, clip_bound)
        moved = (Ua != U[active]).any(axis=1)
        stuck[active[~moved]] = True
        active, Ua = active[moved], Ua[moved]
        if not active.size:
            break
        U[active] = Ua
        vals, g = value_and_grad(active, Ua)
        grads[active] = g
        better = vals < best_val[active]
        best_val[active[better]] = vals[better]
        best_U[active[better]] = Ua[better]
        iters[active] += 1
    return best_U, best_val, iters


def descend_residue(value_and_grad, u0: np.ndarray, config: RefineConfig,
                    clip_bound: float | None = None) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent on a nonnegative residue; returns the
    best iterate seen, its residue, and the iterations spent."""
    def one_row(active, U):
        val, grad = value_and_grad(U[0])
        return np.array([val]), np.asarray(grad)[None, :]

    U, vals, iters = _descend_rows(one_row, np.asarray(u0)[None, :], config,
                                   clip_bound)
    return U[0], float(vals[0]), int(iters[0])


def refine(barrier: BarrierParams, graph: GraphSnapshot, i: int,
           u0: np.ndarray, u_nom: np.ndarray, dt: float, alpha: float,
           config: RefineConfig) -> tuple[np.ndarray, float, int]:
    """Gradient descent on agent i's residue over its own control,
    neighbors held at their nominals.  Never returns a control with a
    larger residue than the input."""
    model = graph.model
    X1_nom = dynamics.step_batch(model, graph.states, np.atleast_2d(u_nom), dt)
    h_now, _ = nets.barrier_values(barrier, graph)
    fn = _make_residue_fn(barrier, graph, X1_nom, i, float(h_now[i]), dt,
                          alpha, config.gamma)
    return descend_residue(fn, u0, config, clip_bound=model.control_bound)


def select_control(barrier: BarrierParams, policy: PolicyParams,
                   graph: GraphSnapshot, u_nom: np.ndarray, dt: float,
                   alpha: float, config: RefineConfig | None = None,
                   use_refine: bool = True) -> list[ControlDecision]:
    """Per-agent switching: nominal when it passes the detector, otherwise
    the learned control, refined if it still violates.

    Each stage runs once for all the agents it concerns: the policy and the
    learned check over the flagged agents, then each descent iteration and
    the final re-check over those the learned control did not clear.
    """
    if config is None:
        config = RefineConfig()
    model = graph.model
    u_nom = np.atleast_2d(np.asarray(u_nom, dtype=np.float64))
    ok, h_now, hdot = check_safe(barrier, graph, u_nom, u_nom, dt, alpha)
    controls = u_nom.copy()
    modes = ["nominal"] * graph.n_agents

    flagged = np.nonzero(~ok)[0]
    if flagged.size:
        u_nn = nets.policy_controls(policy, graph, u_nom, model.control_bound,
                                    rows=flagged)
        X1_nom = dynamics.step_batch(model, graph.states, u_nom, dt)
        h1, edges = _virtual_h(barrier, graph, X1_nom, flagged, u_nn, dt)
        hdot[flagged] = (h1 - h_now[flagged]) / dt
        controls[flagged] = u_nn
        failed = np.nonzero(~(hdot[flagged] + alpha * h_now[flagged] >= 0.0))[0]
        rows = flagged[failed]
        for i in flagged:
            modes[i] = "learned"
        if rows.size:
            U = u_nn[failed]
            if use_refine:
                fn = _make_residue_rows(barrier, graph, X1_nom, edges.subset(failed),
                                        h_now[rows], dt, alpha, config.gamma)
                U, _, _ = _descend_rows(fn, U, config, model.control_bound)
            h1, _ = _virtual_h(barrier, graph, X1_nom, rows, U, dt)
            hdot[rows] = (h1 - h_now[rows]) / dt
            controls[rows] = U
            for i in rows:
                modes[i] = "refined"

    return [ControlDecision(control=controls[i], mode=modes[i],
                            h_value=float(h_now[i]), hdot_value=float(hdot[i]))
            for i in range(graph.n_agents)]


def decisions_to_controls(decisions: list[ControlDecision]) -> np.ndarray:
    return np.stack([d.control for d in decisions])
