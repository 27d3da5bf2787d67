"""Per-workload checks of one round, plus the program counts that must
repeat exactly from run to run."""
from __future__ import annotations

import inspect

import numpy as np

import checks
from swarmcbf import runtime, training
from workloads import LidarLearned, MdcbfQp, NominalScale, TrainDesk

QP_SAMPLES = 16         # per-agent problems re-solved with scipy per round
GRAD_COORDS = 12        # sampled coordinates for the central differences


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + int(value)


def _closed_loop(w, rnd) -> list[str]:
    model = w.model
    bad = checks.check_outcome(rnd.steps, w.round_scenario, rnd.result)
    bad += checks.check_bounds(rnd.steps, model.control_bound, model.speed_bound)
    return bad


def _lidar(w: LidarLearned, rnd, k: int, counts: dict) -> list[str]:
    cfg = w.scenario.config
    modes = [np.array([d.mode for d in rec["controller"][2]]) for rec in rnd.steps]
    for m in modes:
        for name in ("nominal", "learned", "refined"):
            _add(counts, f"{name}_agent_steps", (m == name).sum())
    sig = inspect.signature(runtime.select_control)
    graphs = [sig.bind(*rec["controller"][0], **rec["controller"][1]).arguments["graph"]
              for rec in rnd.steps]
    _add(counts, "graph_edges", sum(g.n_edges for g in graphs))
    bad = _closed_loop(w, rnd)
    bad += checks.check_nominal(rnd.steps, w.scenario.goals, cfg.dt, w.model.control_bound,
                                lambda t: modes[t] == "nominal")
    bad += checks.check_permutation(w.spec.barrier, graphs[-1],
                                    np.random.default_rng([w.seed, k]))
    return bad


def _nominal(w: NominalScale, rnd, k: int, counts: dict) -> list[str]:
    _add(counts, "collided_agents", rnd.result.collided_ever.sum())
    bad = _closed_loop(w, rnd)
    bad += checks.check_nominal(rnd.steps, w.scenario.goals, w.scenario.config.dt,
                                w.model.control_bound)
    if k == 0:
        bad += checks.check_scenario(w.scenario)
    return bad


def _qp(w: MdcbfQp, rnd, k: int, counts: dict) -> list[str]:
    bad = _closed_loop(w, rnd)
    pool, moved = [], []
    for t, rec in enumerate(rnd.steps):
        step_bad, rows = checks.check_qp_step(rec["controller"], rec["controls"])
        bad += [f"step {t}, {msg}" for msg in step_bad]
        out = rec["controller"][2]
        nominals = checks.filter_arguments(rec["controller"])[0]["nominals"]
        _add(counts, "qp_rows", out.n_constraints)
        _add(counts, "fallback_agent_steps", out.fallback.sum())
        for a, (A, b) in rows.items():
            if out.fallback[a] or not A.shape[0]:
                continue
            u = out.controls[a]
            problem = (a, nominals[a], A, b, w.model.control_bound, u)
            pool.append(problem)
            if not np.array_equal(u, nominals[a]):
                moved.append(problem)
    _add(counts, "moved_agent_steps", len(moved))
    rng = np.random.default_rng([w.seed, k])
    half = QP_SAMPLES // 2
    sample = [moved[i] for i in rng.choice(len(moved), min(half, len(moved)), replace=False)]
    sample += [pool[i] for i in rng.choice(len(pool), min(QP_SAMPLES - len(sample), len(pool)),
                                            replace=False)]
    bad += checks.check_qp_optimal(sample)
    return bad


def _train(w: TrainDesk, rnd, k: int, counts: dict) -> list[str]:
    labels = rnd.extra["labels"]
    for name, n in zip(("safe", "unsafe", "buffer"), labels):
        _add(counts, f"{name}_labels", n)
    history = rnd.result.history
    model = rnd.result.model
    bad = checks.check_losses(history)
    (_, policy0), samples0 = rnd.extra["kept"][0]
    bad += checks.check_first_step(policy0, samples0, model.control_bound)
    if k == 0:
        g = w.grad_step
        (barrier, policy), samples = rnd.extra["kept"][g]

        def loss_fn():
            return training.loss(barrier, policy, samples, model, w.cfg)[0]

        _, parts = training.loss(barrier, policy, samples, model, w.cfg)
        if parts["loss_total"] != history[g]["loss_total"]:
            bad.append(f"kept parameters of step {g} do not reproduce its logged loss")
        params = barrier.tensors() + policy.tensors()
        grads = checks.tape_gradients(loss_fn, params)
        coords = checks.sample_coords(grads, np.random.default_rng([w.seed, 2]),
                                      3 * GRAD_COORDS)
        bad += checks.check_gradient(loss_fn, params, grads, coords, GRAD_COORDS)
    return bad


_BY_KIND = {LidarLearned: _lidar, NominalScale: _nominal, MdcbfQp: _qp, TrainDesk: _train}


def verify(workload, rnd, k: int, counts: dict) -> list[str]:
    return _BY_KIND[type(workload)](workload, rnd, k, counts)

