"""Closed-loop evaluation: simulation driver, per-run metrics, experiment
suites, ablation sweeps, and CSV export."""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, nets, qp, runtime, world
from .nets import BarrierParams, PolicyParams
from .runtime import RefineConfig
from .world import Scenario, build_graph, make_scenario_config, generate_scenario

CONTROLLER_KINDS = ("nominal", "learned", "qp-central", "qp-decentral")


@dataclass
class MetricsRecord:
    safety_rate: float
    reaching_rate: float
    success_rate: float
    safe_flags: np.ndarray
    reached_flags: np.ndarray
    n_agents: int
    suite: str = ""
    seed: int = 0
    controller: str = ""
    mean_step_time_s: float = 0.0
    steps_used: int = 0


@dataclass
class ControllerSpec:
    kind: str
    barrier: BarrierParams | None = None
    policy: PolicyParams | None = None
    alpha: float = 1.0
    refine: RefineConfig = field(default_factory=RefineConfig)
    use_refine: bool = True
    sensing_radius: float | None = None   # test-time override
    label: str = ""

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.kind == "learned" and (self.barrier is None or self.policy is None):
            raise ValueError("learned controller needs barrier and policy params")
        if not self.label:
            self.label = self.kind

    @property
    def needs_graph(self) -> bool:
        return self.kind == "learned"


@dataclass
class RunResult:
    collided_ever: np.ndarray
    reached_final: np.ndarray
    steps_used: int
    mean_step_time_s: float   # sensing, graph and controller; a QP filter's solve_time
    trajectory: list[dict] = field(default_factory=list)
    final_states: np.ndarray | None = None


def _controller_step(spec: ControllerSpec, model, states, goals, graph, dt,
                     r: float, R: float):
    """One control decision for all agents; returns (controls, modes,
    h values or None, reported solve time or None)."""
    u_nom = dynamics.nominal_control_batch(model, states, goals, dt)
    if spec.kind == "nominal":
        return u_nom, ["nominal"] * states.shape[0], None, None
    if spec.kind == "learned":
        decisions = runtime.select_control(spec.barrier, spec.policy, graph,
                                           u_nom, dt, spec.alpha, spec.refine,
                                           use_refine=spec.use_refine)
        controls = runtime.decisions_to_controls(decisions)
        modes = [d.mode for d in decisions]
        hs = np.array([d.h_value for d in decisions])
        return controls, modes, hs, None
    if spec.kind == "qp-central":
        out = qp.centralized_filter(states, u_nom, spec.alpha, r, R,
                                    control_bound=model.control_bound)
    else:
        out = qp.decentralized_filter(states, u_nom, spec.alpha, r, R,
                                      control_bound=model.control_bound)
    modes = ["qp-fallback" if f else "qp" for f in out.fallback]
    return out.controls, modes, None, out.solve_time


def simulate_run(scenario: Scenario, spec: ControllerSpec,
                 record: bool = False, n_rays: int = world.N_RAYS_DEFAULT) -> RunResult:
    """Closed-loop rollout until the horizon or until every agent stands
    within r of its goal.  Collision flags latch; agents keep moving."""
    cfg = scenario.config
    model = dynamics.make_model(cfg.model)
    R = spec.sensing_radius if spec.sensing_radius is not None else cfg.sensing_radius
    states = scenario.states.copy()
    goals = scenario.goals
    obstacles = tuple(scenario.obstacles)

    collided = np.zeros(cfg.n_agents, dtype=bool)
    rows: list[dict] = []
    times: list[float] = []
    steps = 0
    for t in range(cfg.horizon):
        t0 = time.perf_counter()    # a learned step's time includes sensing
        graph = None
        if spec.needs_graph:
            scans = world.scan_all(states[:, :model.space_dim], obstacles,
                                   n_rays, R)
            graph = build_graph(model, states, goals, scans, R)
        controls, modes, hs, solve_time = _controller_step(
            spec, model, states, goals, graph, cfg.dt, cfg.r, R)
        wall = time.perf_counter() - t0
        times.append(solve_time if solve_time is not None else wall)

        stepped = world.step_world(model, states, controls, obstacles, goals,
                                   cfg.dt, cfg.r)
        if record:
            for i in range(cfg.n_agents):
                rows.append({
                    "t": t, "agent_id": i,
                    "state": states[i].tolist(),
                    "control": np.asarray(controls[i]).tolist(),
                    "mode": modes[i],
                    "h_value": None if hs is None else float(hs[i]),
                    "collision": bool(stepped.collided[i]),
                })
        states, obstacles = stepped.states, stepped.obstacles
        collided |= stepped.collided
        steps = t + 1
        if stepped.all_reached:
            break
    reached = world.goals_reached(model, states, goals, cfg.r)
    return RunResult(collided_ever=collided, reached_final=reached,
                     steps_used=steps,
                     mean_step_time_s=float(np.mean(times)) if times else 0.0,
                     trajectory=rows, final_states=states)


def score_run(run: RunResult, suite: str = "", seed: int = 0,
              controller: str = "") -> MetricsRecord:
    """Safety: never flagged over the horizon.  Reaching: within tolerance
    of the goal at termination.  Success: both."""
    safe = ~run.collided_ever
    reached = run.reached_final
    success = safe & reached
    n = safe.shape[0]
    return MetricsRecord(
        safety_rate=float(safe.sum()) / n,
        reaching_rate=float(reached.sum()) / n,
        success_rate=float(success.sum()) / n,
        safe_flags=safe, reached_flags=reached, n_agents=n,
        suite=suite, seed=seed, controller=controller,
        mean_step_time_s=run.mean_step_time_s, steps_used=run.steps_used)


def _one_instance(args):
    cfg, spec = args
    scenario = generate_scenario(cfg)
    run = simulate_run(scenario, spec)
    return score_run(run, suite=cfg.suite, seed=cfg.seed, controller=spec.label)


def run_suite(suite: str, spec: ControllerSpec, model_kind: str,
              n_agents_list, instances: int = 16, base_seed: int = 0,
              n_obstacles: int | None = None, horizon: int | None = None,
              policy_seed: int = 0, workers: int = 1) -> list[dict]:
    """Evaluate one controller over a suite; one row per (N, instance)."""
    rows = []
    for n in n_agents_list:
        jobs = []
        for k in range(instances):
            seed = base_seed + 1000 * n + k
            n_obs = n_obstacles
            if suite == "obstacles" and n_obs is None:
                n_obs = max(1, n // 4)   # agents:obstacles ratio of 4
            cfg = make_scenario_config(model_kind, n, suite, seed,
                                       n_obstacles=n_obs or 0,
                                       point_obstacles=False,
                                       horizon=horizon)
            jobs.append((cfg, spec))
        if workers > 1:
            import multiprocessing as mp
            with mp.Pool(workers) as pool:
                metrics = pool.map(_one_instance, jobs)
        else:
            metrics = [_one_instance(j) for j in jobs]
        for (cfg, _), m in zip(jobs, metrics):
            rows.append({
                "suite": suite, "controller": spec.label, "n_agents": n,
                "instance_seed": cfg.seed, "policy_seed": policy_seed,
                "safety_rate": m.safety_rate, "reaching_rate": m.reaching_rate,
                "success_rate": m.success_rate,
                "mean_step_time_s": m.mean_step_time_s,
            })
    return rows


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean and std of each rate per (suite, controller, n_agents)."""
    keys = sorted({(r["suite"], r["controller"], r["n_agents"]) for r in rows},
                  key=lambda k: (k[0], k[1], k[2]))
    out = []
    for suite, ctrl, n in keys:
        sel = [r for r in rows
               if (r["suite"], r["controller"], r["n_agents"]) == (suite, ctrl, n)]
        agg = {"suite": suite, "controller": ctrl, "n_agents": n,
               "instances": len(sel)}
        for metric in ("safety_rate", "reaching_rate", "success_rate"):
            vals = np.array([r[metric] for r in sel])
            agg[f"{metric}_mean"] = float(vals.mean())
            agg[f"{metric}_std"] = float(vals.std())
        out.append(agg)
    return out


SENSING_SWEEP = (0.05, 0.1, 0.2, 0.5, 0.75, 1.0)
REFINE_ITER_SWEEP = (0, 10, 20, 30, 50, 70, 90)
REFINE_LR_SWEEP = (0.1, 0.3, 1.0, 3.0, 10.0)
ALPHA_SWEEP = (0.01, 0.1, 1.0, 10.0, 100.0)


def ablation_sweep(kind: str, values, spec: ControllerSpec, model_kind: str,
                   suite: str = "keep_density", n_agents_list=(16,),
                   instances: int = 4, base_seed: int = 0,
                   train_fn=None, workers: int = 1) -> list[dict]:
    """One suite evaluation per swept value.

    sensing_radius / refine_iters / refine_lr reuse the given controller;
    the alpha sweep needs train_fn(alpha) -> (barrier, policy) because the
    certificate must be retrained per value.
    """
    rows = []
    for v in values:
        s = replace(spec)
        if kind == "sensing_radius":
            s = replace(spec, sensing_radius=float(v), label=f"{spec.label}")
        elif kind == "refine_iters":
            s = replace(spec, refine=replace(spec.refine, max_iters=int(v)))
        elif kind == "refine_lr":
            s = replace(spec, refine=replace(spec.refine, step_size=float(v)))
        elif kind == "alpha":
            if train_fn is None:
                raise ValueError("alpha sweep needs train_fn to retrain per value")
            barrier, policy = train_fn(float(v))
            s = replace(spec, barrier=barrier, policy=policy, alpha=float(v))
        else:
            raise ValueError(f"unknown sweep kind {kind!r}")
        for row in run_suite(suite, s, model_kind, n_agents_list,
                             instances=instances, base_seed=base_seed,
                             workers=workers):
            rows.append({"sweep": kind, "value": v, **row})
    return rows


RESULT_FIELDS = ["suite", "controller", "n_agents", "instance_seed",
                 "policy_seed", "safety_rate", "reaching_rate", "success_rate",
                 "mean_step_time_s"]


def write_results_csv(rows: list[dict], path) -> None:
    extra = [k for k in (rows[0].keys() if rows else []) if k not in RESULT_FIELDS]
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=extra + RESULT_FIELDS)
        w.writeheader()
        for r in rows:
            w.writerow(r)


def write_plotdata_csv(rows: list[dict], path) -> None:
    agg = aggregate_rows(rows)
    fields = ["suite", "controller", "n_agents", "instances",
              "safety_rate_mean", "safety_rate_std",
              "reaching_rate_mean", "reaching_rate_std",
              "success_rate_mean", "success_rate_std"]
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        for r in agg:
            w.writerow(r)


def write_timing_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["n_agents", "mode", "mean_step_time_s",
                                          "safety_rate"])
        w.writeheader()
        for r in rows:
            w.writerow(r)


def qp_benchmark(model_kind: str, n_agents_list, instances: int = 16,
                 base_seed: int = 0, suite: str = "increase_density",
                 horizon: int | None = None, workers: int = 1,
                 alpha: float | None = None) -> list[dict]:
    """Centralized vs decentralized filter: safety rate and per-step solve
    time per N; rows mirror the timing CSV layout."""
    if alpha is None:
        alpha = qp.FILTER_ALPHA_DEFAULT
    out = []
    for mode, kind in (("centralized", "qp-central"), ("decentralized", "qp-decentral")):
        spec = ControllerSpec(kind=kind, label=mode, alpha=alpha)
        rows = run_suite(suite, spec, model_kind, n_agents_list,
                         instances=instances, base_seed=base_seed,
                         horizon=horizon, workers=workers)
        for n in n_agents_list:
            sel = [r for r in rows if r["n_agents"] == n]
            out.append({
                "n_agents": n, "mode": mode,
                "mean_step_time_s": float(np.mean([r["mean_step_time_s"] for r in sel])),
                "safety_rate": float(np.mean([r["safety_rate"] for r in sel])),
            })
    return out
