"""Command-line entry point.

Subcommands: train, simulate, evaluate, sweep, qp-bench.  Configuration
and scenario files are JSON with strict schemas: unknown keys are
rejected with a field-level message.  Exit codes: 0 success, 1 runtime
failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import dynamics, evaluation, nets, training, world
from .evaluation import ControllerSpec
from .runtime import RefineConfig


class ConfigError(Exception):
    pass


# --- scenario files --------------------------------------------------------

_SCENARIO_KEYS = {"model", "n_agents", "side_length", "r", "sensing_radius",
                  "dt", "horizon", "seed", "suite", "obstacles"}
_OBSTACLE_KEYS = {"shape", "center", "radius", "size", "velocity"}


def scenario_to_dict(cfg: world.ScenarioConfig) -> dict:
    obstacles = []
    for ob in cfg.obstacles:
        d = {"shape": ob.shape, "center": ob.center.tolist(),
             "velocity": ob.velocity.tolist()}
        if ob.shape == "circle":
            d["radius"] = float(ob.size[0])
        else:
            d["size"] = ob.size.tolist()
        obstacles.append(d)
    return {"model": cfg.model, "n_agents": cfg.n_agents,
            "side_length": cfg.side_length, "r": cfg.r,
            "sensing_radius": cfg.sensing_radius, "dt": cfg.dt,
            "horizon": cfg.horizon, "seed": cfg.seed, "suite": cfg.suite,
            "obstacles": obstacles}


def _field_value(value, hint, where: str):
    """value checked against a config field's type hint: an int is
    accepted for a float, a bool only for a bool, and None only where the
    hint allows it."""
    options = typing.get_args(hint) or (hint,)
    if value is None and type(None) in options:
        return None
    kind = options[0]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    expected = {int: "an integer", float: "a number", bool: "true or false",
                str: "a string"}[kind]
    if type(None) in options:
        expected += " or null"
    raise ConfigError(f"{where}: expected {expected}, got {value!r}")


def _json_object(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    return d


def scenario_from_dict(d: dict) -> world.ScenarioConfig:
    unknown = set(_json_object(d, "scenario")) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"scenario: unknown keys {sorted(unknown)}")
    missing = _SCENARIO_KEYS - set(d)
    if missing:
        raise ConfigError(f"scenario: missing keys {sorted(missing)}")
    if d["model"] not in dynamics.KINDS:
        raise ConfigError(f"scenario.model: expected one of {dynamics.KINDS}")
    if d["suite"] not in world.SUITES:
        raise ConfigError(f"scenario.suite: expected one of {world.SUITES}")
    if not isinstance(d["obstacles"], list):
        raise ConfigError("scenario.obstacles: expected a list")
    sd = dynamics.make_model(d["model"]).space_dim
    obstacles = tuple(_obstacle_from_dict(ob, f"scenario.obstacles[{k}]", sd)
                      for k, ob in enumerate(d["obstacles"]))
    hints = typing.get_type_hints(world.ScenarioConfig)
    scalars = {k: _field_value(d[k], hints[k], f"scenario.{k}")
               for k in sorted(_SCENARIO_KEYS - {"model", "suite", "obstacles"})}
    try:
        return world.ScenarioConfig(model=d["model"], suite=d["suite"],
                                    obstacles=obstacles, **scalars)
    except ValueError as e:
        raise ConfigError(f"scenario.{e}")


def _obstacle_from_dict(ob: dict, where: str, sd: int) -> world.Obstacle:
    unknown = set(_json_object(ob, where)) - _OBSTACLE_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    shape = ob.get("shape")
    if shape not in ("circle", "rect"):
        raise ConfigError(f"{where}.shape: expected circle or rect")
    extent = "radius" if shape == "circle" else "size"
    for key in ("center", extent):
        if key not in ob:
            raise ConfigError(f"{where}.{key}: missing")

    def vector(key):
        try:
            v = np.asarray(ob[key], dtype=np.float64)
        except (TypeError, ValueError):
            v = None
        if v is None or v.shape != (sd,):
            raise ConfigError(f"{where}.{key}: expected a list of {sd} numbers")
        return v

    velocity = None if ob.get("velocity") is None else vector("velocity")
    if shape == "rect":
        return world.Obstacle.rect(vector("center"), vector("size"), velocity)
    try:
        radius = float(ob["radius"])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.radius: expected a number")
    return world.Obstacle.circle(vector("center"), radius, velocity)


def load_scenario(path) -> world.ScenarioConfig:
    try:
        with open(path) as f:
            d = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"scenario file {path}: invalid JSON ({e})")
    return scenario_from_dict(d)


def save_scenario(cfg: world.ScenarioConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_dict(cfg), f, indent=2)


# --- train config files ----------------------------------------------------

_TRAIN_KEYS = {f.name for f in dataclasses.fields(training.TrainConfig)}


def train_config_from_dict(d: dict) -> training.TrainConfig:
    unknown = set(_json_object(d, "train config")) - _TRAIN_KEYS
    if unknown:
        raise ConfigError(f"train config: unknown keys {sorted(unknown)}")
    if "model" not in d:
        raise ConfigError("train config: missing key 'model'")
    if d["model"] not in dynamics.KINDS:
        raise ConfigError(f"train config.model: expected one of {dynamics.KINDS}")
    hints = typing.get_type_hints(training.TrainConfig)
    overrides = {k: _field_value(v, hints[k], f"train config.{k}")
                 for k, v in d.items() if k != "model"}
    try:
        return training.TrainConfig.for_model(d["model"], **overrides)
    except ValueError as e:
        raise ConfigError(f"train config.{e}")


def load_train_config(path) -> training.TrainConfig:
    try:
        with open(path) as f:
            d = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: invalid JSON ({e})")
    return train_config_from_dict(d)


# --- subcommands -------------------------------------------------------------

def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    overrides = {}
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.scale is not None:
        overrides["scale"] = args.scale
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    if cfg.steps == 0:
        # checkpoint the initialization and stop
        model = dynamics.make_model(cfg.model)
        barrier, policy = nets.init(cfg.seed, cfg.scale,
                                    dynamics.edge_feature_dim(model),
                                    model.control_dim)
        nets.save_checkpoint(os.path.join(out_dir, "ckpt_final.npz"),
                             barrier, policy, cfg.model, 0)
        return 0
    training.train(cfg, out_dir=out_dir)
    return 0


def _make_spec(args, scenario_model: str | None = None) -> ControllerSpec:
    from . import qp as qpmod
    refine = RefineConfig(max_iters=args.refine_iters,
                          step_size=args.refine_lr)
    if args.controller == "learned" or (args.controller is None and args.checkpoint):
        barrier, policy, meta = nets.load_checkpoint(args.checkpoint)
        if scenario_model is not None and meta["model"] != scenario_model:
            raise ConfigError(
                f"checkpoint model {meta['model']!r} does not match "
                f"scenario model {scenario_model!r}")
        alpha = 1.0 if args.alpha is None else args.alpha
        return ControllerSpec(kind="learned", barrier=barrier, policy=policy,
                              alpha=alpha, refine=refine,
                              use_refine=args.refine_iters > 0)
    kind = args.controller or "nominal"
    alpha = args.alpha
    if alpha is None:
        alpha = qpmod.FILTER_ALPHA_DEFAULT if kind.startswith("qp") else 1.0
    return ControllerSpec(kind=kind, alpha=alpha, refine=refine)


def _cmd_simulate(args) -> int:
    scen_cfg = load_scenario(args.scenario)
    if args.nominal_only:
        spec = ControllerSpec(kind="nominal")
    else:
        if not args.checkpoint:
            raise ConfigError("simulate: --checkpoint required unless --nominal-only")
        barrier, policy, meta = nets.load_checkpoint(args.checkpoint)
        if meta["model"] != scen_cfg.model:
            raise ConfigError(f"checkpoint model {meta['model']!r} does not "
                              f"match scenario model {scen_cfg.model!r}")
        spec = ControllerSpec(kind="learned", barrier=barrier, policy=policy,
                              alpha=args.alpha,
                              refine=RefineConfig(max_iters=args.refine_iters,
                                                  step_size=args.refine_lr),
                              use_refine=args.refine_iters > 0)
    scenario = world.generate_scenario(scen_cfg)
    run = evaluation.simulate_run(scenario, spec, record=True)
    metrics = evaluation.score_run(run, suite=scen_cfg.suite,
                                   seed=scen_cfg.seed, controller=spec.label)
    with open(args.out, "w") as f:
        for row in run.trajectory:
            f.write(json.dumps(row) + "\n")
        f.write(json.dumps({
            "metrics": {
                "safety_rate": metrics.safety_rate,
                "reaching_rate": metrics.reaching_rate,
                "success_rate": metrics.success_rate,
                "n_agents": metrics.n_agents,
                "steps_used": metrics.steps_used,
                "mean_step_time_s": metrics.mean_step_time_s,
            }}) + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    spec = _make_spec(args)
    rows = evaluation.run_suite(args.suite, spec, args.model,
                                args.n_agents, instances=args.instances,
                                base_seed=args.seed or 0,
                                workers=args.workers)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    evaluation.write_results_csv(rows, os.path.join(out_dir, "results.csv"))
    evaluation.write_plotdata_csv(rows, os.path.join(out_dir, "plotdata.csv"))
    return 0


def _cmd_sweep(args) -> int:
    spec = _make_spec(args)
    values = args.values
    if values is None:
        values = {"sensing_radius": evaluation.SENSING_SWEEP,
                  "refine_iters": evaluation.REFINE_ITER_SWEEP,
                  "refine_lr": evaluation.REFINE_LR_SWEEP,
                  "alpha": evaluation.ALPHA_SWEEP}[args.kind]
    else:
        values = [float(v) for v in values]

    train_fn = None
    if args.kind == "alpha":
        base = load_train_config(args.train_config) if args.train_config else None
        if base is None:
            raise ConfigError("sweep alpha: --train-config required")

        def train_fn(alpha: float):
            from dataclasses import replace
            res = training.train(replace(base, alpha=alpha))
            return res.barrier, res.policy

    rows = evaluation.ablation_sweep(args.kind, values, spec, args.model,
                                     suite=args.suite,
                                     n_agents_list=args.n_agents,
                                     instances=args.instances,
                                     base_seed=args.seed or 0,
                                     train_fn=train_fn, workers=args.workers)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    evaluation.write_results_csv(rows, os.path.join(out_dir, "sweep.csv"))
    return 0


def _cmd_qp_bench(args) -> int:
    rows = evaluation.qp_benchmark(args.model, args.n_agents,
                                   instances=args.instances,
                                   base_seed=args.seed or 0,
                                   horizon=args.horizon,
                                   workers=args.workers,
                                   alpha=args.alpha)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    evaluation.write_timing_csv(rows, os.path.join(out_dir, "qp_bench.csv"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="swarmcbf",
                                description="multi-agent collision avoidance toolkit")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train certificate and policy")
    t.add_argument("--config", required=True)
    t.add_argument("--steps", type=int, default=None)

    s = sub.add_parser("simulate", help="roll out one scenario to a trajectory file")
    s.add_argument("--scenario", required=True)
    s.add_argument("--checkpoint", default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--nominal-only", action="store_true")
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--refine-iters", type=int, default=30)
    s.add_argument("--refine-lr", type=float, default=0.3)

    for name, fn in (("evaluate", _cmd_evaluate), ("sweep", _cmd_sweep)):
        e = sub.add_parser(name)
        e.add_argument("--model", default="SimpleCar", choices=dynamics.KINDS)
        e.add_argument("--suite", default="keep_density", choices=world.SUITES)
        e.add_argument("--controller", default=None,
                       choices=evaluation.CONTROLLER_KINDS)
        e.add_argument("--checkpoint", default=None)
        e.add_argument("--n-agents", dest="n_agents", type=int, nargs="+",
                       default=[16])
        e.add_argument("--instances", type=int, default=16)
        e.add_argument("--alpha", type=float, default=None)
        e.add_argument("--refine-iters", type=int, default=30)
        e.add_argument("--refine-lr", type=float, default=0.3)
        if name == "sweep":
            e.add_argument("--kind", required=True,
                           choices=("sensing_radius", "refine_iters",
                                    "refine_lr", "alpha"))
            e.add_argument("--values", nargs="+", default=None)
            e.add_argument("--train-config", default=None)

    q = sub.add_parser("qp-bench", help="handcrafted CBF-QP timing/safety table")
    q.add_argument("--model", default="SimpleCar", choices=("SimpleCar",))
    q.add_argument("--n-agents", dest="n_agents", type=int, nargs="+",
                   default=[16, 32])
    q.add_argument("--instances", type=int, default=16)
    q.add_argument("--horizon", type=int, default=None)
    q.add_argument("--alpha", type=float, default=None)
    return p


_COMMANDS = {"train": _cmd_train, "simulate": _cmd_simulate,
             "evaluate": _cmd_evaluate, "sweep": _cmd_sweep,
             "qp-bench": _cmd_qp_bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except training.TrainingDiverged as e:
        print(f"error: {e}\ndiagnostics: {e.diagnostics}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
