"""The four workloads: their inputs, one set-up each, and rounds of 100
steps driven through the package's public entry points.

`lidar_learned`, `mdcbf_qp` and `train_desk` run a pinned geometry that the
workload seed relabels (see `relabel`); `nominal_scale` draws its scenario
from the seed.

A closed-loop round is one `evaluation.simulate_run` (record=False, as
`swarmcbf evaluate` runs it) over 100 steps from the scenario's start; a
training round is one `training.train` of 100 optimizer steps.  Rounds are
deterministic, so every round of a run repeats the same work.

The per-step hook patches one function per round: `world.step_world` for
closed loops (its return ends a step) and `training.epsilon_schedule` for
training (its call starts a step).  It keeps a timestamp and references to
the step's inputs and outputs, plus the controller's return value, so the
checks can run after the timed round.
"""
from __future__ import annotations

import copy
import dataclasses
import inspect
import time

import numpy as np

from swarmcbf import dynamics, evaluation, nets, qp, runtime, training, world

ROUND_STEPS = 100
NET_SEED = 0          # nets.init seed: what `swarmcbf train --steps 0` writes
DESK_SCALE = 0.125
TRAIN_SEED = 0        # pinned TrainConfig.seed of train_desk


def suite_seed(n_agents: int) -> int:
    """Scenario seed of instance 0 at N agents, as evaluation.run_suite
    seeds it (base_seed 0 + 1000 * N + instance)."""
    return 1000 * n_agents


def relabel(scenario: world.Scenario, rng: np.random.Generator) -> world.Scenario:
    """The same scenario with agents and obstacles in a random order.

    The controllers, the loss and the world are equivariant to this, so
    the work stays that of the pinned geometry while the inputs differ.
    """
    perm = rng.permutation(scenario.config.n_agents)
    obs = tuple(scenario.obstacles[k] for k in rng.permutation(len(scenario.obstacles)))
    cfg = dataclasses.replace(scenario.config, obstacles=obs)
    return world.Scenario(config=cfg, states=scenario.states[perm],
                          goals=scenario.goals[perm], obstacles=obs)


class Patch:
    """Replace attributes for the life of a `with` block."""

    def __init__(self, *targets):
        self.targets = targets        # (owner, attr, replacement)
        self.saved = []

    def __enter__(self):
        for owner, attr, new in self.targets:
            self.saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()
        return False


@dataclasses.dataclass
class Round:
    """What one round measured and kept."""
    step_s: np.ndarray                 # wall time of each completed step
    error: str | None = None           # exception text if the round raised
    result: object = None              # RunResult or TrainResult
    steps: list = dataclasses.field(default_factory=list)   # per-step records
    extra: dict = dataclasses.field(default_factory=dict)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


# --- closed loops ------------------------------------------------------------

class ClosedLoop:
    """A controller driven over one scenario by `evaluation.simulate_run`."""

    observe: tuple | None = None  # (module, name) of the controller call to keep
    step_listener = None          # called with the index of each step begun

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.scenario = self.make_scenario()
        self.model = dynamics.make_model(self.scenario.config.model)
        self.spec = self.make_spec()
        # warm-up: one untimed step fills the LQR-gain cache and first-call paths
        warm = dataclasses.replace(self.scenario.config, horizon=1)
        evaluation.simulate_run(dataclasses.replace(self.scenario, config=warm),
                                self.spec)
        cfg = dataclasses.replace(self.scenario.config, horizon=ROUND_STEPS)
        self.round_scenario = dataclasses.replace(self.scenario, config=cfg)

    @property
    def agents(self) -> int:
        return self.scenario.config.n_agents

    def run_round(self) -> Round:
        steps: list[dict] = []
        stamps: list[float] = []
        step_world = world.step_world
        clock = time.perf_counter

        def hooked_step(*args, **kwargs):
            out = step_world(*args, **kwargs)
            stamps.append(clock())
            if self.step_listener:
                self.step_listener(len(stamps))
            a = _bind(step_world, args, kwargs)
            steps.append({"states": a["states"], "controls": a["controls"],
                          "next_states": out.states})
            return out

        targets = [(world, "step_world", hooked_step)]
        calls: list[tuple] = []       # one controller call per step, before it
        if self.observe:
            owner, name = self.observe
            inner = getattr(owner, name)

            def observed(*args, **kwargs):
                out = inner(*args, **kwargs)
                calls.append((args, kwargs, out))
                return out

            targets.append((owner, name, observed))
        error, result = None, None
        with Patch(*targets):
            if self.step_listener:
                self.step_listener(0)
            t0 = clock()
            try:
                result = evaluation.simulate_run(self.round_scenario, self.spec)
            except Exception as e:      # a raising step is a failed step
                error = f"{type(e).__name__}: {e}"
        for rec, call in zip(steps, calls):
            rec["controller"] = call
        return Round(step_s=np.diff([t0] + stamps), error=error,
                     result=result, steps=steps)


class LidarLearned(ClosedLoop):
    """Learned controller on the obstacles suite, N=64, 16 obstacles, 32 rays."""
    observe = (runtime, "select_control")
    n_agents, n_obstacles = 64, 16

    def make_scenario(self) -> world.Scenario:
        cfg = world.make_scenario_config("SimpleCar", self.n_agents, "obstacles",
                                         suite_seed(self.n_agents),
                                         n_obstacles=self.n_obstacles)
        return relabel(world.generate_scenario(cfg), np.random.default_rng(self.seed))

    def make_spec(self) -> evaluation.ControllerSpec:
        model = dynamics.make_model("SimpleCar")
        barrier, policy = nets.init(NET_SEED, DESK_SCALE,
                                    dynamics.edge_feature_dim(model),
                                    model.control_dim)
        return evaluation.ControllerSpec(kind="learned", barrier=barrier,
                                         policy=policy)


class MdcbfQp(ClosedLoop):
    """Decentralized CBF-QP filter on keep_density, N=256."""
    observe = (qp, "decentralized_filter")

    def make_scenario(self) -> world.Scenario:
        cfg = world.make_scenario_config("SimpleCar", 256, "keep_density", suite_seed(256))
        return relabel(world.generate_scenario(cfg), np.random.default_rng(self.seed))

    def make_spec(self) -> evaluation.ControllerSpec:
        return evaluation.ControllerSpec(kind="qp-decentral",
                                         alpha=qp.FILTER_ALPHA_DEFAULT)


class NominalScale(ClosedLoop):
    """Nominal LQR on keep_density, N=1024."""

    def make_scenario(self) -> world.Scenario:
        cfg = world.make_scenario_config("SimpleCar", 1024, "keep_density", self.seed)
        return world.generate_scenario(cfg)

    def make_spec(self) -> evaluation.ControllerSpec:
        return evaluation.ControllerSpec(kind="nominal")


# --- training ------------------------------------------------------------------

class TrainDesk:
    """`training.train` on the README desk configuration, 100 steps a round."""
    step_listener = None

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = training.TrainConfig.for_model(
            "SimpleCar", steps=ROUND_STEPS, rollout_length=32, n_agents=8,
            side_length=3.0, scale=DESK_SCALE, seed=TRAIN_SEED)
        # the optimizer step whose parameters feed the gradient check
        self.grad_step = int(np.random.default_rng([seed, 1]).integers(1, ROUND_STEPS))

    @property
    def agents(self) -> int:
        # agent-transitions per optimizer batch
        return self.cfg.rollout_length * self.cfg.n_agents

    def sampler(self):
        """The configuration's scenario sampler, each scenario relabelled by
        a stream drawn from the workload seed (restarted every round)."""
        inner = training.scenario_sampler(self.cfg)
        rng_perm = np.random.default_rng(self.seed)
        return lambda rng: relabel(inner(rng), rng_perm)

    def setup(self) -> None:
        training.train(dataclasses.replace(self.cfg, steps=1),
                       sampler=self.sampler())   # warm-up

    def run_round(self) -> Round:
        stamps: list[float] = []
        kept: dict[int, tuple] = {}
        labels = np.zeros(3, dtype=np.int64)
        schedule, loss = training.epsilon_schedule, training.loss
        clock = time.perf_counter

        def hooked_schedule(step, total_steps):
            stamps.append(clock())
            if self.step_listener:
                self.step_listener(step)
            return schedule(step, total_steps)

        def observed_loss(barrier, policy, samples, model, cfg):
            step = len(stamps) - 1
            for s in samples:
                labels[:] += np.bincount(s.labels, minlength=3)
            if step in (0, self.grad_step):
                kept[step] = (copy.deepcopy((barrier, policy)), samples)
            return loss(barrier, policy, samples, model, cfg)

        error, result = None, None
        with Patch((training, "epsilon_schedule", hooked_schedule),
                   (training, "loss", observed_loss)):
            try:
                result = training.train(self.cfg, sampler=self.sampler())
            except Exception as e:      # a raising step is a failed step
                error = f"{type(e).__name__}: {e}"
            t_end = clock()
        ends = stamps[1:] + ([t_end] if error is None and stamps else [])
        return Round(step_s=np.subtract(ends, stamps[:len(ends)]), error=error,
                     result=result, extra={"kept": kept, "labels": labels})


WORKLOADS = {
    "lidar_learned": LidarLearned,
    "train_desk": TrainDesk,
    "mdcbf_qp": MdcbfQp,
    "nominal_scale": NominalScale,
}

