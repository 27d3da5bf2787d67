"""Joint training of the barrier certificate and the distributed policy.

On-policy rollouts with a linearly decaying exploration schedule feed a
hinge loss over safe/unsafe/buffer-labeled samples.  The certificate's
time derivative is a finite difference across a differentiable virtual
step whose controls come from the current policy, so gradients reach the
controller of an agent and of all its neighbors through that term.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import dynamics, nets, world
from .autodiff import Tensor, Tape
from .nets import BarrierParams, PolicyParams
from .world import (GraphSnapshot, InEdges, Scenario, build_graph, label_all,
                    make_scenario_config, generate_scenario, step_world,
                    LABEL_SAFE, LABEL_UNSAFE)

# per-model loss weights (derivative hinge, control deviation)
_MODEL_WEIGHTS = {
    "SimpleCar": (0.5, 0.05),
    "SimpleDrone": (0.5, 0.05),
    "DubinsCar": (0.2, 0.0001),
    "CrazyFlie": (0.5, 0.05),
}


@dataclass
class TrainConfig:
    model: str = "SimpleCar"
    alpha: float = 1.0
    gamma: float = 0.02
    eta_safe: float = 1.0
    eta_unsafe: float = 1.0
    eta_deriv: float = 0.5
    eta_ctrl: float = 0.05
    lr_h: float = 3e-4
    lr_pi: float = 1e-3
    steps: int = 500_000
    rollout_length: int = 256
    n_agents: int = 16
    side_length: float | None = None
    n_obstacles: int = 0
    point_obstacles: bool = True
    seed: int = 0
    scale: float = 1.0
    dt: float = 0.03
    r: float = 0.05
    sensing_radius: float | None = None
    deriv_hinge_on_buffer: bool = True
    checkpoint_every: int = 0
    # spawn speed for training scenarios (fraction of the model's speed
    # bound).  Mid-flight spawns keep unsafe samples appearing in every
    # training phase; once the policy avoids well, calm spawns stop
    # producing them and the certificate's unsafe side starves.
    spawn_speed: float = 1.0
    # fraction of training episodes drawn in a shrunken workspace.  The
    # hinge losses have zero gradient once satisfied, so the certificate
    # must see both label classes steadily while it is still plastic;
    # desk-scale runs need dense episodes for that, full-scale runs can
    # leave this at 0.
    dense_fraction: float = 0.0
    dense_side_factor: float = 0.45
    # fraction of agents spawned as converging pairs (4r-8r apart, closing
    # velocities).  Guarantees boundary-region data in every episode; 0
    # reproduces plain uniform spawns.
    paired_fraction: float = 0.0

    def __post_init__(self):
        world.check_ranges((
            *((name, getattr(self, name) > 0, "a positive number")
              for name in ("alpha", "gamma", "eta_safe", "eta_unsafe", "eta_deriv",
                           "lr_h", "lr_pi", "dt", "r")),
            ("eta_ctrl", self.eta_ctrl >= 0, "a number >= 0"),
            ("steps", self.steps >= 0, "at least 0"),
            ("rollout_length", self.rollout_length >= 1, "at least 1"),
            ("n_agents", self.n_agents >= 1, "at least 1"),
            *((name, getattr(self, name) is None or getattr(self, name) > 0,
               "a positive number or null") for name in ("side_length", "sensing_radius")),
            ("n_obstacles", self.n_obstacles >= 0, "at least 0"),
            ("checkpoint_every", self.checkpoint_every >= 0, "at least 0"),
            ("scale", 0 < self.scale <= 1, "a number in (0, 1]"),
            *((name, 0 <= getattr(self, name) <= 1, "a number in [0, 1]")
              for name in ("spawn_speed", "dense_fraction", "paired_fraction")),
            ("dense_side_factor", 0 < self.dense_side_factor <= 1, "a number in (0, 1]")))

    @staticmethod
    def for_model(kind: str, **overrides) -> "TrainConfig":
        deriv, ctrl = _MODEL_WEIGHTS[kind]
        cfg = TrainConfig(model=kind, eta_deriv=deriv, eta_ctrl=ctrl)
        return replace(cfg, **overrides) if overrides else cfg


@dataclass
class TrainSample:
    """One transition: graphs at consecutive steps plus labels and controls."""
    graph_k: GraphSnapshot
    graph_k1: GraphSnapshot
    labels: np.ndarray
    u_applied: np.ndarray
    u_nom: np.ndarray
    dt: float


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def epsilon_schedule(step: int, total_steps: int) -> float:
    """Exploration probability, linear from 1 down to 0 over training."""
    if total_steps <= 0:
        return 0.0
    return max(0.0, 1.0 - step / total_steps)


def _randomize_speeds(model: dynamics.DynamicsModel, states: np.ndarray,
                      max_speed: float, rng: np.random.Generator) -> np.ndarray:
    states = states.copy()
    n = states.shape[0]
    sl = dynamics.velocity_slice(model)
    width = sl.stop - sl.start
    if model.kind == "DubinsCar":
        states[:, 3] = rng.uniform(0.0, max_speed, size=n)
    else:
        direction = rng.normal(size=(n, width))
        direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-12)
        states[:, sl] = direction * rng.uniform(0.0, max_speed, size=(n, 1))
    return states


def _spawn_pairs(model: dynamics.DynamicsModel, states: np.ndarray, r: float,
                 max_speed: float, n_pairs: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Re-place 2*n_pairs agents as converging pairs: 4r-8r apart with
    velocities aimed at each other."""
    states = states.copy()
    sd = model.space_dim
    for k in range(n_pairs):
        a, b = 2 * k, 2 * k + 1
        axis = rng.normal(size=sd)
        axis /= max(np.linalg.norm(axis), 1e-12)
        gap = rng.uniform(4.0 * r, 8.0 * r)
        states[b, :sd] = states[a, :sd] + gap * axis
        speed_a = rng.uniform(0.3, 1.0) * max_speed
        speed_b = rng.uniform(0.3, 1.0) * max_speed
        if model.kind == "DubinsCar":
            states[a, 2] = np.arctan2(axis[1], axis[0])
            states[b, 2] = np.arctan2(-axis[1], -axis[0])
            states[a, 3] = speed_a
            states[b, 3] = speed_b
        else:
            sl = dynamics.velocity_slice(model)
            states[a, sl] = axis * speed_a
            states[b, sl] = -axis * speed_b
    return states


def scenario_sampler(cfg: TrainConfig):
    """Fresh random scenario per training episode, driven by the train rng;
    agents spawn mid-flight with random velocities up to spawn_speed * u_M,
    a dense_fraction of episodes use a shrunken workspace, and a
    paired_fraction of agents start as converging pairs."""
    model = dynamics.make_model(cfg.model)

    def sample(rng: np.random.Generator) -> Scenario:
        seed = int(rng.integers(0, 2**31 - 1))
        side = cfg.side_length
        if side is None:
            side = world.suite_side("keep_density", cfg.n_agents, model.space_dim)
        if cfg.dense_fraction > 0.0 and rng.random() < cfg.dense_fraction:
            side = side * cfg.dense_side_factor
        config = make_scenario_config(
            cfg.model, cfg.n_agents, "keep_density", seed,
            side_length=side, n_obstacles=cfg.n_obstacles,
            point_obstacles=cfg.point_obstacles, r=cfg.r,
            sensing_radius=cfg.sensing_radius, dt=cfg.dt)
        scenario = generate_scenario(config)
        states = scenario.states
        if cfg.spawn_speed > 0.0:
            states = _randomize_speeds(model, states,
                                       cfg.spawn_speed * model.speed_bound, rng)
        n_pairs = int(cfg.paired_fraction * cfg.n_agents / 2.0)
        if n_pairs > 0:
            states = _spawn_pairs(model, states, cfg.r,
                                  cfg.spawn_speed * model.speed_bound
                                  if cfg.spawn_speed > 0 else model.speed_bound,
                                  n_pairs, rng)
        if states is not scenario.states:
            scenario = Scenario(config=scenario.config, states=states,
                                goals=scenario.goals,
                                obstacles=scenario.obstacles)
        return scenario
    return sample


@dataclass
class RolloutState:
    """A resumable environment, so consecutive training segments continue
    the same trajectories instead of restarting every scenario at t=0
    (encounters happen mid-journey, not in the first second)."""
    scenario: Scenario
    states: np.ndarray
    obstacles: tuple
    graph: GraphSnapshot
    steps_done: int = 0
    finished: bool = False

    @staticmethod
    def start(model: dynamics.DynamicsModel, scenario: Scenario) -> "RolloutState":
        cfgs = scenario.config
        states = scenario.states.copy()
        obstacles = tuple(scenario.obstacles)
        R = cfgs.sensing_radius
        scans = world.scan_all(states[:, :model.space_dim], obstacles,
                               world.N_RAYS_DEFAULT, R)
        graph = build_graph(model, states, scenario.goals, scans, R)
        return RolloutState(scenario=scenario, states=states,
                            obstacles=obstacles, graph=graph)


def advance_rollout(model: dynamics.DynamicsModel, policy: PolicyParams | None,
                    env: RolloutState, length: int, eps: float,
                    rng: np.random.Generator) -> list[TrainSample]:
    """Advance a rollout by up to `length` steps, collecting samples.

    Each step draws once: with probability eps every agent applies its
    nominal control, otherwise every agent applies the learned policy.
    The rollout finishes when every agent stands at its goal or the
    scenario horizon runs out.
    """
    if not (0.0 <= eps <= 1.0):
        raise ValueError("eps must lie in [0, 1]")
    cfgs = env.scenario.config
    R = cfgs.sensing_radius
    goals = env.scenario.goals
    samples: list[TrainSample] = []
    for _ in range(length):
        if env.finished:
            break
        u_nom = dynamics.nominal_control_batch(model, env.states, goals, cfgs.dt)
        if policy is None or rng.random() < eps:
            u_apply = u_nom
        else:
            u_apply = nets.policy_controls(policy, env.graph, u_nom,
                                           model.control_bound)
        labels = label_all(env.graph, cfgs.r)
        stepped = step_world(model, env.states, u_apply, env.obstacles, goals,
                             cfgs.dt, cfgs.r)
        env.states, env.obstacles = stepped.states, stepped.obstacles
        scans = world.scan_all(env.states[:, :model.space_dim], env.obstacles,
                               world.N_RAYS_DEFAULT, R)
        next_graph = build_graph(model, env.states, goals, scans, R)
        samples.append(TrainSample(graph_k=env.graph, graph_k1=next_graph,
                                   labels=labels, u_applied=u_apply,
                                   u_nom=u_nom, dt=cfgs.dt))
        env.graph = next_graph
        env.steps_done += 1
        if stepped.all_reached or env.steps_done >= cfgs.horizon:
            env.finished = True
    return samples


def collect_rollout(model: dynamics.DynamicsModel, policy: PolicyParams | None,
                    scenario: Scenario, length: int, eps: float,
                    rng: np.random.Generator) -> list[TrainSample]:
    """Roll the mixed policy out for `length` steps from the scenario start."""
    return advance_rollout(model, policy, RolloutState.start(model, scenario),
                           length, eps, rng)


def barrier_h_fn(params: BarrierParams):
    def h_fn(graph: GraphSnapshot) -> np.ndarray:
        return nets.barrier_values(params, graph)[0]
    return h_fn


def hdot_estimate(h_fn, graph_a: GraphSnapshot, graph_b: GraphSnapshot,
                  dt: float) -> np.ndarray:
    """Finite-difference certificate derivative between two graphs."""
    return (h_fn(graph_b) - h_fn(graph_a)) / dt


# --- batched loss ---------------------------------------------------------

@dataclass
class _Batch:
    X: np.ndarray           # (T, state_dim) stacked states at t_k
    u_nom: np.ndarray       # (T, m)
    labels: np.ndarray      # (T,)
    feat_k: np.ndarray      # (E, d) edge features at t_k
    flag_k: np.ndarray
    seg_k: np.ndarray       # destination rows
    hit_emb: np.ndarray     # (H, d) frozen hit-node embeddings
    blocks: list[tuple[int, int]]   # (row offset, n_agents) per sample
    dt: float


def _assemble(samples: list[TrainSample]) -> _Batch:
    model = samples[0].graph_k.model
    offset = 0
    X, unom, labels, feats, flags, segs = [], [], [], [], [], []
    hit_embs = []
    blocks = []
    for s in samples:
        g = s.graph_k
        n = g.n_agents
        X.append(g.states)
        unom.append(s.u_nom)
        labels.append(s.labels)
        feats.append(g.edge_feat)
        flags.append(g.edge_flag)
        segs.append(g.edge_dst + offset)
        if g.hit_pos.shape[0]:
            hit_embs.append(dynamics.hit_embedding(model, g.hit_pos))
        blocks.append((offset, n))
        offset += n
    d = dynamics.edge_feature_dim(model)
    return _Batch(
        X=np.concatenate(X, axis=0),
        u_nom=np.concatenate(unom, axis=0),
        labels=np.concatenate(labels),
        feat_k=np.concatenate(feats, axis=0) if feats else np.zeros((0, d)),
        flag_k=np.concatenate(flags) if flags else np.zeros(0),
        seg_k=np.concatenate(segs).astype(np.intp) if segs else np.zeros(0, dtype=np.intp),
        hit_emb=np.concatenate(hit_embs, axis=0) if hit_embs else np.zeros((0, d)),
        blocks=blocks, dt=samples[0].dt)


def _virtual_edges(samples: list[TrainSample], blocks: list[tuple[int, int]],
                   pos1: np.ndarray, R: float) -> InEdges:
    """In-edges of every batch row at the virtual next positions pos1, hits
    frozen: one in_edges call per sample block, then every block's agent
    edges ahead of every block's hit edges, in batch numbering."""
    parts, n_hits = [], 0
    for s, (off, n) in zip(samples, blocks):
        p = pos1[off:off + n]
        e = world.in_edges(p, np.arange(n), p, s.graph_k.hit_owner, R)
        agent = e.src >= 0
        parts.append((e.dst + off, np.where(agent, e.src + off, -1),
                      np.where(agent, -1, e.hit + n_hits)))
        n_hits += s.graph_k.hit_pos.shape[0]
    dst, src, hit = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(src < 0, kind="stable")
    return InEdges(np.arange(pos1.shape[0]), dst[order], src[order], hit[order])


def loss(barrier: BarrierParams, policy: PolicyParams,
         samples: list[TrainSample], model: dynamics.DynamicsModel,
         cfg: TrainConfig) -> tuple[Tensor, dict]:
    """Weighted hinge loss over one batch of samples.

    Safe samples pay for certificate margins below gamma, unsafe samples
    for margins above -gamma, safe-and-buffer samples for derivative
    condition violations, and every sample for deviation from the nominal
    control.  Returns (scalar tensor, per-term floats).
    """
    if not samples:
        raise ValueError("empty batch")
    batch = _assemble(samples)
    R = samples[0].graph_k.R
    T = batch.X.shape[0]
    dt = batch.dt

    feat_k = Tensor(batch.feat_k)
    u_nom_t = Tensor(batch.u_nom)
    U = nets.policy_forward_edges(policy, feat_k, batch.flag_k, batch.seg_k,
                                  T, u_nom_t, model.control_bound)
    h_k, _ = nets.barrier_forward_edges(barrier, feat_k, batch.flag_k,
                                        batch.seg_k, T)

    X1 = dynamics.virtual_step_tensor(model, batch.X, U, dt)
    edges = _virtual_edges(samples, batch.blocks, X1.data[:, :model.space_dim], R)
    emb1 = dynamics.state_embedding_tensor(model, X1)
    feat_1 = world.edge_features(edges, emb1, emb1, batch.hit_emb)
    h_k1, _ = nets.barrier_forward_edges(barrier, feat_1, edges.flag, edges.dst, T)

    hdot = ad.mul(ad.sub(h_k1, h_k), 1.0 / dt)

    safe = (batch.labels == LABEL_SAFE).astype(np.float64)[:, None]
    unsafe = (batch.labels == LABEL_UNSAFE).astype(np.float64)[:, None]
    if cfg.deriv_hinge_on_buffer:
        deriv_mask = (batch.labels != LABEL_UNSAFE).astype(np.float64)[:, None]
    else:
        deriv_mask = safe

    # each term is a class-conditional mean: unsafe samples are a few
    # percent of any on-policy batch, and summed hinges let the majority
    # terms flatten the certificate before the minority can carve the
    # unsafe region (the weights then set pressure ratios directly)
    l_safe = ad.mul(ad.tensor_sum(ad.mul(ad.relu(ad.sub(cfg.gamma, h_k)), safe)),
                    1.0 / max(safe.sum(), 1.0))
    l_unsafe = ad.mul(ad.tensor_sum(ad.mul(ad.relu(ad.add(cfg.gamma, h_k)), unsafe)),
                      1.0 / max(unsafe.sum(), 1.0))
    raw = ad.sub(cfg.gamma, ad.add(hdot, ad.mul(cfg.alpha, h_k)))
    l_deriv = ad.mul(ad.tensor_sum(ad.mul(ad.relu(raw), deriv_mask)),
                     1.0 / max(deriv_mask.sum(), 1.0))
    l_ctrl = ad.mul(ad.tensor_sum(ad.norm2(ad.sub(U, u_nom_t), axis=1, keepdims=True)),
                    1.0 / T)

    total = ad.add(
        ad.add(ad.mul(cfg.eta_safe, l_safe), ad.mul(cfg.eta_unsafe, l_unsafe)),
        ad.add(ad.mul(cfg.eta_deriv, l_deriv), ad.mul(cfg.eta_ctrl, l_ctrl)))
    parts = {
        "loss_safe": cfg.eta_safe * l_safe.item(),
        "loss_unsafe": cfg.eta_unsafe * l_unsafe.item(),
        "loss_deriv": cfg.eta_deriv * l_deriv.item(),
        "loss_ctrl": cfg.eta_ctrl * l_ctrl.item(),
    }
    parts["loss_total"] = sum(parts.values())
    return total, parts


class Adam:
    def __init__(self, params: list[Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


@dataclass
class TrainResult:
    barrier: BarrierParams
    policy: PolicyParams
    history: list[dict]
    model: dynamics.DynamicsModel


def _write_log(path, history):
    fields = ["step", "loss_total", "loss_safe", "loss_unsafe", "loss_deriv",
              "loss_ctrl", "epsilon"]
    new = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        if new:
            w.writeheader()
        for row in history:
            w.writerow({k: row[k] for k in fields})


def train(cfg: TrainConfig, sampler=None, out_dir: str | None = None,
          log_every: int = 50) -> TrainResult:
    """Run the optimization loop; deterministic for a fixed seed.

    Separate Adam optimizers (beta1=0.9, beta2=0.999, eps=1e-8) update the
    certificate and the policy at their own learning rates, one step per
    rollout segment.  Raises TrainingDiverged on a non-finite loss.
    """
    model = dynamics.make_model(cfg.model)
    rng = np.random.default_rng(cfg.seed)
    barrier, policy = nets.init(cfg.seed, cfg.scale,
                                dynamics.edge_feature_dim(model),
                                model.control_dim)
    opt_h = Adam(barrier.tensors(), cfg.lr_h)
    opt_pi = Adam(policy.tensors(), cfg.lr_pi)
    if sampler is None:
        sampler = scenario_sampler(cfg)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    history: list[dict] = []
    pending: list[dict] = []
    log_path = os.path.join(out_dir, "train_log.csv") if out_dir else None
    env: RolloutState | None = None
    for step in range(cfg.steps):
        eps = epsilon_schedule(step, cfg.steps)
        samples: list[TrainSample] = []
        while len(samples) < cfg.rollout_length:
            if env is None or env.finished:
                env = RolloutState.start(model, sampler(rng))
            samples += advance_rollout(model, policy, env,
                                       cfg.rollout_length - len(samples),
                                       eps, rng)
        opt_h.zero_grad()
        opt_pi.zero_grad()
        with Tape() as tape:
            total, parts = loss(barrier, policy, samples, model, cfg)
            if not np.isfinite(total.item()):
                raise TrainingDiverged(
                    f"non-finite loss at step {step}",
                    {"step": step, "parts": parts, "epsilon": eps,
                     "scenario_seed": env.scenario.config.seed})
            tape.backward(total)
        opt_h.step()
        opt_pi.step()
        row = {"step": step, "epsilon": eps, **parts}
        history.append(row)
        pending.append(row)
        if log_path and len(pending) >= log_every:
            _write_log(log_path, pending)
            pending = []
        if out_dir and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
            nets.save_checkpoint(os.path.join(out_dir, f"ckpt_{step + 1:07d}.npz"),
                                 barrier, policy, cfg.model, step + 1)
    if log_path and pending:
        _write_log(log_path, pending)
    if out_dir:
        nets.save_checkpoint(os.path.join(out_dir, "ckpt_final.npz"),
                             barrier, policy, cfg.model, cfg.steps)
    return TrainResult(barrier=barrier, policy=policy, history=history, model=model)


# --- held-out diagnostics --------------------------------------------------

def derivative_violation_fraction(barrier: BarrierParams,
                                  samples: list[TrainSample],
                                  cfg: TrainConfig) -> float:
    """Fraction of non-unsafe samples violating the derivative condition
    along the recorded rollout (finite difference on the stored graphs)."""
    h_fn = barrier_h_fn(barrier)
    total, bad = 0, 0
    for s in samples:
        h = h_fn(s.graph_k)
        hd = (h_fn(s.graph_k1) - h) / s.dt
        mask = s.labels != LABEL_UNSAFE if cfg.deriv_hinge_on_buffer \
            else s.labels == LABEL_SAFE
        raw = cfg.gamma - hd - cfg.alpha * h
        bad += int((raw[mask] > 0.0).sum())
        total += int(mask.sum())
    return bad / max(total, 1)


def classification_data(barrier: BarrierParams,
                        samples: list[TrainSample]) -> tuple[np.ndarray, np.ndarray]:
    """Certificate values and labels on safe/unsafe rows (buffer dropped)."""
    h_fn = barrier_h_fn(barrier)
    hs, ys = [], []
    for s in samples:
        h = h_fn(s.graph_k)
        keep = s.labels != world.LABEL_BUFFER
        hs.append(h[keep])
        ys.append(s.labels[keep])
    return np.concatenate(hs), np.concatenate(ys)
