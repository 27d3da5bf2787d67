import numpy as np
import pytest

import swarmcbf.autodiff as ad
from swarmcbf import dynamics as dyn, nets, training, world
from swarmcbf.autodiff import Tape, Tensor
from swarmcbf.training import TrainConfig, collect_rollout, hdot_estimate, loss

CAR = dyn.make_model("SimpleCar")


def desk_cfg(**kw):
    base = dict(n_agents=4, side_length=2.0, scale=0.125, steps=2,
                rollout_length=8, seed=0)
    base.update(kw)
    return TrainConfig.for_model("SimpleCar", **base)


def small_scenario(seed=0, n=4, side=2.0):
    cfg = world.make_scenario_config("SimpleCar", n, "keep_density", seed,
                                     side_length=side)
    return world.generate_scenario(cfg)


def test_config_table_defaults():
    car = TrainConfig.for_model("SimpleCar")
    dub = TrainConfig.for_model("DubinsCar")
    drn = TrainConfig.for_model("SimpleDrone")
    assert (car.alpha, car.gamma) == (1.0, 0.02)
    assert (car.eta_safe, car.eta_unsafe) == (1.0, 1.0)
    assert (car.eta_deriv, car.eta_ctrl) == (0.5, 0.05)
    assert (drn.eta_deriv, drn.eta_ctrl) == (0.5, 0.05)
    assert (dub.eta_deriv, dub.eta_ctrl) == (0.2, 0.0001)
    assert car.lr_h == 3e-4 and car.lr_pi == 1e-3
    assert car.rollout_length == 256


def test_config_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        TrainConfig(gamma=0.0)


def test_epsilon_schedule_linear():
    assert training.epsilon_schedule(0, 100) == 1.0
    assert training.epsilon_schedule(50, 100) == 0.5
    assert training.epsilon_schedule(100, 100) == 0.0
    assert training.epsilon_schedule(150, 100) == 0.0


def test_rollout_eps_one_applies_nominal():
    cfg = desk_cfg()
    scn = small_scenario()
    _, policy = nets.init(1, 0.125, 4, 2)
    for t in policy.head.weights + policy.head.biases:
        t.data = np.random.default_rng(0).normal(size=t.data.shape)  # non-residual head
    rng = np.random.default_rng(0)
    samples = collect_rollout(CAR, policy, scn, 6, 1.0, rng)
    for s in samples:
        assert np.array_equal(s.u_applied, s.u_nom)


def test_rollout_eps_zero_applies_policy():
    scn = small_scenario()
    _, policy = nets.init(1, 0.125, 4, 2)
    rng = np.random.default_rng(0)
    samples = collect_rollout(CAR, policy, scn, 6, 0.0, rng)
    for s in samples:
        expected = nets.policy_controls(policy, s.graph_k, s.u_nom, CAR.control_bound)
        assert np.array_equal(s.u_applied, expected)


def test_rollout_graphs_are_consecutive():
    scn = small_scenario()
    rng = np.random.default_rng(0)
    samples = collect_rollout(CAR, None, scn, 5, 1.0, rng)
    for a, b in zip(samples[:-1], samples[1:]):
        assert np.array_equal(a.graph_k1.states, b.graph_k.states)
        expected = dyn.step_batch(CAR, a.graph_k.states, a.u_applied, a.dt)
        assert np.allclose(a.graph_k1.states, expected)


# --- hdot estimator ----------------------------------------------------------

def linear_probe(weights):
    """h_i = sum over in-edges of w . e_ij: linear in the features."""
    def h_fn(graph):
        out = np.zeros(graph.n_agents)
        for k in range(graph.n_edges):
            out[graph.edge_dst[k]] += weights @ graph.edge_feat[k]
        return out
    return h_fn


def test_hdot_arithmetic():
    class G:  # placeholder graphs for a scalar probe
        def __init__(self, v):
            self.v = v
    h_fn = lambda g: np.array([g.v])
    out = hdot_estimate(h_fn, G(0.10), G(0.13), 0.03)
    assert out[0] == pytest.approx(1.0)


def test_hdot_static_graph_exactly_zero():
    scn = small_scenario()
    g = world.build_graph(CAR, scn.states, scn.goals, None, 1.0)
    h_fn = linear_probe(np.array([1.0, -0.5, 0.25, 2.0]))
    out = hdot_estimate(h_fn, g, g, 0.03)
    assert np.all(out == 0.0)


def test_hdot_matches_analytic_slope_on_linear_probe():
    """Agents drifting at constant velocity make the probe linear in time."""
    w = np.array([0.7, -0.3, 0.2, 0.1])
    states = np.array([[0.0, 0.0, 0.10, 0.00],
                       [0.5, 0.0, -0.10, 0.05]])
    goals = np.zeros((2, 2))
    dt = 0.03
    next_states = dyn.step_batch(CAR, states, np.zeros((2, 2)), dt)
    g0 = world.build_graph(CAR, states, goals, None, 2.0)
    g1 = world.build_graph(CAR, next_states, goals, None, 2.0)
    # analytic: d/dt e_ij = [dvx, dvy, 0, 0], so hdot_i = sum w[:2] . dv
    dv = states[1, 2:] - states[0, 2:]
    expected0 = w[:2] @ dv
    expected1 = w[:2] @ (-dv)
    out = hdot_estimate(linear_probe(w), g0, g1, dt)
    assert out[0] == pytest.approx(expected0, abs=1e-9)
    assert out[1] == pytest.approx(expected1, abs=1e-9)


# --- loss ---------------------------------------------------------------------

def make_sample(labels, gap=0.5, vel=0.0):
    states = np.array([[0.0, 0, vel, 0], [gap, 0, -vel, 0]], dtype=float)
    goals = np.array([[2.0, 0.0], [-1.0, 0.0]])
    g0 = world.build_graph(CAR, states, goals, None, 1.0)
    u = np.zeros((2, 2))
    nxt = dyn.step_batch(CAR, states, u, 0.03)
    g1 = world.build_graph(CAR, nxt, goals, None, 1.0)
    return training.TrainSample(graph_k=g0, graph_k1=g1,
                                labels=np.array(labels, dtype=np.int8),
                                u_applied=u, u_nom=u, dt=0.03)


def _set_constant_h(barrier, value):
    """Zero the head so h == value everywhere (bias-only output)."""
    for W in barrier.head.weights:
        W.data[:] = 0.0
    for b in barrier.head.biases:
        b.data[:] = 0.0
    barrier.head.biases[-1].data[:] = value


def test_loss_hinge_examples():
    cfg = desk_cfg()
    barrier, policy = nets.init(0, 0.125, 4, 2)

    # safe sample, h = 0.5: classification hinge is zero
    _set_constant_h(barrier, 0.5)
    s = make_sample([world.LABEL_SAFE, world.LABEL_BUFFER])
    _, parts = loss(barrier, policy, [s], CAR, cfg)
    assert parts["loss_safe"] == 0.0

    # safe sample, h = -0.01: hinge = gamma - h = 0.03
    _set_constant_h(barrier, -0.01)
    _, parts = loss(barrier, policy, [s], CAR, cfg)
    assert parts["loss_safe"] == pytest.approx(cfg.eta_safe * 0.03)

    # unsafe sample, h = -0.5: unsafe hinge zero
    _set_constant_h(barrier, -0.5)
    s2 = make_sample([world.LABEL_UNSAFE, world.LABEL_BUFFER], gap=0.05)
    _, parts = loss(barrier, policy, [s2], CAR, cfg)
    assert parts["loss_unsafe"] == 0.0


def test_loss_buffer_excluded_from_classification():
    """Relabeling a sample to buffer removes exactly its classification
    terms, leaving derivative and deviation terms."""
    cfg = desk_cfg()
    barrier, policy = nets.init(3, 0.125, 4, 2)
    s_safe = make_sample([world.LABEL_SAFE, world.LABEL_SAFE], gap=0.5)
    s_buf = make_sample([world.LABEL_BUFFER, world.LABEL_BUFFER], gap=0.5)
    _, p_safe = loss(barrier, policy, [s_safe], CAR, cfg)
    _, p_buf = loss(barrier, policy, [s_buf], CAR, cfg)
    assert p_buf["loss_safe"] == 0.0 and p_buf["loss_unsafe"] == 0.0
    assert p_buf["loss_deriv"] == pytest.approx(p_safe["loss_deriv"])
    assert p_buf["loss_ctrl"] == pytest.approx(p_safe["loss_ctrl"])


def test_loss_deriv_hinge_buffer_knob():
    cfg_on = desk_cfg(deriv_hinge_on_buffer=True)
    cfg_off = desk_cfg(deriv_hinge_on_buffer=False)
    barrier, policy = nets.init(3, 0.125, 4, 2)
    s_buf = make_sample([world.LABEL_BUFFER, world.LABEL_BUFFER], gap=0.5)
    _, p_on = loss(barrier, policy, [s_buf], CAR, cfg_on)
    _, p_off = loss(barrier, policy, [s_buf], CAR, cfg_off)
    assert p_off["loss_deriv"] == 0.0
    assert p_on["loss_deriv"] >= 0.0


def test_loss_nonnegative_terms():
    cfg = desk_cfg()
    rng = np.random.default_rng(5)
    barrier, policy = nets.init(7, 0.125, 4, 2)
    for t in policy.tensors():
        t.data += rng.normal(size=t.data.shape) * 0.05
    scn = small_scenario(seed=2, side=1.2)
    samples = collect_rollout(CAR, policy, scn, 6, 0.5, np.random.default_rng(1))
    _, parts = loss(barrier, policy, samples, CAR, cfg)
    for key in ("loss_safe", "loss_unsafe", "loss_deriv", "loss_ctrl"):
        assert parts[key] >= 0.0
    assert parts["loss_total"] >= 0.0


def test_loss_gradient_matches_finite_differences():
    """Full loss on a 3-agent micro-batch against central differences."""
    cfg = desk_cfg()
    rng = np.random.default_rng(8)
    barrier, policy = nets.init(2, 0.125, 4, 2)
    for t in barrier.tensors() + policy.tensors():
        t.data += rng.normal(size=t.data.shape) * 0.01
    scn = small_scenario(seed=4, n=3, side=0.8)
    samples = collect_rollout(CAR, policy, scn, 3, 0.5, np.random.default_rng(2))
    params = barrier.tensors() + policy.tensors()

    def f():
        total, _ = loss(barrier, policy, samples, CAR, cfg)
        return total

    err = ad.grad_check(f, params, max_coords=2, rng=rng)
    assert err < 1e-4


def test_desk_loss_tape_stays_small():
    """One record per network MLP and per attention step: the desk loss
    records 68 ops (86 when attention was seven per-op records)."""
    cfg = desk_cfg(n_agents=8, side_length=3.0)
    barrier, policy = nets.init(0, cfg.scale, 4, 2)
    scn = training.scenario_sampler(cfg)(np.random.default_rng(0))
    samples = collect_rollout(CAR, policy, scn, 8, 0.5, np.random.default_rng(1))
    with Tape() as tape:
        total, _ = loss(barrier, policy, samples, CAR, cfg)
        tape.backward(total)
    assert len(tape) <= 70


def test_neighbor_gradient_reaches_policy():
    """A safe two-agent sample with an active derivative hinge must push
    gradient into the policy parameters through the virtual step."""
    cfg = desk_cfg()
    barrier, policy = nets.init(4, 0.125, 4, 2)
    rng = np.random.default_rng(0)
    for t in policy.tensors():
        t.data += rng.normal(size=t.data.shape) * 0.05
    s = make_sample([world.LABEL_SAFE, world.LABEL_SAFE], gap=0.45, vel=0.4)
    with Tape() as tape:
        total, parts = loss(barrier, policy, [s], CAR, cfg)
        tape.backward(total)
    if parts["loss_deriv"] == 0.0:
        _set_constant_h(barrier, 0.0)   # forces the hinge active: gamma > 0
        for t in barrier.tensors() + policy.tensors():
            t.grad = None
        with Tape() as tape:
            total, parts = loss(barrier, policy, [s], CAR, cfg)
            tape.backward(total)
        assert parts["loss_deriv"] > 0.0
    grad_pi = sum(float(np.abs(t.grad).sum()) for t in policy.tensors()
                  if t.grad is not None)
    assert grad_pi > 0.0


def test_loss_mixed_block_sizes_match_per_sample_graphs():
    """Samples of 3 and 5 agents in one batch: the virtual-step topology of
    each block is the agent adjacency build_graph gives that block alone."""
    cfg = desk_cfg()
    barrier, policy = nets.init(5, 0.125, 4, 2)
    rng = np.random.default_rng(11)
    samples = []
    for n in (3, 5, 5, 3):
        states = np.zeros((n, 4))
        states[:, :2] = rng.uniform(0.0, 0.8, size=(n, 2))
        states[:, 2:] = rng.uniform(-0.5, 0.5, size=(n, 2))
        g = world.build_graph(CAR, states, rng.uniform(0, 1, size=(n, 2)), None, 0.5)
        u_nom = dyn.nominal_control_batch(CAR, states, g.goals, 0.03)
        samples.append(training.TrainSample(graph_k=g, graph_k1=g,
                                            labels=world.label_all(g, 0.05),
                                            u_applied=u_nom, u_nom=u_nom, dt=0.03))
    batch = training._assemble(samples)
    pos1 = rng.uniform(0.0, 0.8, size=(batch.X.shape[0], 2))
    edges = training._virtual_edges(samples, batch.blocks, pos1, 0.5)
    dst, src = edges.dst[edges.src >= 0], edges.src[edges.src >= 0]
    expected = []
    for off, n in batch.blocks:
        g = world.build_graph(CAR, np.hstack([pos1[off:off + n], np.zeros((n, 2))]),
                              np.zeros((n, 2)), None, 0.5)
        expected += [(int(i) + off, int(j) + off) for i, j in zip(g.edge_dst, g.edge_src)]
    assert list(zip(dst.tolist(), src.tolist())) == expected
    assert len(expected) > 0
    total, _ = loss(barrier, policy, samples, CAR, cfg)
    assert np.isfinite(total.item())


def test_train_zero_steps_keeps_parameters():
    cfg = desk_cfg(steps=0)
    res = training.train(cfg)
    b0, p0 = nets.init(cfg.seed, cfg.scale, 4, 2)
    for t_res, t_ref in zip(res.barrier.tensors() + res.policy.tensors(),
                            b0.tensors() + p0.tensors()):
        assert np.array_equal(t_res.data, t_ref.data)
    assert res.history == []


def test_train_seed_determinism():
    cfg = desk_cfg(steps=3, rollout_length=6)
    r1 = training.train(cfg)
    r2 = training.train(cfg)
    assert [row["loss_total"] for row in r1.history] == \
           [row["loss_total"] for row in r2.history]
    for a, b in zip(r1.barrier.tensors(), r2.barrier.tensors()):
        assert np.array_equal(a.data, b.data)


def test_train_divergence_aborts_with_diagnostics():
    cfg = desk_cfg(steps=2, rollout_length=4)
    res = training.train(desk_cfg(steps=0))

    def bad_sampler(rng):
        scn = small_scenario(seed=1)
        return scn

    barrier, policy = nets.init(0, 0.125, 4, 2)
    barrier.head.biases[-1].data[:] = np.nan
    # inject the poisoned parameters through a custom train loop entry:
    with pytest.raises(training.TrainingDiverged) as exc:
        samples = collect_rollout(CAR, policy, small_scenario(seed=1), 4, 1.0,
                                  np.random.default_rng(0))
        total, parts = loss(barrier, policy, samples, CAR, cfg)
        if not np.isfinite(total.item()):
            raise training.TrainingDiverged("non-finite loss at step 0",
                                            {"step": 0, "parts": parts})
    assert "step" in exc.value.diagnostics


def test_train_raises_diverged_on_nan_state():
    """A NaN velocity reaches the loss; train() itself must raise the
    documented error with its diagnostics."""
    scn = small_scenario(seed=1)

    def nan_sampler(rng):
        states = scn.states.copy()
        states[0, 2] = np.nan
        return world.Scenario(config=scn.config, states=states, goals=scn.goals,
                              obstacles=scn.obstacles)

    with pytest.raises(training.TrainingDiverged) as exc:
        training.train(desk_cfg(steps=2, rollout_length=4), sampler=nan_sampler)
    diag = exc.value.diagnostics
    assert diag["step"] == 0
    assert diag["scenario_seed"] == scn.config.seed
    assert not np.isfinite(diag["parts"]["loss_total"])


def test_train_writes_log_and_checkpoints(tmp_path):
    cfg = desk_cfg(steps=4, rollout_length=4, checkpoint_every=2)
    training.train(cfg, out_dir=str(tmp_path))
    log = (tmp_path / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,loss_total,loss_safe,loss_unsafe,loss_deriv,loss_ctrl,epsilon"
    assert len(log) == 5
    assert (tmp_path / "ckpt_0000002.npz").exists()
    assert (tmp_path / "ckpt_final.npz").exists()


def test_derivative_violation_fraction_bounds():
    barrier, policy = nets.init(0, 0.125, 4, 2)
    cfg = desk_cfg()
    scn = small_scenario(seed=3, side=1.0)
    samples = collect_rollout(CAR, None, scn, 10, 1.0, np.random.default_rng(0))
    frac = training.derivative_violation_fraction(barrier, samples, cfg)
    assert 0.0 <= frac <= 1.0
    # a certificate growing along every trajectory has no violations:
    # h == large constant makes gamma - hdot - alpha h always negative
    _set_constant_h(barrier, 100.0)
    assert training.derivative_violation_fraction(barrier, samples, cfg) == 0.0
