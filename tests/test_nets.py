import dataclasses

import numpy as np
import pytest

import swarmcbf.autodiff as ad
from swarmcbf import dynamics as dyn, evaluation, nets, runtime, training, world
from swarmcbf.autodiff import Tape, Tensor

import reference_ops

CAR = dyn.make_model("SimpleCar")
EDGE_DIM = dyn.edge_feature_dim(CAR)


def fresh(seed=0, scale=0.125):
    return nets.init(seed, scale, EDGE_DIM, CAR.control_dim)


def random_graph(rng, n=6, side=2.0, R=1.0):
    states = rng.uniform(0, side, size=(n, 4))
    states[:, 2:] = rng.normal(size=(n, 2)) * 0.3
    goals = rng.uniform(0, side, size=(n, 2))
    return world.build_graph(CAR, states, goals, None, R)


def test_init_deterministic():
    b1, p1 = fresh(seed=9)
    b2, p2 = fresh(seed=9)
    for t1, t2 in zip(b1.tensors() + p1.tensors(), b2.tensors() + p2.tensors()):
        assert np.array_equal(t1.data, t2.data)


def test_full_scale_widths():
    b, p = nets.init(0, 1.0, EDGE_DIM, 2)
    assert b.embed.weights[0].shape == (1 + EDGE_DIM, 2048)
    assert b.embed.weights[2].shape == (2048, 256)
    assert b.gate.weights[0].shape == (256, 128)
    assert b.value.weights[2].shape == (2048, 1024)
    assert [w.shape[1] for w in b.head.weights] == [512, 128, 32, 1]
    assert p.head.weights[0].shape == (1024 + 2, 512)
    assert p.head.weights[-1].shape == (32, 2)


def test_desk_scale_widths():
    b, _ = nets.init(0, 0.125, EDGE_DIM, 2)
    assert b.embed.weights[0].shape == (1 + EDGE_DIM, 256)
    assert b.gate.weights[0].shape[1] == 16
    assert [w.shape[1] for w in b.head.weights] == [64, 16, 4, 1]


def test_single_edge_attention_is_one():
    b, _ = fresh()
    g = world.build_graph(CAR, np.array([[0, 0, 0, 0], [0.4, 0, 0, 0.0]]),
                          np.zeros((2, 2)), None, 1.0)
    h, attn = nets.barrier_values(b, g)
    assert np.allclose(attn, 1.0)


def test_duplicate_edge_halves_attention_same_h():
    b, _ = fresh()
    feat = np.array([[0.3, 0.1, 0.0, 0.2]])
    flag = np.zeros(1)
    h1, _ = nets.barrier_forward_edges(b, Tensor(feat), flag,
                                       np.zeros(1, dtype=np.intp), 1)
    feat2 = np.repeat(feat, 2, axis=0)
    h2, attn2 = nets.barrier_forward_edges(b, Tensor(feat2), np.zeros(2),
                                           np.zeros(2, dtype=np.intp), 1)
    assert np.allclose(attn2.data, 0.5)
    assert h2.data[0, 0] == pytest.approx(h1.data[0, 0], abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_permutation_invariance_and_attention_norm(seed):
    rng = np.random.default_rng(seed)
    b, p = fresh(seed=seed)
    g = random_graph(rng)
    h, attn = nets.barrier_values(b, g)
    # attention sums to one per agent with in-edges
    for i in range(g.n_agents):
        rows = g.in_edges(i)
        if rows.size:
            assert abs(attn[rows].sum() - 1.0) < 1e-12
    # permute edges
    perm = rng.permutation(g.n_edges)
    h2, _ = nets.barrier_forward_edges(b, Tensor(g.edge_feat[perm]),
                                       g.edge_flag[perm], g.edge_dst[perm],
                                       g.n_agents)
    assert np.max(np.abs(h2.data.ravel() - h)) < 1e-10
    u_nom = rng.normal(size=(g.n_agents, 2))
    u1 = nets.policy_controls(p, g, u_nom, 10.0)
    u2 = nets.policy_forward_edges(p, Tensor(g.edge_feat[perm]), g.edge_flag[perm],
                                   g.edge_dst[perm], g.n_agents, Tensor(u_nom),
                                   10.0).data
    assert np.max(np.abs(u1 - u2)) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_locality_out_of_range_perturbation(seed):
    rng = np.random.default_rng(100 + seed)
    b, p = fresh(seed=seed)
    states = np.array([[0.0, 0, 0, 0], [0.5, 0, 0, 0], [5.0, 5.0, 0, 0]])
    goals = rng.uniform(0, 2, size=(3, 2))
    g1 = world.build_graph(CAR, states, goals, None, 1.0)
    states2 = states.copy()
    states2[2] += rng.normal(size=4)   # far agent moves; stays out of range
    g2 = world.build_graph(CAR, states2, goals, None, 1.0)
    h1, _ = nets.barrier_values(b, g1)
    h2, _ = nets.barrier_values(b, g2)
    assert h1[0] == h2[0] and h1[1] == h2[1]
    u_nom = rng.normal(size=(3, 2))
    a1 = nets.policy_controls(p, g1, u_nom, 10.0)
    a2 = nets.policy_controls(p, g2, u_nom, 10.0)
    assert np.array_equal(a1[:2], a2[:2])


def test_zero_init_policy_equals_nominal():
    rng = np.random.default_rng(2)
    _, p = fresh(seed=5)
    g = random_graph(rng)
    u_nom = rng.normal(size=(g.n_agents, 2))
    out = nets.policy_controls(p, g, u_nom, 10.0)
    assert np.array_equal(out, np.clip(u_nom, -10, 10))


def test_policy_controls_of_some_rows_match_all_rows():
    """rows= runs the policy on those agents' in-edges only; each row
    equals that agent's control from the whole graph."""
    rng = np.random.default_rng(3)
    _, p = fresh(seed=4)
    for t in p.head.weights:        # the fresh head returns u_nom exactly
        t.data += 0.1 * rng.normal(size=t.data.shape)
    g = random_graph(rng, n=12, side=1.5)
    u_nom = rng.normal(size=(g.n_agents, 2))
    every = nets.policy_controls(p, g, u_nom, 10.0)
    assert not np.allclose(every, u_nom)
    isolated = np.setdiff1d(np.arange(g.n_agents), g.edge_dst)
    for rows in (np.array([5]), np.array([0, 3, 4, 11]), np.arange(g.n_agents),
                 np.concatenate([isolated, [int(g.edge_dst[0])]]),
                 np.array([], dtype=np.intp)):
        got = nets.policy_controls(p, g, u_nom, 10.0, rows=rows)
        assert got.shape == (len(rows), 2)
        np.testing.assert_allclose(got, every[rows], rtol=0, atol=1e-12)


def test_isolated_agent_zero_aggregate():
    b, p = fresh()
    g = world.build_graph(CAR, np.array([[0.0, 0, 0, 0]]), np.zeros((1, 2)),
                          None, 1.0)
    h, attn = nets.barrier_values(b, g)
    # h is the head of the zero vector: equals its value on explicit zeros
    agg = Tensor(np.zeros((1, b.value.weights[-1].shape[1])))
    expected = nets.mlp_forward(b.head, agg).data[0, 0]
    assert h[0] == pytest.approx(expected, abs=0)
    u = nets.policy_controls(p, g, np.array([[0.3, -0.2]]), 10.0)
    assert np.allclose(u, [[0.3, -0.2]])


def test_gradient_reaches_neighbor_state():
    """h_i must respond to changes of a neighbor within range."""
    b, _ = fresh(seed=3)
    states = np.array([[0.0, 0, 0, 0], [0.4, 0.1, 0, 0]])
    g = world.build_graph(CAR, states, np.zeros((2, 2)), None, 1.0)
    h0, _ = nets.barrier_values(b, g)
    states2 = states.copy()
    states2[1, 0] += 1e-4
    g2 = world.build_graph(CAR, states2, np.zeros((2, 2)), None, 1.0)
    h1, _ = nets.barrier_values(b, g2)
    assert abs(h1[0] - h0[0]) > 1e-12


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(8)
    b, p = fresh(seed=11)
    for t in b.tensors() + p.tensors():
        t.data += rng.normal(size=t.data.shape) * 0.01
    path = tmp_path / "ckpt.npz"
    nets.save_checkpoint(path, b, p, "SimpleCar", step=123)
    b2, p2, meta = nets.load_checkpoint(path)
    assert meta == {"model": "SimpleCar", "scale": 0.125, "step": 123,
                    "edge_dim": EDGE_DIM, "control_dim": 2}
    for t1, t2 in zip(b.tensors() + p.tensors(), b2.tensors() + p2.tensors()):
        assert np.array_equal(t1.data, t2.data)
    g = random_graph(np.random.default_rng(0))
    h1, _ = nets.barrier_values(b, g)
    h2, _ = nets.barrier_values(b2, g)
    assert np.array_equal(h1, h2)


def _per_layer_mlp_forward(p, x):
    """mlp_forward as matmul, add and relu tape ops per layer: the reference
    the fused ad.mlp op must match bit for bit."""
    return reference_ops.mlp(x, p.weights, p.biases)


# each fused op against its per-op reference, one at a time
_REFERENCES = [(nets, "mlp_forward", _per_layer_mlp_forward),
               (ad, "attention_aggregate", reference_ops.attention_aggregate)]


def _bitwise(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_obstacles", [0, 4])
def test_training_loss_and_grads_match_per_layer_mlp(monkeypatch, n_obstacles):
    cfg = training.TrainConfig.for_model(
        "SimpleCar", n_agents=8, side_length=3.0, scale=0.125, steps=1,
        rollout_length=8, seed=0, n_obstacles=n_obstacles, point_obstacles=False)
    barrier, policy = fresh(seed=2)
    rng = np.random.default_rng(6)
    for t in policy.tensors():
        t.data += rng.normal(size=t.data.shape) * 0.05
    scn = training.scenario_sampler(cfg)(np.random.default_rng(3))
    samples = training.collect_rollout(CAR, policy, scn, 8, 0.5,
                                       np.random.default_rng(4))
    hits = sum(s.graph_k.hit_pos.shape[0] for s in samples)
    assert (hits > 0) == (n_obstacles > 0)
    params = barrier.tensors() + policy.tensors()

    def loss_and_grads():
        for p in params:
            p.grad = None
        with Tape() as tape:
            total, _ = training.loss(barrier, policy, samples, CAR, cfg)
            tape.backward(total)
        return [total.data] + [p.grad for p in params]

    got = loss_and_grads()
    for owner, name, reference in _REFERENCES:
        with monkeypatch.context() as m:
            m.setattr(owner, name, reference)
            want = loss_and_grads()
        assert sum(g is not None for g in got) > len(params) // 2
        assert all(_bitwise(g, w) for g, w in zip(got, want))


def test_select_control_matches_per_layer_mlp(monkeypatch):
    """A few closed-loop steps of 64 cars among 16 obstacles with untrained
    desk nets, which flag and refine agents."""
    cfg = world.make_scenario_config("SimpleCar", 64, "obstacles", 64000,
                                     n_obstacles=16)
    scn = world.generate_scenario(cfg)
    scn = dataclasses.replace(scn, config=dataclasses.replace(cfg, horizon=4))
    barrier, policy = nets.init(0, 0.125, EDGE_DIM, CAR.control_dim)
    spec = evaluation.ControllerSpec(kind="learned", barrier=barrier, policy=policy)
    select_control = runtime.select_control

    def decisions():
        steps = []

        def recorded(*args, **kwargs):
            out = select_control(*args, **kwargs)
            steps.append(out)
            return out

        with monkeypatch.context() as m:
            m.setattr(runtime, "select_control", recorded)
            evaluation.simulate_run(scn, spec)
        return [(np.stack([d.control for d in out]), [d.mode for d in out],
                 np.array([d.h_value for d in out]),
                 np.array([d.hdot_value for d in out])) for out in steps]

    got = decisions()
    for owner, name, reference in _REFERENCES:
        with monkeypatch.context() as m:
            m.setattr(owner, name, reference)
            want = decisions()
        assert len(got) == len(want) == 4
        assert any(mode == "refined" for _, modes, _, _ in got for mode in modes)
        for (u, modes, h, hdot), (u0, modes0, h0, hdot0) in zip(got, want):
            assert modes == modes0
            assert _bitwise(u, u0) and _bitwise(h, h0) and _bitwise(hdot, hdot0)
