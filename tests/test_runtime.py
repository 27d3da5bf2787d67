import numpy as np
import pytest

from swarmcbf import autodiff as ad, dynamics as dyn, nets, runtime, training, world
from swarmcbf.runtime import RefineConfig

CAR = dyn.make_model("SimpleCar")


def fresh(seed=0):
    return nets.init(seed, 0.125, dyn.edge_feature_dim(CAR), CAR.control_dim)


def pair_graph(gap=0.2, closing=0.8):
    states = np.array([[-gap / 2, 0, closing, 0], [gap / 2, 0, -closing, 0]])
    goals = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return world.build_graph(CAR, states, goals, None, 1.0)


def test_check_safe_arithmetic():
    """Thresholding is on hdot + alpha h against zero."""
    assert 1.0 + 1.0 * 0.1 >= 0.0           # hdot 1.0, h 0.1 -> safe
    assert not (-0.2 + 1.0 * 0.1 >= 0.0)    # hdot -0.2, h 0.1 -> unsafe
    b, _ = fresh()
    g = pair_graph()
    u_nom = dyn.nominal_control_batch(CAR, g.states, g.goals)
    ok, h, hdot = runtime.check_safe(b, g, u_nom, u_nom, 0.03, 1.0)
    assert np.array_equal(ok, hdot + h >= 0.0)


def test_isolated_agent_check_passes():
    b, _ = fresh()
    states = np.array([[0.0, 0, 0, 0], [50.0, 50, 0, 0]])
    goals = np.array([[0.0, 0.0], [50.0, 50.0]])
    g = world.build_graph(CAR, states, goals, None, 1.0)
    u_nom = dyn.nominal_control_batch(CAR, states, goals)
    ok, h, hdot = runtime.check_safe(b, g, u_nom, u_nom, 0.03, 1.0)
    # both isolated and at rest at their goals: static graph, hdot exactly 0
    assert hdot == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(ok, h >= 0.0)


def test_select_control_empty_neighborhood_nominal():
    b, p = fresh()
    states = np.array([[0.0, 0, 0, 0]])
    goals = np.array([[3.0, 0.0]])
    g = world.build_graph(CAR, states, goals, None, 1.0)
    u_nom = dyn.nominal_control_batch(CAR, states, goals)
    h, _ = nets.barrier_values(b, g)
    decisions = runtime.select_control(b, p, g, u_nom, 0.03, 1.0)
    if h[0] >= 0.0:
        assert decisions[0].mode == "nominal"
        assert np.array_equal(decisions[0].control, u_nom[0])


def test_nominal_mode_reverifies():
    """Every nominal decision must re-pass the detector on the same graph."""
    rng = np.random.default_rng(0)
    b, p = fresh(seed=4)
    for _ in range(10):
        states = rng.uniform(0, 2.5, size=(5, 4))
        states[:, 2:] = rng.normal(size=(5, 2)) * 0.4
        goals = rng.uniform(0, 2.5, size=(5, 2))
        g = world.build_graph(CAR, states, goals, None, 1.0)
        u_nom = dyn.nominal_control_batch(CAR, states, goals)
        decisions = runtime.select_control(b, p, g, u_nom, 0.03, 1.0)
        controls = runtime.decisions_to_controls(decisions)
        ok, _, _ = runtime.check_safe(b, g, controls, u_nom, 0.03, 1.0)
        for i, d in enumerate(decisions):
            if d.mode == "nominal":
                assert ok[i]


def test_head_on_pair_switches_away_from_nominal():
    """Construct a certificate that flags the closing pair: h small and
    shrinking, so the nominal fails the check and both agents switch."""
    b, p = fresh(seed=1)
    g = pair_graph(gap=0.14, closing=0.8)
    u_nom = dyn.nominal_control_batch(CAR, g.states, g.goals)
    ok, h, hdot = runtime.check_safe(b, g, u_nom, u_nom, 0.03, 1.0)
    if ok.all():   # random net: flip sign to force a violation
        for W in b.head.weights:
            W.data *= -1.0
        for bb in b.head.biases:
            bb.data *= -1.0
        ok, h, hdot = runtime.check_safe(b, g, u_nom, u_nom, 0.03, 1.0)
    assert not ok.all()
    decisions = runtime.select_control(b, p, g, u_nom, 0.03, 1.0)
    for i in np.nonzero(~ok)[0]:
        assert decisions[i].mode in ("learned", "refined")


def test_refine_zero_iterations_is_identity():
    b, _ = fresh()
    g = pair_graph()
    u_nom = dyn.nominal_control_batch(CAR, g.states, g.goals)
    u0 = np.array([0.37, -0.21])
    out, _, iters = runtime.refine(b, g, 0, u0, u_nom, 0.03, 1.0,
                                   RefineConfig(max_iters=0))
    assert np.array_equal(out, u0)
    assert iters == 0


def test_refine_noop_when_residue_already_zero():
    calls = []

    def fn(u):
        calls.append(u.copy())
        return 0.0, np.zeros_like(u)

    out, val, iters = runtime.descend_residue(fn, np.array([1.0, 2.0]),
                                              RefineConfig(max_iters=30))
    assert iters == 0 and val == 0.0
    assert np.array_equal(out, [1.0, 2.0])
    assert len(calls) == 1


def test_descent_retires_a_stuck_row():
    """A row whose projected step leaves it in place (a zero gradient, or
    one the clip cancels) is not evaluated again; the other rows descend
    exactly as they would alone."""
    calls = []

    def flat(u):
        calls.append(u.copy())
        return 0.5, np.zeros_like(u)

    cfg = RefineConfig(max_iters=30)
    out, val, iters = runtime.descend_residue(flat, np.array([1.0, 2.0]), cfg)
    assert len(calls) == 1 and iters == 0
    assert np.array_equal(out, [1.0, 2.0]) and val == 0.5

    target = np.array([0.3, -0.7])

    def rows_fn(active, U):
        calls.append(active.copy())
        d = U - target
        vals = (d * d).sum(axis=1)
        grads = 2 * d
        grads[active == 1] = 0.0                # row 1: zero gradient
        grads[active == 2] = [-1.0, 0.0]        # row 2: pushed past the clip
        return vals, grads

    calls.clear()
    U0 = np.array([[1.0, 0.5], [0.9, 0.2], [3.0, -0.7]])
    U, vals, iters = runtime._descend_rows(rows_fn, U0, cfg, clip_bound=3.0)
    assert [c.tolist() for c in calls[:2]] == [[0, 1, 2], [0]]
    assert np.array_equal(U[1:], U0[1:]) and list(iters[1:]) == [0, 0]
    alone = runtime._descend_rows(rows_fn, U0[:1], cfg, clip_bound=3.0)
    assert np.array_equal(U[0], alone[0][0]) and vals[0] == alone[1][0]
    assert iters[0] == alone[2][0] == cfg.max_iters


def test_descend_quadratic_residue_converges():
    target = np.array([0.3, -0.7])

    def fn(u):
        d = u - target
        return float(d @ d), 2 * d

    out, val, _ = runtime.descend_residue(fn, np.array([1.0, 0.5]),
                                          RefineConfig(max_iters=30, step_size=0.3))
    assert val < 1e-6


def test_refine_monotone_best_iterate():
    """The reported control never has a larger residue than the input,
    even with a destabilizing step size."""
    target = np.array([0.5, 0.5])

    def fn(u):
        d = u - target
        return float(d @ d), 2 * d

    for step in (0.05, 0.3, 1.2, 5.0):
        u0 = np.array([2.0, -1.0])
        v0 = fn(u0)[0]
        out, val, _ = runtime.descend_residue(
            fn, u0, RefineConfig(max_iters=15, step_size=step))
        assert val <= v0 + 1e-12
        assert fn(out)[0] == pytest.approx(val)


def test_refine_reduces_certificate_residue():
    b, _ = fresh(seed=6)
    g = pair_graph(gap=0.14, closing=0.8)
    u_nom = dyn.nominal_control_batch(CAR, g.states, g.goals)
    cfg = RefineConfig(max_iters=30, step_size=0.3)
    X1 = dyn.step_batch(CAR, g.states, u_nom, 0.03)
    h_now, _ = nets.barrier_values(b, g)
    fn = runtime._make_residue_fn(b, g, X1, 0, float(h_now[0]), 0.03, 1.0, cfg.gamma)
    u0 = u_nom[0]
    v0, _ = fn(u0)
    out, val, _ = runtime.descend_residue(fn, u0, cfg, clip_bound=CAR.control_bound)
    assert val <= v0
    assert np.all(np.abs(out) <= CAR.control_bound + 1e-12)


def test_decisions_respect_bounds():
    rng = np.random.default_rng(5)
    b, p = fresh(seed=7)
    for _ in range(5):
        states = rng.uniform(0, 1.0, size=(4, 4))
        states[:, 2:] = rng.normal(size=(4, 2)) * 0.5
        goals = rng.uniform(0, 1.0, size=(4, 2))
        g = world.build_graph(CAR, states, goals, None, 1.0)
        u_nom = dyn.nominal_control_batch(CAR, states, goals)
        for d in runtime.select_control(b, p, g, u_nom, 0.03, 1.0):
            assert np.all(np.abs(d.control) <= CAR.control_bound + 1e-12)


@pytest.mark.slow
def test_two_agent_forward_invariance_after_training():
    """Empirical forward invariance on a trained head-on pair.

    Train on one head-on scenario, then run the switching controller closed
    loop and VERIFY the certificate conditions stepwise (h positive and the
    finite-difference detector satisfied for both agents) throughout the
    encounter; wherever the conditions hold, separation must stay above 2r.
    The window stops short of the sensing boundary, where an edge appearing
    or vanishing makes the finite difference jump by construction.
    """
    # rollout must span the whole encounter: the pair closes from 1.0 apart
    # at ~1.6 m/s, reaching contact near step 23 of each restarted segment
    cfg = training.TrainConfig.for_model(
        "SimpleCar", n_agents=2, side_length=1.2, scale=0.0625,
        steps=600, rollout_length=64, seed=3)
    states = np.array([[0.1, 0.6, 0, 0], [1.1, 0.6, 0, 0]])
    goals = np.array([[1.1, 0.6], [0.1, 0.6]])
    scn_cfg = world.ScenarioConfig(model="SimpleCar", n_agents=2,
                                   side_length=1.2, seed=0, horizon=400)
    scenario = world.Scenario(config=scn_cfg, states=states, goals=goals,
                              obstacles=())

    res = training.train(cfg, sampler=lambda rng: scenario)
    model = res.model
    h_fn = training.barrier_h_fn(res.barrier)

    st = states.copy()
    graph = world.build_graph(model, st, goals, None, scn_cfg.sensing_radius)
    separations, certified_window, collisions = [], [], []
    for _ in range(scn_cfg.horizon):
        u_nom = dyn.nominal_control_batch(model, st, goals)
        dec = runtime.select_control(res.barrier, res.policy, graph, u_nom,
                                     scn_cfg.dt, cfg.alpha)
        u = runtime.decisions_to_controls(dec)
        stp = world.step_world(model, st, u, (), goals, scn_cfg.dt, scn_cfg.r)
        g1 = world.build_graph(model, stp.states, goals, None,
                               scn_cfg.sensing_radius)
        h0 = h_fn(graph)
        hdot = (h_fn(g1) - h0) / scn_cfg.dt
        d = np.linalg.norm(st[0, :2] - st[1, :2])
        separations.append(d)
        collisions.append(bool(stp.collided.any()))
        if d <= 0.95 * scn_cfg.sensing_radius:
            ok = bool((h0 > 0).all()
                      and (hdot + cfg.alpha * h0 >= 0).all())
            certified_window.append(ok)
        st, graph = stp.states, g1
        if stp.all_reached:
            break

    assert len(certified_window) > 50, "the pair never really interacted"
    frac = np.mean(certified_window)
    assert frac == 1.0, f"conditions violated inside the window ({frac:.3f})"
    assert not any(collisions)
    assert min(separations) > 2 * scn_cfg.r, f"min separation {min(separations)}"


# --- per-agent reference for the batched refinement -------------------------
#
# The runtime evaluates every flagged agent in one batch of ego graphs per
# stage.  This is the loop it replaced: one plain forward per agent for each
# check and one tape per agent per descent iteration.

def _ref_neighborhood(graph, X1_nom, i, p_i1):
    sd = graph.model.space_dim
    d = np.linalg.norm(X1_nom[:, :sd] - p_i1, axis=1)
    d[i] = np.inf
    return np.nonzero(d <= graph.R)[0], np.nonzero(graph.hit_owner == i)[0]


def _ref_h_virtual(barrier, graph, X1_nom, i, u_i, dt):
    model = graph.model
    x1_i = dyn.step(model, graph.states[i], u_i, dt)
    nbrs, hits = _ref_neighborhood(graph, X1_nom, i, x1_i[:model.space_dim])
    emb_i = dyn.state_embedding(model, x1_i[None, :])[0]
    feat = np.concatenate(
        [dyn.state_embedding(model, X1_nom[nbrs]) - emb_i,
         dyn.hit_embedding(model, graph.hit_pos[hits]) - emb_i], axis=0)
    flag = np.concatenate([np.zeros(nbrs.size), np.ones(hits.size)])
    h, _ = nets.barrier_forward_edges(barrier, ad.Tensor(feat), flag,
                                      np.zeros(feat.shape[0], dtype=np.intp), 1)
    return float(h.data[0, 0])


def _ref_residue_fn(barrier, graph, X1_nom, i, h_i, dt, alpha, gamma):
    model = graph.model
    x_i = graph.states[i]
    topo = []

    def value_and_grad(u_val):
        if not topo:
            x1 = dyn.step(model, x_i, u_val, dt)
            topo.extend(_ref_neighborhood(graph, X1_nom, i, x1[:model.space_dim]))
        nbrs, hits = topo
        u = ad.Tensor(u_val[None, :], requires_grad=True)
        with ad.Tape() as tape:
            x1 = dyn.virtual_step_tensor(model, x_i[None, :], u, dt)
            emb_i = dyn.state_embedding_tensor(model, x1)
            feat = ad.concat(
                [ad.sub(dyn.state_embedding(model, X1_nom[nbrs]), emb_i),
                 ad.sub(dyn.hit_embedding(model, graph.hit_pos[hits]), emb_i)],
                axis=0)
            flag = np.concatenate([np.zeros(nbrs.size), np.ones(hits.size)])
            h1, _ = nets.barrier_forward_edges(
                barrier, feat, flag, np.zeros(feat.shape[0], dtype=np.intp), 1)
            hdot = ad.mul(ad.sub(h1, h_i), 1.0 / dt)
            delta = ad.relu(ad.sub(gamma - alpha * h_i, hdot))
            val = float(delta.data[0, 0])
            grad = np.zeros_like(u_val)
            if val > 0.0 and delta.requires_grad:
                tape.backward(ad.tensor_sum(delta))
                if u.grad is not None:
                    grad = u.grad[0].copy()
        return val, grad

    return value_and_grad


def _ref_descend(fn, u0, config, clip_bound):
    u = u0.copy()
    val, grad = fn(u)
    best_u, best_val = u.copy(), val
    iters = 0
    while iters < config.max_iters and best_val > 0.0:
        u = np.clip(u - config.step_size * grad, -clip_bound, clip_bound)
        val, grad = fn(u)
        if val < best_val:
            best_val, best_u = val, u.copy()
        iters += 1
    return best_u


def _ref_select_control(barrier, policy, graph, u_nom, dt, alpha, config):
    model = graph.model
    ok, h_now, hdot_nom = runtime.check_safe(barrier, graph, u_nom, u_nom, dt, alpha)
    u_nn = nets.policy_controls(policy, graph, u_nom, model.control_bound)
    X1_nom = dyn.step_batch(model, graph.states, u_nom, dt)
    out = []
    for i in range(graph.n_agents):
        if ok[i]:
            out.append((u_nom[i], "nominal", hdot_nom[i]))
            continue
        hdot_i = (_ref_h_virtual(barrier, graph, X1_nom, i, u_nn[i], dt) - h_now[i]) / dt
        if hdot_i + alpha * h_now[i] >= 0.0:
            out.append((u_nn[i], "learned", hdot_i))
            continue
        fn = _ref_residue_fn(barrier, graph, X1_nom, i, float(h_now[i]), dt,
                             alpha, config.gamma)
        u_i = _ref_descend(fn, u_nn[i], config, model.control_bound)
        hdot_i = (_ref_h_virtual(barrier, graph, X1_nom, i, u_i, dt) - h_now[i]) / dt
        out.append((u_i, "refined", hdot_i))
    return out


def _flip_head(barrier):
    for t in barrier.head.weights + barrier.head.biases:
        t.data *= -1.0


def _crowd(model, rng, n, side, obstacles=()):
    states = np.zeros((n, model.state_dim))
    states[:, :model.space_dim] = rng.uniform(0, side, size=(n, model.space_dim))
    sl = dyn.velocity_slice(model)
    states[:, sl] = 0.5 * rng.normal(size=(n, sl.stop - sl.start))
    goals = rng.uniform(0, side, size=(n, model.space_dim))
    scans = None
    if obstacles:
        scans = [world.raycast(states[i, :model.space_dim], list(obstacles), 32, 1.0)
                 for i in range(n)]
    return world.build_graph(model, states, goals, scans, 1.0)


@pytest.mark.parametrize("kind, obstacles", [
    ("SimpleCar", (world.Obstacle.circle([1.0, 1.2], 0.3),
                   world.Obstacle.rect([2.2, 0.8], [0.4, 0.9]))),
    ("DubinsCar", ()),
    ("SimpleDrone", ()),
])
def test_batched_select_control_matches_per_agent_reference(kind, obstacles):
    model = dyn.make_model(kind)
    cfg = RefineConfig()
    rng = np.random.default_rng(11)
    refined = hits = 0
    for seed in range(3):
        b, p = nets.init(seed, 0.125, dyn.edge_feature_dim(model), model.control_dim)
        _flip_head(b)
        g = _crowd(model, rng, 8, 2.5, obstacles)
        hits += g.hit_pos.shape[0]
        u_nom = dyn.nominal_control_batch(model, g.states, g.goals)
        got = runtime.select_control(b, p, g, u_nom, 0.03, 1.0, cfg)
        want = _ref_select_control(b, p, g, u_nom, 0.03, 1.0, cfg)
        for d, (u, mode, hdot) in zip(got, want):
            assert d.mode == mode
            np.testing.assert_allclose(d.control, u, rtol=0, atol=1e-12)
            assert d.hdot_value == pytest.approx(hdot, rel=0, abs=1e-9)
        refined += sum(d.mode == "refined" for d in got)
    assert refined >= 5, "the flipped head should make agents refine"
    if obstacles:
        assert hits > 0


def test_batched_check_safe_matches_per_agent_reference():
    rng = np.random.default_rng(2)
    b, _ = fresh(seed=3)
    g = _crowd(CAR, rng, 10, 2.5, (world.Obstacle.circle([1.2, 1.2], 0.4),))
    u_nom = dyn.nominal_control_batch(CAR, g.states, g.goals)
    X1_nom = dyn.step_batch(CAR, g.states, u_nom, 0.03)
    for cand in (u_nom + rng.normal(size=u_nom.shape), u_nom):
        _, h, hdot = runtime.check_safe(b, g, cand, u_nom, 0.03, 1.0)
        want = [(_ref_h_virtual(b, g, X1_nom, i, cand[i], 0.03) - h[i]) / 0.03
                for i in range(g.n_agents)]
        np.testing.assert_allclose(hdot, want, rtol=0, atol=1e-9)


def test_inference_leaves_no_parameter_gradients():
    rng = np.random.default_rng(4)
    b, p = fresh(seed=5)
    _flip_head(b)
    g = _crowd(CAR, rng, 8, 2.5, (world.Obstacle.circle([1.2, 1.2], 0.4),))
    u_nom = dyn.nominal_control_batch(CAR, g.states, g.goals)
    modes = [d.mode for d in runtime.select_control(b, p, g, u_nom, 0.03, 1.0)]
    assert "refined" in modes
    runtime.refine(b, g, modes.index("refined"), u_nom[0], u_nom, 0.03, 1.0,
                   RefineConfig())
    assert all(t.grad is None for t in b.tensors() + p.tensors())
