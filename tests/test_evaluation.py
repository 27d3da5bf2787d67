import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmcbf import dynamics as dyn, evaluation, nets, world
from swarmcbf.evaluation import (ControllerSpec, MetricsRecord, RunResult,
                                 aggregate_rows, run_suite, score_run,
                                 simulate_run, qp_benchmark)


def make_run(collided, reached):
    return RunResult(collided_ever=np.array(collided, dtype=bool),
                     reached_final=np.array(reached, dtype=bool),
                     steps_used=10, mean_step_time_s=0.001)


def test_score_run_definition_example():
    # agent 2 collides; agents 1, 3 reach; agent 4 safe but stalls
    run = make_run([False, True, False, False],
                   [True, False, True, False])
    m = score_run(run)
    assert m.safety_rate == 0.75
    assert m.reaching_rate == 0.5
    assert m.success_rate == 0.5


def test_score_run_all_collide():
    m = score_run(make_run([True] * 4, [True] * 4))
    assert m.safety_rate == 0.0
    assert m.success_rate == 0.0


def test_score_run_single_free_agent():
    m = score_run(make_run([False], [True]))
    assert m.safety_rate == 1.0 and m.success_rate == 1.0


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_rate_algebra(flags):
    collided = [c for c, _ in flags]
    reached = [r for _, r in flags]
    m = score_run(make_run(collided, reached))
    assert m.success_rate <= m.safety_rate + 1e-12
    assert m.success_rate <= m.reaching_rate + 1e-12
    n = len(flags)
    assert m.safety_rate == pytest.approx(sum(not c for c in collided) / n)


def test_aggregate_rows_mean_exact():
    rows = [{"suite": "s", "controller": "c", "n_agents": 4,
             "safety_rate": v, "reaching_rate": v, "success_rate": v}
            for v in (0.25, 0.5, 1.0)]
    agg = aggregate_rows(rows)
    assert len(agg) == 1
    expected = np.mean([0.25, 0.5, 1.0])
    assert abs(agg[0]["safety_rate_mean"] - expected) < 1e-12


def test_single_agent_reaches_goal():
    cfg = world.make_scenario_config("SimpleCar", 1, "keep_density", 3,
                                     side_length=4.0, horizon=2500)
    scn = world.generate_scenario(cfg)
    run = simulate_run(scn, ControllerSpec(kind="nominal"))
    m = score_run(run)
    assert m.success_rate == 1.0
    assert run.steps_used < cfg.horizon


def test_nominal_crossing_collides():
    """Agents crossing at the center under the blind nominal controller."""
    n = 8
    angles = 2 * np.pi * np.arange(n) / n
    states = np.zeros((n, 4))
    states[:, 0] = 1.5 * np.cos(angles) + 2.0
    states[:, 1] = 1.5 * np.sin(angles) + 2.0
    goals = np.zeros((n, 2))
    goals[:, 0] = -1.5 * np.cos(angles) + 2.0
    goals[:, 1] = -1.5 * np.sin(angles) + 2.0
    cfg = world.ScenarioConfig(model="SimpleCar", n_agents=n, side_length=4.0,
                               seed=0, horizon=600)
    scn = world.Scenario(config=cfg, states=states, goals=goals, obstacles=())
    m = score_run(simulate_run(scn, ControllerSpec(kind="nominal")))
    assert m.safety_rate < 1.0


def test_run_suite_rows_and_determinism():
    spec = ControllerSpec(kind="nominal")
    rows1 = run_suite("keep_density", spec, "SimpleCar", [4], instances=2,
                      base_seed=7, horizon=300)
    rows2 = run_suite("keep_density", spec, "SimpleCar", [4], instances=2,
                      base_seed=7, horizon=300)
    assert len(rows1) == 2
    for a, b in zip(rows1, rows2):
        for key in ("safety_rate", "reaching_rate", "success_rate",
                    "instance_seed"):
            assert a[key] == b[key]


def test_run_suite_obstacles_ratio():
    spec = ControllerSpec(kind="nominal")
    rows = run_suite("obstacles", spec, "DubinsCar", [8], instances=1,
                     base_seed=0, horizon=50)
    assert len(rows) == 1   # ratio agents:obstacles = 4 -> 2 obstacles placed


def test_graph_free_controller_does_not_sense(monkeypatch):
    """Nominal runs never read the graph: no raycast, and the result equals
    a plain nominal rollout bit for bit."""
    cfg = world.make_scenario_config("SimpleCar", 8, "obstacles", 2,
                                     horizon=60, n_obstacles=4)
    scn = world.generate_scenario(cfg)
    assert scn.obstacles
    calls = []
    raycast = world.raycast
    monkeypatch.setattr(world, "raycast",
                        lambda *a, **k: calls.append(1) or raycast(*a, **k))
    run = simulate_run(scn, ControllerSpec(kind="nominal"), record=True)
    assert not calls

    model = dyn.make_model(cfg.model)
    states, obstacles = scn.states.copy(), tuple(scn.obstacles)
    collided = np.zeros(cfg.n_agents, dtype=bool)
    controls = []
    for t in range(cfg.horizon):
        u = dyn.nominal_control_batch(model, states, scn.goals, cfg.dt)
        controls.append(u)
        stp = world.step_world(model, states, u, obstacles, scn.goals, cfg.dt, cfg.r)
        states, obstacles = stp.states, stp.obstacles
        collided |= stp.collided
        if stp.all_reached:
            break
    assert run.steps_used == t + 1
    assert np.array_equal(run.final_states, states)
    assert np.array_equal(run.collided_ever, collided)
    assert np.array_equal(run.reached_final,
                          world.goals_reached(model, states, scn.goals, cfg.r))
    applied = np.array([r["control"] for r in run.trajectory])
    assert np.array_equal(applied, np.concatenate(controls))

    b, p = nets.init(0, 0.125, dyn.edge_feature_dim(model), model.control_dim)
    simulate_run(scn, ControllerSpec(kind="learned", barrier=b, policy=p,
                                     refine=evaluation.RefineConfig(max_iters=0)))
    assert calls, "the learned controller still senses its obstacles"


def _learned_obstacle_run(monkeypatch, raycast_wrapper, horizon):
    cfg = world.make_scenario_config("SimpleCar", 8, "obstacles", 2,
                                     horizon=horizon, n_obstacles=4)
    scn = world.generate_scenario(cfg)
    model = dyn.make_model(cfg.model)
    b, p = nets.init(0, 0.125, dyn.edge_feature_dim(model), model.control_dim)
    monkeypatch.setattr(world, "raycast", raycast_wrapper(world.raycast))
    return simulate_run(scn, ControllerSpec(kind="learned", barrier=b, policy=p))


def test_learned_run_casts_once_per_step(monkeypatch):
    """All agents' LiDAR comes from one batched raycast per step."""
    calls = []

    def counting(raycast):
        return lambda *a, **k: calls.append(1) or raycast(*a, **k)

    run = _learned_obstacle_run(monkeypatch, counting, horizon=12)
    assert run.steps_used == 12
    assert len(calls) == run.steps_used


def test_learned_step_time_includes_sensing(monkeypatch):
    """A learned step's reported time covers the LiDAR scan, not only the
    controller call."""
    delay = 0.05

    def slowed(raycast):
        def cast(*a, **k):
            time.sleep(delay)
            return raycast(*a, **k)
        return cast

    run = _learned_obstacle_run(monkeypatch, slowed, horizon=3)
    assert run.mean_step_time_s >= delay


def test_learned_controller_requires_params():
    with pytest.raises(ValueError):
        ControllerSpec(kind="learned")


def test_unknown_controller_kind():
    with pytest.raises(ValueError):
        ControllerSpec(kind="mystery")


def test_learned_spec_runs():
    model = dyn.make_model("SimpleCar")
    b, p = nets.init(0, 0.125, dyn.edge_feature_dim(model), model.control_dim)
    spec = ControllerSpec(kind="learned", barrier=b, policy=p)
    cfg = world.make_scenario_config("SimpleCar", 3, "keep_density", 5,
                                     side_length=3.0, horizon=80)
    scn = world.generate_scenario(cfg)
    run = simulate_run(scn, spec, record=True)
    assert len(run.trajectory) == run.steps_used * 3
    modes = {r["mode"] for r in run.trajectory}
    assert modes <= {"nominal", "learned", "refined"}


def test_sensing_radius_override():
    model = dyn.make_model("SimpleCar")
    b, p = nets.init(0, 0.125, 4, 2)
    spec = ControllerSpec(kind="learned", barrier=b, policy=p,
                          sensing_radius=0.05)
    cfg = world.make_scenario_config("SimpleCar", 2, "keep_density", 1,
                                     side_length=1.0, horizon=20)
    scn = world.generate_scenario(cfg)
    run = simulate_run(scn, spec)
    assert run.steps_used > 0


def test_ablation_refine_iters_zero_bitwise_equals_no_refine():
    model = dyn.make_model("SimpleCar")
    rng = np.random.default_rng(0)
    b, p = nets.init(1, 0.125, 4, 2)
    for t in p.tensors():
        t.data += rng.normal(size=t.data.shape) * 0.02
    cfg = world.make_scenario_config("SimpleCar", 4, "keep_density", 9,
                                     side_length=1.5, horizon=120)
    scn = world.generate_scenario(cfg)
    from dataclasses import replace
    from swarmcbf.runtime import RefineConfig
    spec0 = ControllerSpec(kind="learned", barrier=b, policy=p,
                           refine=RefineConfig(max_iters=0))
    spec_off = ControllerSpec(kind="learned", barrier=b, policy=p,
                              use_refine=False)
    r1 = simulate_run(scn, spec0, record=True)
    r2 = simulate_run(scn, spec_off, record=True)
    assert r1.steps_used == r2.steps_used
    for a, b_ in zip(r1.trajectory, r2.trajectory):
        assert a["state"] == b_["state"]
        assert a["control"] == b_["control"]


def test_qp_benchmark_rows():
    rows = qp_benchmark("SimpleCar", [4], instances=2, base_seed=0, horizon=200)
    assert len(rows) == 2
    modes = {r["mode"] for r in rows}
    assert modes == {"centralized", "decentralized"}
    for r in rows:
        assert 0.0 <= r["safety_rate"] <= 1.0
        assert r["mean_step_time_s"] > 0.0


def test_csv_writers(tmp_path):
    rows = [{"suite": "keep_density", "controller": "nominal", "n_agents": 4,
             "instance_seed": 1, "policy_seed": 0, "safety_rate": 1.0,
             "reaching_rate": 0.75, "success_rate": 0.75,
             "mean_step_time_s": 0.001}]
    evaluation.write_results_csv(rows, tmp_path / "results.csv")
    evaluation.write_plotdata_csv(rows, tmp_path / "plot.csv")
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0].endswith("safety_rate,reaching_rate,success_rate,mean_step_time_s")
    assert len(lines) == 2
    plot = (tmp_path / "plot.csv").read_text().splitlines()
    assert "success_rate_mean" in plot[0]
    timing = [{"n_agents": 4, "mode": "centralized", "mean_step_time_s": 0.01,
               "safety_rate": 1.0}]
    evaluation.write_timing_csv(timing, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == \
        "n_agents,mode,mean_step_time_s,safety_rate"
