import json
import os

import numpy as np
import pytest

from swarmcbf import cli, dynamics as dyn, nets, world
from swarmcbf.cli import ConfigError, main


def write_json(path, data):
    with open(path, "w") as f:
        json.dump(data, f)
    return str(path)


def scenario_dict(**overrides):
    d = {"model": "SimpleCar", "n_agents": 2, "side_length": 2.0, "r": 0.05,
         "sensing_radius": 1.0, "dt": 0.03, "horizon": 60, "seed": 1,
         "suite": "keep_density", "obstacles": []}
    d.update(overrides)
    return d


def train_dict(**overrides):
    d = {"model": "SimpleCar", "steps": 2, "rollout_length": 4, "n_agents": 3,
         "side_length": 1.5, "scale": 0.125, "seed": 0}
    d.update(overrides)
    return d


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_scenario_key_rejected(tmp_path):
    path = write_json(tmp_path / "s.json", scenario_dict(extra_key=1))
    with pytest.raises(ConfigError, match="extra_key"):
        cli.load_scenario(path)


def test_missing_scenario_key_rejected(tmp_path):
    d = scenario_dict()
    del d["horizon"]
    path = write_json(tmp_path / "s.json", d)
    with pytest.raises(ConfigError, match="horizon"):
        cli.load_scenario(path)


@pytest.mark.parametrize("model,obstacle,field", [
    ("SimpleCar", {"shape": "circle", "radius": 0.2}, "center"),
    ("SimpleCar", {"shape": "circle", "center": [1.0, 1.0]}, "radius"),
    ("SimpleCar", {"shape": "circle", "center": [1.0, 1.0], "radius": [0.2, 0.1]}, "radius"),
    ("SimpleCar", {"shape": "rect", "center": [1.0, 1.0]}, "size"),
    ("SimpleCar", {"shape": "circle", "center": [1.0, 1.0, 1.0], "radius": 0.2}, "center"),
    ("SimpleCar", {"shape": "circle", "center": [1.0, 1.0], "radius": 0.2,
                   "velocity": [0.1]}, "velocity"),
    ("SimpleCar", {"shape": "rect", "center": [1.0, 1.0], "size": [0.2, 0.2, 0.2]}, "size"),
    ("SimpleCar", {"shape": "rect", "center": 1.0, "size": [0.2, 0.2]}, "center"),
    ("SimpleDrone", {"shape": "rect", "center": [1.0, 1.0], "size": [0.2, 0.2, 0.2]}, "center"),
])
def test_bad_obstacle_rejected_with_field(tmp_path, model, obstacle, field):
    path = write_json(tmp_path / "s.json",
                      scenario_dict(model=model, obstacles=[obstacle]))
    with pytest.raises(ConfigError, match=rf"scenario\.obstacles\[0\]\.{field}"):
        cli.load_scenario(path)


@pytest.mark.parametrize("obstacle", [
    {"shape": "circle", "radius": 0.2},
    {"shape": "circle", "center": [1.0, 1.0, 1.0], "radius": 0.2},
])
def test_simulate_bad_obstacle_exits_2(tmp_path, capsys, obstacle):
    scn_path = write_json(tmp_path / "s.json", scenario_dict(obstacles=[obstacle]))
    rc = main(["simulate", "--scenario", scn_path, "--out",
               str(tmp_path / "o.jsonl"), "--nominal-only"])
    assert rc == 2
    assert "scenario.obstacles[0].center" in capsys.readouterr().err


def test_scenario_roundtrip(tmp_path):
    cfg = world.make_scenario_config("DubinsCar", 4, "obstacles", 11,
                                     n_obstacles=3)
    path = tmp_path / "scn.json"
    cli.save_scenario(cfg, path)
    cfg2 = cli.load_scenario(path)
    assert cfg2.model == cfg.model
    assert cfg2.n_agents == cfg.n_agents
    assert cfg2.side_length == cfg.side_length
    assert len(cfg2.obstacles) == 3
    for a, b in zip(cfg.obstacles, cfg2.obstacles):
        assert a.shape == b.shape
        assert np.allclose(a.center, b.center)
        assert np.allclose(a.size, b.size)
        assert np.allclose(a.velocity, b.velocity)


def test_train_config_strict_keys():
    with pytest.raises(ConfigError, match="bogus"):
        cli.train_config_from_dict({"model": "SimpleCar", "bogus": 1})


def test_train_config_accepts_every_trainconfig_field(tmp_path):
    path = write_json(tmp_path / "t.json",
                      train_dict(dense_fraction=0.3, dense_side_factor=0.5,
                                 paired_fraction=0.25, spawn_speed=0.5))
    cfg = cli.load_train_config(path)
    assert (cfg.dense_fraction, cfg.dense_side_factor) == (0.3, 0.5)
    assert (cfg.paired_fraction, cfg.spawn_speed) == (0.25, 0.5)
    with pytest.raises(ConfigError, match="dense_fractions"):
        cli.train_config_from_dict({"model": "SimpleCar", "dense_fractions": 0.3})


def test_train_zero_steps_writes_init_checkpoint(tmp_path):
    cfg_path = write_json(tmp_path / "t.json", train_dict(steps=0))
    rc = main(["--out-dir", str(tmp_path), "train", "--config", cfg_path])
    assert rc == 0
    b, p, meta = nets.load_checkpoint(tmp_path / "ckpt_final.npz")
    assert meta["step"] == 0
    b0, p0 = nets.init(0, 0.125, 4, 2)
    for a, e in zip(b.tensors() + p.tensors(), b0.tensors() + p0.tensors()):
        assert np.array_equal(a.data, e.data)


def test_train_seed_determinism_cli(tmp_path):
    cfg_path = write_json(tmp_path / "t.json", train_dict())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(out1), "--seed", "7", "train",
                 "--config", cfg_path]) == 0
    assert main(["--out-dir", str(out2), "--seed", "7", "train",
                 "--config", cfg_path]) == 0
    with np.load(out1 / "ckpt_final.npz") as d1, \
            np.load(out2 / "ckpt_final.npz") as d2:
        for key in d1.files:
            assert np.array_equal(d1[key], d2[key])


def test_simulate_nominal_only(tmp_path):
    scn_path = write_json(tmp_path / "s.json",
                          scenario_dict(n_agents=1, horizon=2500))
    out = tmp_path / "traj.jsonl"
    rc = main(["simulate", "--scenario", scn_path, "--out", str(out),
               "--nominal-only"])
    assert rc == 0
    lines = out.read_text().splitlines()
    records = [json.loads(l) for l in lines]
    metrics = records[-1]["metrics"]
    assert metrics["success_rate"] == 1.0
    body = records[:-1]
    assert all(r["mode"] == "nominal" for r in body)
    # schema: one record per agent per step, monotone t
    keys = {"t", "agent_id", "state", "control", "mode", "h_value", "collision"}
    assert all(set(r) == keys for r in body)
    ts = [r["t"] for r in body]
    assert ts == sorted(ts)


def test_simulate_requires_checkpoint_or_flag(tmp_path):
    scn_path = write_json(tmp_path / "s.json", scenario_dict())
    assert main(["simulate", "--scenario", scn_path,
                 "--out", str(tmp_path / "o.jsonl")]) == 2


def test_simulate_model_mismatch_exits_2(tmp_path):
    b, p = nets.init(0, 0.125, 5, 2)
    ckpt = tmp_path / "dubins.npz"
    nets.save_checkpoint(ckpt, b, p, "DubinsCar", 0)
    scn_path = write_json(tmp_path / "s.json", scenario_dict())
    rc = main(["simulate", "--scenario", scn_path, "--out",
               str(tmp_path / "o.jsonl"), "--checkpoint", str(ckpt)])
    assert rc == 2


def test_simulate_with_checkpoint_and_obstacles(tmp_path):
    b, p = nets.init(0, 0.125, 5, 2)
    ckpt = tmp_path / "dubins.npz"
    nets.save_checkpoint(ckpt, b, p, "DubinsCar", 0)
    scn = scenario_dict(model="DubinsCar", horizon=30, obstacles=[
        {"shape": "circle", "center": [1.0, 1.0], "radius": 0.2,
         "velocity": [0.1, 0.0]},
        {"shape": "rect", "center": [0.5, 1.5], "size": [0.3, 0.2],
         "velocity": [0.0, 0.0]},
    ])
    scn_path = write_json(tmp_path / "s.json", scn)
    out = tmp_path / "o.jsonl"
    rc = main(["simulate", "--scenario", scn_path, "--out", str(out),
               "--checkpoint", str(ckpt)])
    assert rc == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert "metrics" in records[-1]


def test_evaluate_zero_instances_empty_table(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "evaluate", "--model", "SimpleCar",
               "--suite", "keep_density", "--controller", "nominal",
               "--n-agents", "2", "--instances", "0"])
    assert rc == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 1   # header only


def test_evaluate_writes_results(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "evaluate", "--model", "SimpleCar",
               "--suite", "keep_density", "--controller", "nominal",
               "--n-agents", "2", "--instances", "2"])
    assert rc == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (tmp_path / "plotdata.csv").exists()


def test_qp_bench_rows(tmp_path):
    rc = main(["--out-dir", str(tmp_path), "qp-bench", "--n-agents", "4",
               "--instances", "1", "--horizon", "150"])
    assert rc == 0
    lines = (tmp_path / "qp_bench.csv").read_text().splitlines()
    assert lines[0] == "n_agents,mode,mean_step_time_s,safety_rate"
    assert len(lines) == 3   # two modes at one N


def test_sweep_refine_iters(tmp_path):
    b, p = nets.init(0, 0.125, 4, 2)
    ckpt = tmp_path / "car.npz"
    nets.save_checkpoint(ckpt, b, p, "SimpleCar", 0)
    rc = main(["--out-dir", str(tmp_path), "sweep", "--kind", "refine_iters",
               "--values", "0", "10", "--model", "SimpleCar",
               "--controller", "learned", "--checkpoint", str(ckpt),
               "--suite", "keep_density", "--n-agents", "2",
               "--instances", "1"])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("sweep,value")


def test_sweep_alpha_values_default_list():
    assert list(cli.evaluation.ALPHA_SWEEP) == [0.01, 0.1, 1.0, 10.0, 100.0]
    assert list(cli.evaluation.SENSING_SWEEP) == [0.05, 0.1, 0.2, 0.5, 0.75, 1.0]


def test_checkpoint_forward_bitwise_roundtrip(tmp_path):
    """Save -> load -> identical certificate outputs, bit for bit."""
    rng = np.random.default_rng(5)
    b, p = nets.init(3, 0.125, 4, 2)
    for t in b.tensors():
        t.data += rng.normal(size=t.data.shape) * 0.1
    path = tmp_path / "c.npz"
    nets.save_checkpoint(path, b, p, "SimpleCar", 42)
    b2, p2, _ = nets.load_checkpoint(path)
    cfg = world.make_scenario_config("SimpleCar", 4, "keep_density", 2,
                                     side_length=1.5)
    scn = world.generate_scenario(cfg)
    g = world.build_graph(dyn.make_model("SimpleCar"), scn.states, scn.goals,
                          None, 1.0)
    h1, a1 = nets.barrier_values(b, g)
    h2, a2 = nets.barrier_values(b2, g)
    assert np.array_equal(h1, h2) and np.array_equal(a1, a2)
