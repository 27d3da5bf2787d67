"""Shows that the benchmark's checks can fail.

    python3 benchmarks/selftest.py

Each check first runs on real program output, where it must pass, then on
the same output with one value corrupted, where it must fail:

* collision recount: one flag of `collided_ever` flipped;
* QP rows: one control pushed across one of its rows by 1e-3;
* gradient: one tape-gradient coordinate scaled by 1.01;
* nominal controls: one nominal-mode control moved by 1e-6.

Small inputs keep the whole run under a minute.  Exit code 0 when every
check behaves, 1 otherwise.
"""
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from swarmcbf import dynamics, nets, training, world  # noqa: E402
from workloads import MdcbfQp, NominalScale  # noqa: E402


class SmallNominal(NominalScale):
    def make_scenario(self):
        cfg = world.make_scenario_config("SimpleCar", 24, "keep_density", self.seed,
                                         side_length=2.0)
        return world.generate_scenario(cfg)


class SmallQp(MdcbfQp):
    def make_scenario(self):
        cfg = world.make_scenario_config("SimpleCar", 24, "keep_density", self.seed,
                                         side_length=2.5)
        return world.generate_scenario(cfg)


def _verdict(name: str, clean: list, corrupted: list) -> bool:
    ok = not clean and bool(corrupted)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: clean output -> "
          f"{'pass' if not clean else clean[0]}; corrupted -> "
          f"{corrupted[0] if corrupted else 'pass (check did not fire)'}")
    return ok


def collision_flag() -> bool:
    w = SmallNominal(3)
    w.setup()
    rnd = w.run_round()
    clean = checks.check_outcome(rnd.steps, w.round_scenario, rnd.result)
    flipped = rnd.result.collided_ever.copy()
    flipped[0] = not flipped[0]
    bad = dataclasses.replace(rnd.result, collided_ever=flipped)
    return _verdict("collision recount", clean,
                    checks.check_outcome(rnd.steps, w.round_scenario, bad))


def nominal_control() -> bool:
    w = SmallNominal(4)
    w.setup()
    rnd = w.run_round()
    clean = checks.check_nominal(rnd.steps, w.scenario.goals, w.scenario.config.dt,
                                 w.model.control_bound)
    rec = rnd.steps[len(rnd.steps) // 2]
    rec["controls"] = rec["controls"].copy()
    rec["controls"][5, 0] += 1e-6
    return _verdict("nominal-mode control", clean,
                    checks.check_nominal(rnd.steps, w.scenario.goals,
                                         w.scenario.config.dt, w.model.control_bound))


def qp_row() -> bool:
    w = SmallQp(5)
    w.setup()
    rnd = w.run_round()
    clean = []
    for t, rec in enumerate(rnd.steps):
        clean += checks.check_qp_step(rec["controller"], rec["controls"])[0]
    for rec in rnd.steps:
        out = rec["controller"][2]
        _, rows = checks.check_qp_step(rec["controller"], rec["controls"])
        agent = next((k for k, (A, b) in rows.items()
                      if A.shape[0] > 1 and not out.fallback[k]), None)
        if agent is not None:
            break
    A, b = rows[agent]
    c = A[0]
    controls = np.array(rec["controls"], copy=True)
    u = controls[agent]
    controls[agent] = u - (c @ u - b[0] + 1e-3) * c / (c @ c)
    corrupted = checks.check_qp_step(rec["controller"], controls)[0]
    return _verdict("QP row", clean, corrupted)


def gradient() -> bool:
    cfg = training.TrainConfig.for_model("SimpleCar", n_agents=6, rollout_length=4,
                                         side_length=2.0, scale=0.0625, seed=1)
    model = dynamics.make_model(cfg.model)
    barrier, policy = nets.init(1, cfg.scale, dynamics.edge_feature_dim(model),
                                model.control_dim)
    # move the policy's zero head so every tensor carries gradient
    rng = np.random.default_rng(0)
    for t in policy.head.weights + policy.head.biases:
        t.data += 0.01 * rng.normal(size=t.data.shape)
    env = training.RolloutState.start(model, training.scenario_sampler(cfg)(rng))
    samples = training.advance_rollout(model, policy, env, cfg.rollout_length, 0.0, rng)

    def loss_fn():
        return training.loss(barrier, policy, samples, model, cfg)[0]

    params = barrier.tensors() + policy.tensors()
    grads = checks.tape_gradients(loss_fn, params)
    coords = checks.sample_coords(grads, np.random.default_rng(1), 18)
    clean = checks.check_gradient(loss_fn, params, grads, coords, 6)
    # corrupt one coordinate whose stencil is smooth, so the check reaches it
    k, i = next(c for c in coords
                if not checks.check_gradient(loss_fn, params, grads, [c], 1))
    grads[k].reshape(-1)[i] *= 1.01
    return _verdict("loss gradient", clean,
                    checks.check_gradient(loss_fn, params, grads, [(k, i)], 1))


def main() -> int:
    results = [collision_flag(), qp_row(), gradient(), nominal_control()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
