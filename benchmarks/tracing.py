"""Span tracer for the traced run: wraps the package's public functions
from outside, records one span per call, and folds spans into the
per-layer metrics listed in BENCHMARK.json.

Layers are the package modules.  Every public module-level function
defined in a layer is wrapped in every module namespace that binds it, so
`from .world import build_graph` call sites are traced too.  Two methods
are wrapped as well: `autodiff.Tape.backward` (span `autodiff.backward`)
and `training.Adam.step` (span `training.adam`).  The autodiff forward ops
(`add`, `matmul`, `relu`, ...) are not wrapped: they run tens of thousands
of times per learned step, and their time belongs to the network call
that issued them.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("dynamics", "world", "autodiff", "nets", "runtime", "training",
          "qp", "evaluation")
# autodiff functions that are layer entry points rather than tape ops
AUTODIFF_ENTRY = ("grad_check", "zero_grads")


def _is_traceable(module, name: str, obj) -> bool:
    if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
        return False
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    if module.__name__.endswith(".autodiff") and name not in AUTODIFF_ENTRY:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "__wrapped__")


class Tracer:
    """Records (name, parent, step, start, end) per call while installed.

    `step` is set by the benchmark's per-step hook; spans opened before the
    first timed step carry step -1 (set-up).
    """

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.step = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> "Tracer":
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, obj in vars(module).items():
                if _is_traceable(module, name, obj):
                    originals[id(obj)] = obj
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for mod_name in LAYERS:
            module = getattr(self.package, mod_name)
            for attr, val in list(vars(module).items()):
                if id(val) in wrappers and originals[id(val)] is val:
                    self._patch(module, attr, wrappers[id(val)])
        ad, tr = self.package.autodiff, self.package.training
        self._patch(ad.Tape, "backward",
                    self._wrap("autodiff.backward", ad.Tape.backward))
        self._patch(tr.Adam, "step", self._wrap("training.adam", tr.Adam.step))
        return self

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            step = self.step
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, parent, step, t0, t1)
            if count is not None:
                count(self.counters, args, kwargs, out)
            return out

        return traced

    # -- reduction ----------------------------------------------------------
    def span_arrays(self) -> dict[str, np.ndarray]:
        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return {"name": arr[:, 0].astype(np.int32),
                "parent": arr[:, 1].astype(np.int64),
                "step": arr[:, 2].astype(np.int64),
                "start": arr[:, 3], "end": arr[:, 4]}

    def self_times_ms(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (span minus direct child spans) and call count."""
        s = self.span_arrays()
        dur = s["end"] - s["start"]
        self_t = dur.copy()
        has_parent = s["parent"] >= 0
        np.subtract.at(self_t, s["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        ms = np.bincount(s["name"], weights=self_t, minlength=n) * 1e3
        calls = np.bincount(s["name"], minlength=n)
        return ({self.names[k]: float(ms[k]) for k in range(n)},
                {self.names[k]: int(calls[k]) for k in range(n)})


# -- counters taken at layer boundaries, from arguments and return values ----

def _count_edges(c, args, kwargs, out):
    c["world.build_graph.edges"] += out.n_edges


def _count_flagged(c, args, kwargs, out):
    ok = out[0]
    c["runtime.flagged_agent_steps"] += int((~ok).sum())


def _count_descent(c, args, kwargs, out):
    _, best_val, iters = out
    c["runtime.refine_iters"] += iters
    c["runtime.refine_solved"] += best_val == 0.0


def _count_tape(c, args, kwargs, out):
    c["autodiff.tape_records"] += len(args[0])


def _count_labels(c, args, kwargs, out):
    from swarmcbf.world import LABEL_UNSAFE
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    for s in samples:
        c["training.unsafe_samples"] += int((s.labels == LABEL_UNSAFE).sum())


def _count_solve(c, args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    c["qp.solve_qp.iterations"] += out.iterations
    c["qp.solve_qp.moved"] += not np.array_equal(out.u, problem.center)


def _count_fallback(c, args, kwargs, out):
    c["qp.fallback_agents"] += int(out.fallback.sum())


COUNTERS = {
    "world.build_graph": _count_edges,
    "runtime.check_safe": _count_flagged,
    "runtime.descend_residue": _count_descent,
    "autodiff.backward": _count_tape,
    "training.loss": _count_labels,
    "qp.solve_qp": _count_solve,
    "qp.decentralized_filter": _count_fallback,
}

# (metric, unit) in BENCHMARK.json order; `.ms` is summed self time,
# `.calls` a call count, the rest come from COUNTERS or are ratios of them
PER_LAYER = [
    ("runtime.select_control.ms", "ms"), ("runtime.check_safe.ms", "ms"),
    ("runtime.descend_residue.ms", "ms"), ("runtime.descend_residue.calls", "count"),
    ("runtime.refine_iters", "count"), ("runtime.flagged_agent_steps", "count"),
    ("runtime.refine_solved_ratio", "ratio"),
    ("autodiff.backward.ms", "ms"), ("autodiff.backward.calls", "count"),
    ("autodiff.tape_records", "count"),
    ("nets.barrier_forward_edges.ms", "ms"), ("nets.barrier_forward_edges.calls", "count"),
    ("nets.barrier_values.ms", "ms"), ("nets.policy_controls.ms", "ms"),
    ("training.advance_rollout.ms", "ms"), ("training.loss.ms", "ms"),
    ("training.adam.ms", "ms"), ("training.unsafe_samples", "count"),
    ("world.raycast.ms", "ms"), ("world.raycast.calls", "count"),
    ("world.build_graph.ms", "ms"), ("world.build_graph.edges", "count"),
    ("world.label_all.ms", "ms"),
    ("world.collision_flags.ms", "ms"), ("world.step_world.ms", "ms"),
    ("dynamics.nominal_control_batch.ms", "ms"),
    ("world.generate_scenario.ms", "ms"),
    ("qp.decentralized_filter.ms", "ms"), ("qp.solve_qp.ms", "ms"),
    ("qp.solve_qp.calls", "count"), ("qp.solve_qp.iterations", "count"),
    ("qp.moved_ratio", "ratio"), ("qp.fallback_agents", "count"),
    ("evaluation.simulate_run.ms", "ms"), ("trace.overhead_s", "s"),
    # where the first traces put the most self time beyond the names above:
    # a layer's public helpers hold their own self time, not their callers'
    ("nets.mlp_forward.ms", "ms"), ("nets.segment_softmax.ms", "ms"),
    ("nets.policy_forward_edges.ms", "ms"), ("dynamics.virtual_step_tensor.ms", "ms"),
    ("world.min_agent_distance.ms", "ms"), ("qp.kkt_residual.ms", "ms"),
]


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    ms, calls = tracer.self_times_ms()
    c = tracer.counters
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind == "ms":
            out[metric] = ms.get(name, 0.0)
        elif kind == "calls":
            out[metric] = float(calls.get(name, 0))
        else:
            out[metric] = float(c.get(metric, 0.0))
    refinements = calls.get("runtime.descend_residue", 0)
    out["runtime.refine_solved_ratio"] = (
        c["runtime.refine_solved"] / refinements if refinements else 0.0)
    solves = calls.get("qp.solve_qp", 0)
    out["qp.moved_ratio"] = c["qp.solve_qp.moved"] / solves if solves else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
