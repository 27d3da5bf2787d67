"""Graph-attention barrier certificate and distributed policy networks.

Both share the same backbone: per-edge embedding MLP, a scalar gate whose
softmax over each agent's in-edges yields attention weights, a value MLP,
and a weighted-sum aggregation.  The certificate head maps the aggregate
to a scalar; the policy head consumes the aggregate concatenated with the
nominal control and adds its output to the nominal control (residual
form), so a zero head reproduces the nominal controller exactly.

Full-scale widths: embed 2048x2048 -> 256, gate 128x128 -> 1,
value 2048x2048 -> 1024, head 512-128-32.  A scale factor shrinks every
width proportionally for desk-size runs.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .world import GraphSnapshot

_BASE = {
    "embed_hidden": 2048,
    "embed_out": 256,
    "gate_hidden": 128,
    "value_hidden": 2048,
    "value_out": 1024,
    "head_hidden": (512, 128, 32),
}


def _w(base: int, scale: float) -> int:
    # floor of 4 keeps tiny desk scales clear of single-digit bottlenecks
    return max(4, int(round(base * scale)))


@dataclass
class MlpParams:
    weights: list[Tensor]
    biases: list[Tensor]

    def tensors(self) -> list[Tensor]:
        return list(self.weights) + list(self.biases)


@dataclass
class BarrierParams:
    embed: MlpParams
    gate: MlpParams
    value: MlpParams
    head: MlpParams
    edge_dim: int
    scale: float

    def tensors(self) -> list[Tensor]:
        return (self.embed.tensors() + self.gate.tensors()
                + self.value.tensors() + self.head.tensors())


@dataclass
class PolicyParams:
    embed: MlpParams
    gate: MlpParams
    value: MlpParams
    head: MlpParams
    edge_dim: int
    control_dim: int
    scale: float

    def tensors(self) -> list[Tensor]:
        return (self.embed.tensors() + self.gate.tensors()
                + self.value.tensors() + self.head.tensors())


def frozen(params):
    """View of a parameter tree that shares its arrays but tracks no
    gradients: a tape through it differentiates only its other inputs and
    leaves every parameter's .grad untouched."""
    def mlp(p: MlpParams) -> MlpParams:
        return MlpParams([Tensor(W.data) for W in p.weights],
                         [Tensor(b.data) for b in p.biases])

    return replace(params, embed=mlp(params.embed), gate=mlp(params.gate),
                   value=mlp(params.value), head=mlp(params.head))


def _init_mlp(rng: np.random.Generator, dims: list[int],
              zero_last: bool = False) -> MlpParams:
    """Kaiming-uniform weights; hidden biases start slightly positive so the
    narrow desk-scale layers cannot be born dead (a fully negative relu
    layer freezes the whole input pathway)."""
    weights, biases = [], []
    for k in range(len(dims) - 1):
        fan_in = dims[k]
        last = k == len(dims) - 2
        if zero_last and last:
            W = np.zeros((dims[k], dims[k + 1]))
        else:
            bound = np.sqrt(6.0 / fan_in)
            W = rng.uniform(-bound, bound, size=(dims[k], dims[k + 1]))
        b = np.zeros(dims[k + 1]) if last else np.full(dims[k + 1], 0.1)
        weights.append(Tensor(W, requires_grad=True))
        biases.append(Tensor(b, requires_grad=True))
    return MlpParams(weights, biases)


def _rescale_layers(p: MlpParams, probe: np.ndarray) -> np.ndarray:
    """Rescale each layer's weights so its pre-activations have unit spread
    on a probe batch.

    Plain Kaiming draws preserve variance only in expectation; at desk
    widths (a 4-unit head layer) the realized output spread can land two
    orders of magnitude below the output magnitude, and a near-constant
    certificate collapses under the hinge losses before it can learn.
    Zero-initialized layers (the policy residual head) are left alone.
    """
    h = probe
    for k, (W, b) in enumerate(zip(p.weights, p.biases)):
        pre = h @ W.data + b.data
        std = float(pre.std())
        if std > 1e-12 and np.any(W.data != 0.0):
            W.data /= std
            pre = h @ W.data + b.data
        h = np.maximum(pre, 0.0) if k < len(p.weights) - 1 else pre
    return h


def init(seed: int, scale: float, edge_dim: int,
         control_dim: int) -> tuple[BarrierParams, PolicyParams]:
    """Fresh parameter trees; the policy head's final layer starts at zero
    so the initial policy equals the nominal controller."""
    if not (0.0 < scale <= 1.0):
        raise ValueError("scale must be in (0, 1]")
    rng = np.random.default_rng(seed)
    eh = _w(_BASE["embed_hidden"], scale)
    eo = _w(_BASE["embed_out"], scale)
    gh = _w(_BASE["gate_hidden"], scale)
    vh = _w(_BASE["value_hidden"], scale)
    vo = _w(_BASE["value_out"], scale)
    hh = [_w(h, scale) for h in _BASE["head_hidden"]]

    in_dim = 1 + edge_dim  # node-type flag prepended to the edge feature
    barrier = BarrierParams(
        embed=_init_mlp(rng, [in_dim, eh, eh, eo]),
        gate=_init_mlp(rng, [eo, gh, gh, 1]),
        value=_init_mlp(rng, [eo, vh, vh, vo]),
        head=_init_mlp(rng, [vo] + hh + [1]),
        edge_dim=edge_dim, scale=scale)
    policy = PolicyParams(
        embed=_init_mlp(rng, [in_dim, eh, eh, eo]),
        gate=_init_mlp(rng, [eo, gh, gh, 1]),
        value=_init_mlp(rng, [eo, vh, vh, vo]),
        head=_init_mlp(rng, [vo + control_dim] + hh + [control_dim], zero_last=True),
        edge_dim=edge_dim, control_dim=control_dim, scale=scale)

    probe = rng.normal(size=(256, in_dim))
    probe[:, 0] = rng.integers(0, 2, size=256)   # node-type flag is binary
    for net in (barrier, policy):
        q = _rescale_layers(net.embed, probe)
        _rescale_layers(net.gate, q)
        v = _rescale_layers(net.value, q)
        if isinstance(net, PolicyParams):
            v = np.concatenate([v, rng.normal(size=(v.shape[0], control_dim))], axis=1)
        out = _rescale_layers(net.head, v)
        if isinstance(net, BarrierParams):
            # start from an "everything safe" prior: the early gradient is
            # then the unsafe minority carving h down where collisions
            # happen, instead of a global raise-h push that drives the
            # narrow head's negative-weight units into permanent relu
            # death (observed at desk widths)
            net.head.biases[-1].data += 0.3 - out.mean()
    return barrier, policy


def mlp_forward(p: MlpParams, x: Tensor) -> Tensor:
    return ad.mlp(x, p.weights, p.biases)


def _backbone(embed: MlpParams, gate: MlpParams, value: MlpParams,
              feat: Tensor, flag: np.ndarray, seg: np.ndarray,
              n_agents: int) -> tuple[Tensor, Tensor]:
    """Shared GNN trunk; returns (aggregate per agent, attention per edge)."""
    x = ad.concat([Tensor(flag[:, None]), feat], axis=1)
    q = mlp_forward(embed, x)
    logits = mlp_forward(gate, q)
    v = mlp_forward(value, q)
    return ad.attention_aggregate(logits, v, seg, n_agents)


def _value_dim(p) -> int:
    return p.value.weights[-1].shape[1]


def _empty_backbone(p, n_agents: int) -> tuple[Tensor, Tensor]:
    return Tensor(np.zeros((n_agents, _value_dim(p)))), Tensor(np.zeros((0, 1)))


def barrier_forward_edges(params: BarrierParams, feat: Tensor, flag: np.ndarray,
                          seg: np.ndarray, n_agents: int) -> tuple[Tensor, Tensor]:
    """Certificate values for a batch of in-edges grouped by agent.

    Returns (h as an (n_agents, 1) tensor, attention weights per edge).
    Agents with no in-edges aggregate to the zero vector.
    """
    if feat.shape[0] == 0:
        agg, attn = _empty_backbone(params, n_agents)
    else:
        agg, attn = _backbone(params.embed, params.gate, params.value,
                              feat, flag, seg, n_agents)
    return mlp_forward(params.head, agg), attn


def policy_forward_edges(params: PolicyParams, feat: Tensor, flag: np.ndarray,
                         seg: np.ndarray, n_agents: int, u_nom: Tensor,
                         control_bound: float) -> Tensor:
    """Residual policy: head(aggregate ++ u_nom) + u_nom, clamped."""
    if feat.shape[0] == 0:
        agg, _ = _empty_backbone(params, n_agents)
    else:
        agg, _ = _backbone(params.embed, params.gate, params.value,
                           feat, flag, seg, n_agents)
    raw = ad.add(mlp_forward(params.head, ad.concat([agg, u_nom], axis=1)), u_nom)
    return ad.clip(raw, -control_bound, control_bound)


def barrier_values(params: BarrierParams, graph: GraphSnapshot) -> tuple[np.ndarray, np.ndarray]:
    """Plain-numpy certificate evaluation on one graph."""
    h, attn = barrier_forward_edges(params, Tensor(graph.edge_feat),
                                    graph.edge_flag, graph.edge_dst,
                                    graph.n_agents)
    return h.data.ravel().copy(), attn.data.ravel().copy()


def policy_controls(params: PolicyParams, graph: GraphSnapshot,
                    u_nom: np.ndarray, control_bound: float,
                    rows: np.ndarray | None = None) -> np.ndarray:
    """Plain-numpy policy controls of every agent, or only of the distinct
    agents rows[k] (row k of the result), from their own in-edges."""
    feat, flag, dst = graph.edge_feat, graph.edge_flag, graph.edge_dst
    n = graph.n_agents
    if rows is not None:
        slot = np.full(n, -1)
        slot[rows] = np.arange(len(rows))
        keep = slot[dst] >= 0
        feat, flag, dst = feat[keep], flag[keep], slot[dst[keep]]
        u_nom, n = np.asarray(u_nom)[rows], len(rows)
    u = policy_forward_edges(params, Tensor(feat), flag, dst, n,
                             Tensor(u_nom), control_bound)
    return u.data.copy()


# --- checkpoints ----------------------------------------------------------

def _flatten(prefix: str, p: MlpParams, out: dict):
    for k, (W, b) in enumerate(zip(p.weights, p.biases)):
        out[f"{prefix}.W{k}"] = W.data
        out[f"{prefix}.b{k}"] = b.data


def save_checkpoint(path, barrier: BarrierParams, policy: PolicyParams,
                    model_kind: str, step: int = 0) -> None:
    """Named float64 tensor slots plus a JSON meta entry."""
    slots: dict[str, np.ndarray] = {}
    for name, net in (("h", barrier), ("pi", policy)):
        _flatten(f"{name}.embed", net.embed, slots)
        _flatten(f"{name}.gate", net.gate, slots)
        _flatten(f"{name}.value", net.value, slots)
        _flatten(f"{name}.head", net.head, slots)
    meta = {
        "model": model_kind,
        "scale": barrier.scale,
        "step": int(step),
        "edge_dim": barrier.edge_dim,
        "control_dim": policy.control_dim,
    }
    slots["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **slots)


def _read_mlp(data, prefix: str) -> MlpParams:
    weights, biases = [], []
    k = 0
    while f"{prefix}.W{k}" in data:
        weights.append(Tensor(data[f"{prefix}.W{k}"], requires_grad=True))
        biases.append(Tensor(data[f"{prefix}.b{k}"], requires_grad=True))
        k += 1
    return MlpParams(weights, biases)


def load_checkpoint(path) -> tuple[BarrierParams, PolicyParams, dict]:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        barrier = BarrierParams(
            embed=_read_mlp(data, "h.embed"), gate=_read_mlp(data, "h.gate"),
            value=_read_mlp(data, "h.value"), head=_read_mlp(data, "h.head"),
            edge_dim=int(meta["edge_dim"]), scale=float(meta["scale"]))
        policy = PolicyParams(
            embed=_read_mlp(data, "pi.embed"), gate=_read_mlp(data, "pi.gate"),
            value=_read_mlp(data, "pi.value"), head=_read_mlp(data, "pi.head"),
            edge_dim=int(meta["edge_dim"]), control_dim=int(meta["control_dim"]),
            scale=float(meta["scale"]))
    return barrier, policy, meta
