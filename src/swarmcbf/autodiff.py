"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: ops execute eagerly with numpy and, while a ``Tape`` is
active, record backward closures in execution order.  Without an active
tape the same ops run as plain numpy, so network code serves both
training and fast evaluation.  Double precision throughout.

The ops are only those the networks, the dynamics and the loss use.
Two of them are fused, each recorded as a single tape record with a
hand-written backward: ``mlp``, a whole relu MLP that keeps only each
layer's input, and ``attention_aggregate``, a per-group softmax and
attention-weighted sum.  ``Tape.backward`` frees each record as it
consumes it, so after a backward pass only leaves (tensors no op
produced, e.g. parameters) hold a ``.grad``.

Subgradient conventions: relu/clip/norm2 use 0 at their kinks.
"""
from __future__ import annotations

import numpy as np

_TAPES: list["Tape"] = []


class Tensor:
    """A float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __getstate__(self):
        return (self.data, self.requires_grad)

    def __setstate__(self, state):
        self.data, self.requires_grad = state
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; constants auto-wrap as non-grad tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class TapeError(RuntimeError):
    pass


class Tape:
    """Ordered record of operations; one backward pass unless reset()."""

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []
        self._consumed = 0
        self._used = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.pop()
        return False

    def __len__(self):
        """Number of recorded ops, including those a backward pass consumed."""
        return len(self._records) + self._consumed

    def reset(self):
        self._records.clear()
        self._consumed = 0
        self._used = False

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(t) into t.grad for every leaf t that requires
        grad: a tensor no recorded op produced, such as a parameter.

        Records are freed as they are consumed, and each op output's .grad
        is cleared once its backward closure has run, so no intermediate
        array outlives the pass.
        """
        if self._used:
            raise TapeError("tape already consumed by a backward pass; reset() first")
        if not self._records:
            raise TapeError("backward on empty tape")
        if loss.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        self._used = True
        records = self._records
        self._consumed = len(records)
        loss.grad = np.ones_like(loss.data)
        while records:
            out, fn = records.pop()
            g = out.grad
            if g is None:
                continue
            fn(g)
            out.grad = None


def _tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _accum(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _make(data, inputs, backward_fn) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = _tape()
    if tape is not None and out.requires_grad:
        tape._records.append((out, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, np.where(a.data > 0.0, g, 0.0))

    return _make(out_data, (a,), backward)


def mlp(x, weights, biases) -> Tensor:
    """Relu MLP with an affine last layer, recorded as one tape op.

    Bitwise equal, value and gradients, to chaining matmul, add and relu
    per layer, but the record keeps only each layer's input (the previous
    relu output), not the pre-activations or per-op outputs.
    """
    x = as_tensor(x)
    weights = [as_tensor(W) for W in weights]
    biases = [as_tensor(b) for b in biases]
    if x.ndim != 2 or any(W.ndim != 2 for W in weights):
        raise ValueError(f"mlp expects a 2-D input and 2-D weights, got {x.shape}")
    last = len(weights) - 1
    ins = []                    # ins[k]: layer k's input; ins[k + 1] its relu output
    need = [x.requires_grad]    # need[k]: does layer k's input need a gradient
    h = x.data
    for k, (W, b) in enumerate(zip(weights, biases)):
        ins.append(h)
        need.append(need[k] or W.requires_grad or b.requires_grad)
        z = h @ W.data + b.data
        h = np.maximum(z, 0.0) if k < last else z

    def backward(g):
        for k in range(last, -1, -1):
            W, b = weights[k], biases[k]
            if k < last:
                # relu output > 0 exactly where its pre-activation is, NaN too
                g = np.where(ins[k + 1] > 0.0, g, 0.0)
            if b.requires_grad:
                _accum(b, _unbroadcast(g, b.data.shape))
            if W.requires_grad:
                _accum(W, ins[k].T @ g)
            if not need[k]:
                return
            g = g @ W.data.T
        _accum(x, g)

    return _make(h, [x] + weights + biases, backward)


def sin(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g * np.cos(a.data))

    return _make(np.sin(a.data), (a,), backward)


def cos(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, -g * np.sin(a.data))

    return _make(np.cos(a.data), (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Elementwise clamp; zero gradient strictly outside (lo, hi)."""
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        _accum(a, g * mask)

    return _make(np.clip(a.data, lo, hi), (a,), backward)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _make(out_data, ts, backward)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def backward(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        _accum(a, full)

    return _make(a.data[sl].copy(), (a,), backward)


def gather(a, index: np.ndarray) -> Tensor:
    """Select rows a[index]; backward scatter-adds."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        _accum(a, full)

    return _make(a.data[index], (a,), backward)


def attention_aggregate(logits, v, seg: np.ndarray,
                        n: int) -> tuple[Tensor, Tensor]:
    """Graph attention as one tape op: the softmax of the (E, 1) logits
    within each destination group seg, and the attention-weighted sum of
    the (E, D) values v into n rows.  Returns (agg, attn); attn is data
    with no gradient path, and rows with no edges aggregate to zero.

    Bitwise equal, value and gradients, to composing a max shift, exp,
    segment sum, gather, div, mul and segment sum as separate ops: each
    step below repeats that op's arithmetic in the same order.
    """
    logits, v = as_tensor(logits), as_tensor(v)
    seg = np.asarray(seg, dtype=np.intp)
    m = np.full(n, -np.inf)
    if seg.size:
        np.maximum.at(m, seg, logits.data.ravel())
    m = np.where(np.isfinite(m), m, 0.0)  # empty groups never indexed
    e = np.exp(logits.data - m[seg][:, None])
    total = np.zeros((n, 1))
    np.add.at(total, seg, e)
    denom = total[seg]
    attn = e / denom
    agg = np.zeros((n,) + v.data.shape[1:])
    np.add.at(agg, seg, attn * v.data)

    def backward(g):
        g = g[seg]
        if logits.requires_grad:
            g_attn = _unbroadcast(g * v.data, attn.shape)
            g_total = np.zeros_like(total)
            np.add.at(g_total, seg, -g_attn * e / (denom * denom))
            _accum(logits, (g_attn / denom + g_total[seg]) * e)
        _accum(v, g * attn)

    return _make(agg, (logits, v), backward), Tensor(attn)


def bmatvec(B: np.ndarray, u) -> Tensor:
    """Row-batched matrix-vector product: out[n] = B[n] @ u[n].

    B is a constant (n, d, m) stack; u an (n, m) tensor.
    """
    u = as_tensor(u)
    B = np.asarray(B, dtype=np.float64)
    out_data = np.einsum("ndm,nm->nd", B, u.data)

    def backward(g):
        _accum(u, np.einsum("ndm,nd->nm", B, g))

    return _make(out_data, (u,), backward)


def norm2(a, axis=None, keepdims: bool = False) -> Tensor:
    """Euclidean norm; subgradient 0 where the norm is exactly 0."""
    a = as_tensor(a)
    out_data = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=keepdims))

    def backward(g):
        n = out_data
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
            n = np.expand_dims(n, axis)
        safe = np.where(n == 0.0, 1.0, n)
        _accum(a, np.where(n == 0.0, 0.0, g / safe) * a.data)

    return _make(out_data, (a,), backward)


def grad_check(f, params, h: float = 1e-5, max_coords: int | None = None,
               rng: np.random.Generator | None = None,
               atol: float = 1e-7) -> float:
    """Max relative error between tape gradients and central differences.

    f is a zero-argument callable returning a scalar Tensor, closing over
    the params.  When max_coords is set, that many coordinates are sampled
    per parameter; otherwise every coordinate is checked.  Coordinates
    where both gradients sit below atol count as matching: there the
    difference quotient measures only roundoff (e.g. parameters the output
    is structurally invariant to, like a softmax logit shift).
    """
    params = list(params)
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    for p in params:
        p.grad = None

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        if max_coords is not None and n > max_coords:
            idxs = rng.choice(n, size=max_coords, replace=False)
        else:
            idxs = np.arange(n)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f().item()
            flat[i] = orig - h
            f_minus = f().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            ad = g.reshape(-1)[i]
            if max(abs(ad), abs(fd)) < atol:
                continue
            rel = abs(ad - fd) / (abs(fd) + 1e-8)
            worst = max(worst, rel)
    return worst
