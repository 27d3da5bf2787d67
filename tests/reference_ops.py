"""Per-op reference compositions for the fused autodiff ops.

`ad.mlp` and `ad.attention_aggregate` must reproduce these bit for bit,
value and every gradient.  The primitives here (matmul, exp, segment_sum)
are tape ops built on `ad._make` that the package itself no longer needs.
"""
import numpy as np

import swarmcbf.autodiff as ad


def matmul(a, b):
    a, b = ad.as_tensor(a), ad.as_tensor(b)

    def backward(g):
        # skip the product for a constant operand, e.g. frozen weights
        if a.requires_grad:
            ad._accum(a, g @ b.data.T)
        if b.requires_grad:
            ad._accum(b, a.data.T @ g)

    return ad._make(a.data @ b.data, (a, b), backward)


def exp(a):
    a = ad.as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        ad._accum(a, g * out_data)

    return ad._make(out_data, (a,), backward)


def segment_sum(a, segment_ids, num_segments):
    """Sum rows of a into num_segments buckets; empty buckets are zero."""
    a = ad.as_tensor(a)
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    out_data = np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(out_data, segment_ids, a.data)

    def backward(g):
        ad._accum(a, g[segment_ids])

    return ad._make(out_data, (a,), backward)


def mlp(x, weights, biases):
    """ad.mlp as matmul, add and relu tape ops per layer."""
    h = x
    for W, b in zip(weights[:-1], biases[:-1]):
        h = ad.relu(ad.add(matmul(h, W), b))
    return ad.add(matmul(h, weights[-1]), biases[-1])


def segment_softmax(logits, seg, n_segments):
    """Softmax of an (E, 1) column within each destination group."""
    z = logits.data.ravel()
    m = np.full(n_segments, -np.inf)
    if z.size:
        np.maximum.at(m, seg, z)
    m = np.where(np.isfinite(m), m, 0.0)  # empty groups never indexed
    shifted = ad.sub(logits, m[seg][:, None])
    e = exp(shifted)
    total = segment_sum(e, seg, n_segments)
    return ad.div(e, ad.gather(total, seg))


def attention_aggregate(logits, v, seg, n):
    """ad.attention_aggregate as segment_softmax, mul and segment_sum."""
    attn = segment_softmax(logits, seg, n)
    return segment_sum(ad.mul(attn, v), seg, n), attn
