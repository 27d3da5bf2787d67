import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swarmcbf.autodiff as ad
from swarmcbf.autodiff import Tensor, Tape, TapeError

import reference_ops


def backward_of(build):
    """Run build() under a fresh tape and backprop its scalar output."""
    with Tape() as tape:
        out = build()
        tape.backward(out)
    return out


def test_relu_values():
    assert np.array_equal(ad.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])


def test_backward_sum_gives_ones():
    theta = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward_of(lambda: ad.tensor_sum(theta))
    assert np.array_equal(theta.grad, [1.0, 1.0, 1.0])


def test_backward_squared_norm():
    theta = Tensor([1.0, 2.0], requires_grad=True)
    backward_of(lambda: ad.tensor_sum(ad.mul(theta, theta)))
    assert np.allclose(theta.grad, [2.0, 4.0])


def test_relu_subgradient_zero_at_kink():
    x = Tensor([0.0], requires_grad=True)
    backward_of(lambda: ad.tensor_sum(ad.relu(x)))
    assert x.grad[0] == 0.0


def test_norm2_subgradient_zero_at_origin():
    x = Tensor([[0.0, 0.0]], requires_grad=True)
    backward_of(lambda: ad.tensor_sum(ad.norm2(x, axis=1, keepdims=True)))
    assert np.array_equal(x.grad, [[0.0, 0.0]])


def test_backward_on_empty_tape_raises():
    with pytest.raises(TapeError):
        with Tape() as tape:
            tape.backward(Tensor(1.0))


def test_single_backward_per_tape():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.tensor_sum(ad.mul(x, x))
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)
    tape.reset()
    assert len(tape) == 0


def test_gradient_accumulates_across_reuse():
    x = Tensor([3.0], requires_grad=True)
    backward_of(lambda: ad.tensor_sum(ad.add(x, x)))
    assert x.grad[0] == 2.0


def test_no_tape_means_plain_numpy():
    x = Tensor([1.0], requires_grad=True)
    out = ad.mul(x, x)
    assert out.grad is None and x.grad is None


def test_gather_scatters_gradient():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    idx = np.array([0, 0, 2])
    backward_of(lambda: ad.tensor_sum(ad.gather(x, idx)))
    assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_clip_gradient_masks_outside():
    x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
    backward_of(lambda: ad.tensor_sum(ad.clip(x, -1.0, 1.0)))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_linearity_of_backward():
    rng = np.random.default_rng(0)
    w = rng.normal(size=5)
    x_data = rng.normal(size=5)
    a, b = 2.5, -1.25

    def grad_of(scale_f, scale_g):
        x = Tensor(x_data, requires_grad=True)
        with Tape() as tape:
            f = ad.tensor_sum(ad.mul(Tensor(w), ad.mul(x, x)))
            g = ad.tensor_sum(ad.sin(x))
            loss = ad.add(ad.mul(scale_f, f), ad.mul(scale_g, g))
            tape.backward(loss)
        return x.grad

    combined = grad_of(a, b)
    expected = a * grad_of(1.0, 0.0) + b * grad_of(0.0, 1.0)
    assert np.allclose(combined, expected, atol=1e-12)


def test_grad_check_quadratic_tight():
    theta = Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True)
    err = ad.grad_check(lambda: ad.tensor_sum(ad.mul(theta, theta)), [theta])
    assert err < 1e-7


def test_grad_check_constant_function():
    theta = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    err = ad.grad_check(lambda: ad.mul(ad.tensor_sum(ad.mul(theta, 0.0)), 1.0), [theta])
    assert err == 0.0


def test_grad_check_two_layer_mlp():
    rng = np.random.default_rng(4)
    W1 = Tensor(rng.normal(size=(3, 8)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(size=8) * 0.1, requires_grad=True)
    W2 = Tensor(rng.normal(size=(8, 1)) * 0.5, requires_grad=True)
    x = rng.normal(size=(4, 3))

    def f():
        return ad.tensor_sum(ad.mlp(Tensor(x), [W1, W2], [b1, Tensor(np.zeros(1))]))

    err = ad.grad_check(f, [W1, b1, W2])
    assert err < 1e-4


@pytest.mark.parametrize("seed", range(20))
def test_grad_check_network_composites(seed):
    """Every op family the networks use, composed, against central FD."""
    rng = np.random.default_rng(seed)
    W = Tensor(rng.normal(size=(4, 6)) * 0.4, requires_grad=True)
    b = Tensor(rng.normal(size=6) * 0.2, requires_grad=True)
    g = Tensor(rng.normal(size=(6, 1)) * 0.4, requires_grad=True)
    feat = rng.normal(size=(7, 4))
    seg = np.array([0, 0, 1, 1, 1, 2, 2])

    def f():
        q = ad.relu(ad.mlp(Tensor(feat), [W], [b]))
        logits = ad.mlp(q, [g], [Tensor(np.zeros(1))])
        agg, _ = ad.attention_aggregate(logits, q, seg, 3)
        return ad.tensor_sum(ad.mul(agg, agg))

    err = ad.grad_check(f, [W, b, g], max_coords=8, rng=rng)
    assert err < 1e-4


def test_item_of_size_one_tensor_of_any_rank():
    assert Tensor([[2.0]]).item() == 2.0
    assert Tensor([3.5]).item() == 3.5
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()


def test_grad_check_on_a_one_by_one_output():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(1, 3)))
    W = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    assert ad.grad_check(lambda: ad.mlp(x, [W], [Tensor(np.zeros(1))]), [W]) < 1e-7


def test_backward_frees_intermediates_and_keeps_leaf_grads():
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    W = Tensor([[0.5, 1.0], [-1.0, 2.0]], requires_grad=True)
    frozen = Tensor([[1.0], [3.0]])
    with Tape() as tape:
        y = ad.relu(ad.mlp(x, [W], [Tensor([0.0, 0.0])]))
        z = ad.mlp(y, [W, frozen], [Tensor([0.1, 0.2]), Tensor([0.0])])
        loss = ad.tensor_sum(ad.mul(z, z))
        recorded = len(tape)
        tape.backward(loss)
        assert len(tape) == recorded == 5
        assert all(t.grad is None for t in (y, z, loss))
        assert x.grad is not None and W.grad is not None and frozen.grad is None
        with pytest.raises(TapeError):
            tape.backward(loss)
    tape.reset()
    assert len(tape) == 0


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])


@st.composite
def _mlp_cases(draw):
    n_layers = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 5), min_size=n_layers + 1,
                         max_size=n_layers + 1))
    rows = draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def array(shape, special):
        a = rng.normal(size=shape)
        a[rng.random(size=shape) < 0.2] = 0.0       # exact zeros, relu kinks
        if special:
            mask = rng.random(size=shape) < 0.3
            a[mask] = [draw(_SPECIAL) for _ in range(int(mask.sum()))]
        return a

    special = draw(st.booleans())
    flags = st.lists(st.booleans(), min_size=n_layers, max_size=n_layers)
    return dict(
        xs=[array((rows, dims[0]), special) for _ in range(2)],
        weights=[array((dims[k], dims[k + 1]), False) for k in range(n_layers)],
        biases=[array(dims[k + 1], False) for k in range(n_layers)],
        upstream=[array((rows, dims[-1]), False) for _ in range(2)],
        x_grad=draw(st.booleans()), w_grad=draw(flags), b_grad=draw(flags),
        calls=draw(st.integers(1, 2)))


def _run_mlp(case, op):
    """Value and every gradient of sum(upstream * op(x, W, b)) over one or
    two calls sharing the parameters on one tape."""
    xs = [Tensor(x, requires_grad=case["x_grad"]) for x in case["xs"]]
    # a frozen parameter is a fresh non-grad view of the array, as nets.frozen makes
    ws = [Tensor(W, requires_grad=g) for W, g in zip(case["weights"], case["w_grad"])]
    bs = [Tensor(b, requires_grad=g) for b, g in zip(case["biases"], case["b_grad"])]
    outs = []
    with Tape() as tape:
        loss = Tensor(0.0)
        for k in range(case["calls"]):
            out = op(xs[k], ws, bs)
            outs.append(out.data)
            loss = ad.add(loss, ad.tensor_sum(ad.mul(out, Tensor(case["upstream"][k]))))
        if len(tape):
            tape.backward(loss)
    return outs, [t.grad for t in xs[:case["calls"]] + ws + bs]


@given(_mlp_cases())
@settings(max_examples=300, deadline=None)
def test_fused_mlp_bitwise_equals_per_layer_ops(case):
    with np.errstate(invalid="ignore", over="ignore"):
        got_outs, got_grads = _run_mlp(case, ad.mlp)
        want_outs, want_grads = _run_mlp(case, reference_ops.mlp)
    assert all(_same(g, w) for g, w in zip(got_outs, want_outs))
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert _same(g, w)


@st.composite
def _attention_cases(draw):
    n = draw(st.integers(1, 5))
    # random destinations leave some groups empty and some with one edge
    seg = np.array(draw(st.lists(st.integers(0, n - 1), max_size=8)), dtype=np.intp)
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(size=(seg.size, 1)) * 3.0
    logits[rng.random(size=logits.shape) < 0.2] = 0.0
    if draw(st.booleans()):
        mask = rng.random(size=logits.shape) < 0.3
        logits[mask] = [draw(_SPECIAL) for _ in range(int(mask.sum()))]
    v = rng.normal(size=(seg.size, dim))
    v[rng.random(size=v.shape) < 0.2] = 0.0
    return dict(n=n, seg=seg, logits=logits, v=v,
                upstream=rng.normal(size=(n, dim)),
                logits_grad=draw(st.booleans()), v_grad=draw(st.booleans()))


def _run_attention(case, op):
    """Outputs and both gradients of sum(upstream * agg) for one call."""
    logits = Tensor(case["logits"], requires_grad=case["logits_grad"])
    v = Tensor(case["v"], requires_grad=case["v_grad"])
    with Tape() as tape:
        agg, attn = op(logits, v, case["seg"], case["n"])
        loss = ad.tensor_sum(ad.mul(agg, Tensor(case["upstream"])))
        if len(tape):
            tape.backward(loss)
    return [agg.data, attn.data, logits.grad, v.grad], len(tape)


@given(_attention_cases())
@settings(max_examples=500, deadline=None)
def test_attention_aggregate_bitwise_equals_per_op_softmax(case):
    with np.errstate(all="ignore"):
        got, got_records = _run_attention(case, ad.attention_aggregate)
        want, _ = _run_attention(case, reference_ops.attention_aggregate)
    for g, w in zip(got, want):
        assert _same(g, w)
    assert got_records == (3 if case["logits_grad"] or case["v_grad"] else 0)


def test_attention_aggregate_groups_and_empty_rows():
    logits = Tensor([[0.0], [np.log(3.0)], [5.0]])
    v = Tensor([[4.0, 0.0], [0.0, 4.0], [1.0, 2.0]])
    agg, attn = ad.attention_aggregate(logits, v, np.array([0, 0, 2]), 3)
    assert np.allclose(attn.data.ravel(), [0.25, 0.75, 1.0])
    assert np.allclose(agg.data, [[1.0, 3.0], [0.0, 0.0], [1.0, 2.0]])
    assert not attn.requires_grad
