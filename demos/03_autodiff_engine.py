"""The tape-based reverse-mode autodiff engine underneath the networks.

Run:  python demos/03_autodiff_engine.py
"""
import numpy as np

import swarmcbf.autodiff as ad
from swarmcbf.autodiff import Tensor, Tape

print("== forward ops run as plain numpy without a tape ==")
x = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
print("relu:", ad.relu(x).data)
print("sin:", ad.sin(x).data)

print("\n== recording and differentiating ==")
W = Tensor(np.array([[0.5, -1.0], [2.0, 0.25], [0.0, 1.0]]), requires_grad=True)
with Tape() as tape:
    y = ad.mlp(x, [W], [Tensor(np.zeros(2))])   # one affine layer, (1, 2)
    loss = ad.tensor_sum(ad.mul(y, y))
    tape.backward(loss)
print("loss =", loss.item())
print("dloss/dW =\n", W.grad)

print("\n== gradients accumulate across reuse ==")
z = Tensor([3.0], requires_grad=True)
with Tape() as tape:
    tape.backward(ad.tensor_sum(ad.add(z, z)))
print("d(z+z)/dz =", z.grad, "(two paths, one accumulation)")

print("\n== checking against central finite differences ==")
rng = np.random.default_rng(0)
W1 = Tensor(rng.normal(size=(4, 16)) * 0.4, requires_grad=True)
W2 = Tensor(rng.normal(size=(16, 1)) * 0.4, requires_grad=True)
inputs = rng.normal(size=(8, 4))

b1 = Tensor(np.zeros(16), requires_grad=True)
b2 = Tensor(np.zeros(1), requires_grad=True)

def f():
    # a relu MLP recorded as one tape op
    return ad.tensor_sum(ad.mlp(Tensor(inputs), [W1, W2], [b1, b2]))

err = ad.grad_check(f, [W1, b1, W2, b2])
print("max relative error over every coordinate:", err)

print("\n== graph attention: per-group softmax and weighted sum, one op ==")
logits = Tensor(np.array([[1.0], [2.0], [0.5]]), requires_grad=True)
values = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
seg = np.array([0, 0, 1])        # edges 0 and 1 enter agent 0, edge 2 agent 1
with Tape() as tape:
    agg, attn = ad.attention_aggregate(logits, values, seg, 2)
    tape.backward(ad.tensor_sum(ad.narrow(agg, 1, 0, 1)))
    print("tape records:", len(tape))
print("per-group softmax:", attn.data.ravel(), "-> groups sum to 1")
print("aggregate per agent:\n", agg.data)
print("d(sum of first column)/dlogits:", logits.grad.ravel())
