"""
Autodiff basics
===============

Every value in cracenet is a float64 ``Tensor``.  Operations record
themselves onto a graph; ``backward`` on a scalar loss fills in ``grad``
for everything that asked for it.
"""

import numpy as np

from cracenet import Tensor, backward, sigmoid, zero_grads

# %%
# Build a tiny computation: loss = mean(sigmoid(x * w) - y)^2

rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
y = Tensor((rng.uniform(size=(4, 3)) > 0.5).astype(float))

pred = sigmoid(x * w)
loss = ((pred - y) ** 2.0).mean()
print("loss:", loss.item())

# %%
# Gradients accumulate into .grad after backward.

zero_grads([x, w])
backward(loss)
print("dL/dw:\n", w.grad)

# %%
# Cross-check one coordinate against a central finite difference.

h = 1e-5
orig = w.data[0, 0]
w.data[0, 0] = orig + h
up = ((sigmoid(x * w) - y) ** 2.0).mean().item()
w.data[0, 0] = orig - h
down = ((sigmoid(x * w) - y) ** 2.0).mean().item()
w.data[0, 0] = orig

fd = (up - down) / (2 * h)
print(f"autodiff {w.grad[0, 0]:+.8f}  vs  finite difference {fd:+.8f}")
assert abs(w.grad[0, 0] - fd) < 1e-6

# %%
# Gradients keep accumulating until zero_grads resets them.  backward
# consumes the graph it walks, so the loss is computed again first.

loss = ((sigmoid(x * w) - y) ** 2.0).mean()
backward(loss)
print("after second backward, grad doubled:", w.grad[0, 0] / fd)
