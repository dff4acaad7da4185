"""Three views of the same state-space recurrence.

The selective-scan mixer discretizes h' = A h + B u per token and rolls out
h_t = Abar_t h_{t-1} + Bbar_t u_t. This demo shows the two equivalences the
implementation is tested against:

 1. the fused chunked scan (one tape node that keeps only the state at
    each chunk start and recomputes the rest in backward) computes what the
    scan composed from taped ops computes, in its output and in the
    gradients of all six inputs, and
 2. with frozen input-independent parameters the scan is a linear
    time-invariant system, so its output equals a convolution with the
    materialized impulse-response kernel.

Run:  python3 demos/02_scan_equivalences.py
"""

import numpy as np

from mddcnet.tensor import Tensor
from mddcnet.ssm import discretize_zoh, selective_scan, selective_scan_ref

rng = np.random.default_rng(1)


def scan_and_grads(fn, arrays, coeff):
    inputs = [Tensor(x, requires_grad=True) for x in arrays]
    y = fn(*inputs)
    (y * coeff).sum().backward()
    return [y.data] + [t.grad for t in inputs]


print("fused scan == taped reference (output | worst of the six gradients):")
n, d, s = 2, 8, 4
for length in (1, 7, 64, 257):
    arrays = [rng.standard_normal((n, length, d)),
              np.exp(rng.uniform(-4, 0, (n, length, d))),
              -np.exp(rng.standard_normal((d, s))),
              rng.standard_normal((n, length, s)),
              rng.standard_normal((n, length, s)), rng.standard_normal(d)]
    coeff = rng.standard_normal((n, length, d))
    errs = [np.max(np.abs(a - b)) for a, b in
            zip(scan_and_grads(selective_scan, arrays, coeff),
                scan_and_grads(selective_scan_ref, arrays, coeff))]
    print(f"  L = {length:4d}: {errs[0]:.3e} | {max(errs[1:]):.3e}")

# Frozen scan == convolution. Fix delta, B, C to constants (no input
# dependence); then y = sum_k K[k] * u[t-k] with K the impulse response.
d, s, L = 3, 4, 32
a = -np.exp(rng.standard_normal((d, s)) * 0.3)
delta = np.full((1, L, d), 0.1)
b = np.tile(rng.standard_normal(s), (1, L, 1))
c = np.tile(rng.standard_normal(s), (1, L, 1))
abar, bbar = discretize_zoh(Tensor(a), Tensor(b), Tensor(delta))
abar, bbar = abar.data[0, 0], bbar.data[0, 0]        # time-invariant

# impulse response: K[k] = C . (Abar^k Bbar), per channel
K = np.stack([(c[0, 0] * (abar ** k) * bbar).sum(axis=1) for k in range(L)])

u = rng.standard_normal((1, L, d))
y_conv = np.zeros((1, L, d))
for t in range(L):
    for k in range(t + 1):
        y_conv[0, t] += K[k] * u[0, t - k]

y_scan = selective_scan(Tensor(u), Tensor(delta), Tensor(a), Tensor(b),
                        Tensor(c), Tensor(np.zeros(d))).data
err = np.max(np.abs(y_scan - y_conv))
print(f"\nfrozen scan == materialized conv kernel: max |difference| = {err:.3e}")
