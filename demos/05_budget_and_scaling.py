"""Budget accounting and scan scaling, straight from the library.

Prints the per-section parameter and FLOP breakdown for the three published
variants against their targets, then times the selective scan at doubling
sequence lengths (median over interleaved rounds) to show the O(L) cost
curve.

Run:  python3 demos/05_budget_and_scaling.py
"""

import numpy as np

from mddcnet.model import (BUDGET_TARGETS, MddcNet, count_params,
                           estimate_flops, variant_config)
from mddcnet.ssm import MambaBlockConfig, SsmParams, scan_scaling

print(f"{'variant':>8}{'params':>12}{'target':>12}{'delta':>8}"
      f"{'flops@640':>14}{'target':>12}{'delta':>8}")
for name in ("n", "t", "b"):
    cfg = variant_config(name)
    p = count_params(MddcNet(cfg, np.random.default_rng(0)))["total"]
    f = estimate_flops(cfg)["total"]
    tp, tf = BUDGET_TARGETS[name]
    print(f"{name:>8}{p:>12,}{tp:>12,.0f}{100 * (p - tp) / tp:>+7.1f}%"
          f"{f / 1e9:>13.1f}G{tf / 1e9:>11.1f}G{100 * (f - tf) / tf:>+7.1f}%")

print("\nscan cost per token (should be flat => linear in L):")
cfg = MambaBlockConfig(d_model=32, expand=2, d_state=16)
params = SsmParams(cfg, np.random.default_rng(0))
times, ratios = scan_scaling(params, (1024, 2048, 4096, 8192), 5,
                             np.random.default_rng(1))
for L, dt in times.items():
    ratio = f"  time(2L)/time(L) = {ratios[L // 2]:.2f}" if L // 2 in ratios else ""
    print(f"  L = {L:5d}: {1e9 * dt / (L * cfg.d_inner):7.1f} ns/op{ratio}")
