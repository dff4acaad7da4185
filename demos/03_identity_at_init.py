"""Every residual block is a bit-exact identity at initialization.

Each mixer (deformable conv offsets, Mamba out-projection, FFN and attention
output projections, neck fusion) ends in a zero-initialized projection, so a
freshly built network neither amplifies nor distorts its input: adding depth
never hurts at step 0, and the attention-augmented neck starts as a plain
FPN. The checks below use exact equality, not tolerances.

Run:  python3 demos/03_identity_at_init.py
"""

import numpy as np

from mddcnet.tensor import Tensor
from mddcnet.ssm import MambaBlock, MambaBlockConfig
from mddcnet.ffn_attn import FFN_KINDS, NECK_ATTENTION_KINDS, Csca, make_ffn
from mddcnet.model import MddcNet, variant_config

rng = np.random.default_rng(2)
x_seq = Tensor(rng.standard_normal((2, 10, 8)))
x_map = Tensor(rng.standard_normal((2, 8, 6, 6)))

mamba = MambaBlock(MambaBlockConfig(d_model=8, d_state=4), rng)
print("mamba block output at init is exactly zero:",
      bool(np.all(mamba(x_seq).data == 0.0)))

for kind in FFN_KINDS:
    y = make_ffn(kind, 8, rng)(x_map)
    print(f"{kind:>9} ffn(x) == 0 and x + ffn(x) == x bitwise:",
          bool(np.all(y.data == 0.0)
               and np.array_equal((x_map + y).data, x_map.data)))

for kind in NECK_ATTENTION_KINDS:
    att = Csca(8, rng, kind=kind)
    print(f"{kind:>9} att(x) == x bitwise:",
          bool(np.array_equal(att(x_map).data, x_map.data)))

# Whole-network consequence: with attention and the in-neck Mamba both
# zero-initialized, the attention-augmented neck computes a plain FPN.
cfg_full = variant_config("n-toy")
cfg_plain = variant_config("n-toy", neck_attention="concat")
m_full = MddcNet(cfg_full, np.random.default_rng(7))
m_plain = MddcNet(cfg_plain, np.random.default_rng(7))
# align shared weights (construction order differs across the two configs)
state = {k: v for k, v in m_full.state_dict().items()
         if k in dict(m_plain.state_dict())}
m_plain.load_state_dict({**m_plain.state_dict(), **state})

x = Tensor(rng.random((1, 3, 64, 64)))
same = all(np.array_equal(a.data, b.data)
           for pa, pb in zip(m_full(x), m_plain(x))
           for a, b in zip(pa, pb))
print("attention neck == plain FPN at init, end to end:", same)
