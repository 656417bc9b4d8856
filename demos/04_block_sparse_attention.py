"""Block-sparse attention: routing, accounting, and an honest clock.

Queries score key blocks by their means and attend only to the top
slice (plus their own block).  At full density the routed kernel must
reproduce dense attention; below it, the flop count drops with rho.
Wall time is another story on a single CPU core.  The routed kernel is
MoBA's block loop: each key block scores only the queries that selected
it, and each query carries a running softmax across its blocks.  Its
routing and per-block steps cost about what the skipped arithmetic
saves at rho=1/2, and dense BLAS only loses once most blocks are
skipped; this demo prints that result as measured rather than as hoped.
"""

import numpy as np

from storerank.attention import (attention_flops, bench_attention, dense_core,
                                 k_blocks_for, sparse_core)

rng = np.random.default_rng(0)

# --- correctness tie-down at rho = 1 ----------------------------------------

# the routed kernel with every block selected against the dense one, the
# pair that bench_attention's max_abs_diff_at_rho1 ties down
q, k, v = (rng.normal(size=(4, 64, 16)) for _ in range(3))
gap = np.max(np.abs(sparse_core(q, k, v, block_size=8, k_blocks=8)
                    - dense_core(q, k, v)))
print(f"routed vs dense at rho=1 : max abs gap {gap:.2e}")

# --- arithmetic cost vs density ---------------------------------------------

h, d_model, n_heads, block = 1024, 256, 4, 32
dense = attention_flops(h, d_model, n_heads, block, -(-h // block))
print(f"\nH={h} B={block}  dense flops {dense:,}")
for rho in (1.0, 0.5, 0.25, 0.125):
    kb = k_blocks_for(h, block, rho)
    sparse = attention_flops(h, d_model, n_heads, block, kb)
    print(f"  rho {rho:5.3f}  k_blocks {kb:3d}  flops {sparse:>13,}  "
          f"({sparse / dense:.2f}x dense)")

# --- the clock does not follow the flop count -------------------------------

print(f"\nwall time, single core (min of 5):")
for rho in (0.5, 0.125):
    for hh in (512, 1024):
        r = bench_attention(hh, d_model=256, n_heads=4, block_size=32,
                            rho=rho, repeats=5, seed=0)
        verdict = "sparse wins" if (r["wall_time_sparse_ms"]
                                    < r["wall_time_dense_ms"]) else "dense wins"
        print(f"  rho {rho:5.3f} H {hh:4d}  "
              f"dense {r['wall_time_dense_ms']:7.2f} ms  "
              f"sparse {r['wall_time_sparse_ms']:7.2f} ms  ({verdict})")
print("at rho=1/2 routing and the per-block steps eat the saved arithmetic;"
      "\nit pays off once most blocks are skipped")
