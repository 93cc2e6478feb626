"""Spectral (principal-split) initialization.

The top-r singular triplets of a source matrix W go into the trainable
pools, evenly divided (A_i = down/M, B_j = up/N), and the discarded tail
becomes the frozen base. Under the fully collaborative strategy with
alpha = r the layer reproduces W exactly at step 0, and the principal part
is the best possible rank-r approximation.
"""

import numpy as np

from cola_forge import (
    CoLAConfig,
    InitSpec,
    PISSA,
    Strategy,
    build_layer,
    eckart_young_error,
    frobenius_norm,
    make_rng,
    merge,
    svd,
)

rng = make_rng(7)
n, m, r = 24, 18, 4
w = rng.normal(size=(n, m))

# --- the LAPACK SVD in canonical form underneath ---------------------------
fac = svd(w)
print(f"svd of a {n}x{m} matrix:")
print(f"  singular values (top 6): {np.round(fac.s[:6], 3)}")
print(f"  reconstruction rel error: "
      f"{frobenius_norm(fac.reconstruct() - w) / frobenius_norm(w):.2e}")
print(f"  column orthonormality:    "
      f"{frobenius_norm(fac.u.T @ fac.u - np.eye(len(fac.s))):.2e}\n")

# --- split + even division across pools ------------------------------------
for a_count, b_count in [(1, 1), (2, 3), (3, 2)]:
    cfg = CoLAConfig(in_dim=m, out_dim=n, rank=r, a_count=a_count,
                     b_count=b_count, strategy=Strategy.FULL, alpha=float(r))
    layer = build_layer(cfg, InitSpec(PISSA, source_w=w), make_rng(0))
    err = frobenius_norm(merge(layer) - w) / frobenius_norm(w)
    print(f"M={a_count}, N={b_count}: step-0 reconstruction rel error {err:.2e}")

# --- the principal part is optimal among all rank-r maps --------------------
best = eckart_young_error(w, r)
print(f"\nbest rank-{r} error (tail of the spectrum): {best:.4f}")
print(f"tail formula sqrt(sum s_i^2, i>r):          "
      f"{float(np.sqrt(np.sum(fac.s[r:] ** 2))):.4f}")

trials = 2000
beaten = 0
for _ in range(trials):
    candidate = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
    if frobenius_norm(w - candidate) < best:
        beaten += 1
print(f"random rank-{r} candidates that beat it: {beaten}/{trials}")
