"""Pool initialization schemes.

Two families:

* Gaussian/zero: every A_i gets i.i.d. Gaussian entries, every B_j starts at
  zero, so DeltaW = 0 and the adapted map equals the base exactly at step 0.
* Spectral split ("principal split"): an SVD of a source matrix W is cut at
  rank r; the top-r factors are divided evenly across the pools
  (A_i = down / M, B_j = up / N) and the discarded tail becomes the frozen
  base. Under the FULL strategy with alpha = rank, the layer then reproduces
  W exactly at step 0, because sum(B_j) sum(A_i) = up @ down is the optimal
  rank-r approximation and w0 carries the rest.

The even division interacts with the composition rule: non-FULL strategies
start from a scaled principal component, (1/M) * up @ down for HEURISTIC and
(1/N) * up @ down for RANDOM_AB (exact, since all pool members are equal at
init). This is inherent to dividing both pools evenly and is asserted by the
test suite rather than corrected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import adapter
from .adapter import CoLAConfig, CoLALayer
from .linalg import (_check_choice, _check_count, _check_positive, _check_shape, as_matrix,
                     frobenius_norm, gaussian_matrix, svd)

__all__ = [
    "RankDeficientSourceError",
    "InitSpec",
    "default_alpha",
    "init_gaussian_zero",
    "pissa_extended",
    "build_layer",
    "eckart_young_error",
]

GAUSSIAN_ZERO = "gaussian_zero"
PISSA = "pissa"
INIT_KINDS = (GAUSSIAN_ZERO, PISSA)


class RankDeficientSourceError(ValueError):
    """The spectral source has fewer nonzero singular values than the rank."""


@dataclass(frozen=True)
class InitSpec:
    """Which scheme to use and its inputs.

    ``std`` applies to the Gaussian scheme only (None picks 1/sqrt(in_dim),
    which keeps A x at unit scale for unit-scale inputs). ``source_w`` is the
    matrix the spectral scheme splits, which :func:`build_layer` requires.
    """

    kind: str
    std: float | None = None
    source_w: np.ndarray | None = None

    def __post_init__(self):
        _check_choice("init kind", self.kind, INIT_KINDS)
        if self.std is not None:
            _check_positive("gaussian init std", self.std)


def default_alpha(init_kind: str, rank: int) -> float:
    """alpha = r for the spectral split (scale 1, loss-free at step 0);
    alpha = 2r for Gaussian/zero."""
    return float(rank) if init_kind == PISSA else float(2 * rank)


def init_gaussian_zero(
    w0: np.ndarray,
    config: CoLAConfig,
    rng: np.random.Generator,
    std: float | None = None,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Gaussian A pools, zero B pools, base passed through untouched."""
    w0 = as_matrix(w0, "w0")
    _check_shape("w0", w0, (config.out_dim, config.in_dim))
    if std is None:
        std = 1.0 / np.sqrt(config.in_dim)
    a_list = [gaussian_matrix(config.rank, config.in_dim, std, rng)
              for _ in range(config.a_count)]
    b_list = [np.zeros((config.out_dim, config.rank)) for _ in range(config.b_count)]
    return w0, a_list, b_list


def pissa_extended(
    w: np.ndarray,
    config: CoLAConfig,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Split ``w`` into a frozen residual base and evenly divided principal pools.

    With svd(w) = (U, s, V) and r = config.rank:

        up   = U[:, :r] * sqrt(s[:r])        (n x r)
        down = (sqrt(s[:r]) * V[:, :r]).T    (r x m)
        A_i  = down / M,  B_j = up / N,  w0 = U[:, r:] diag(s[r:]) V[:, r:].T

    so sum(B_j) @ sum(A_i) = up @ down recovers the optimal rank-r
    approximation of w regardless of M and N.

    Raises :class:`RankDeficientSourceError` when ``s[r-1]`` is 0 after the
    SVD's roundoff cutoff: both factors would be zero in the missing
    directions, so their gradients would be zero and they would never train.
    """
    w = as_matrix(w, "w")
    _check_shape("w", w, (config.out_dim, config.in_dim))
    r = config.rank
    fac = svd(w)
    if fac.s[r - 1] == 0.0:
        raise RankDeficientSourceError(
            f"spectral init at rank r={r} needs a source of numerical rank >= {r}, "
            f"got rank {int(np.count_nonzero(fac.s))}")
    root = np.sqrt(fac.s[:r])
    up = fac.u[:, :r] * root
    down = (fac.v[:, :r] * root).T
    w0 = (fac.u[:, r:] * fac.s[r:]) @ fac.v[:, r:].T
    a_list = [down / config.a_count for _ in range(config.a_count)]
    b_list = [up / config.b_count for _ in range(config.b_count)]
    return w0, a_list, b_list


def build_layer(
    config: CoLAConfig,
    init: InitSpec,
    rng: np.random.Generator,
    base_w0: np.ndarray | None = None,
) -> CoLALayer:
    """Initialize pools per ``init`` and assemble a ready-to-train layer.

    The Gaussian scheme adapts ``base_w0``; the spectral scheme derives its
    own base from ``init.source_w``. An unresolved config alpha is filled
    with the scheme's default.
    """
    if init.kind == GAUSSIAN_ZERO:
        if base_w0 is None:
            raise ValueError("gaussian_zero init requires base_w0")
        w0, a_list, b_list = init_gaussian_zero(base_w0, config, rng, std=init.std)
    else:
        if init.source_w is None:
            raise ValueError("spectral init requires source_w")
        w0, a_list, b_list = pissa_extended(init.source_w, config)
    if config.alpha is None:
        config = replace(config, alpha=default_alpha(init.kind, config.rank))
    return adapter.make_layer(w0, a_list, b_list, config, rng=rng)


def eckart_young_error(w: np.ndarray, r: int) -> float:
    """Frobenius error of the best rank-r approximation of ``w``.

    Computed as ||w - U_r S_r V_r^T||_F from the materialized truncation;
    equals sqrt(sum of squared tail singular values).
    """
    w = as_matrix(w, "w")
    _check_count("r", r, 0, high=min(w.shape))
    fac = svd(w)
    approx = (fac.u[:, :r] * fac.s[:r]) @ fac.v[:, :r].T
    return frobenius_norm(w - approx)
