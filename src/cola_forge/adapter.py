"""Flexible low-rank adapter layers with collaborative composition strategies.

An adapted linear map is ``y = W0 x + (alpha / r) * DeltaW x`` where W0 is a
frozen n x m base and DeltaW is assembled from a pool of M down-projections
A_i (r x m) and N up-projections B_j (n x r). How the pools combine is the
layer's *strategy*:

* ``FULL``       DeltaW = (B_1 + ... + B_N)(A_1 + ... + A_M); every pool
                 member interacts with every other.
* ``RANDOM_AB``  DeltaW = sum_i B_{sigma(i)} A_i; each down-projection is
                 paired with one uniformly drawn up-projection.
* ``RANDOM_BA``  DeltaW = sum_j B_j A_{tau(j)}; the mirrored sampling, each
                 up-projection draws its down partner.
* ``HEURISTIC``  DeltaW = sum_{i<M} B_i A_i + (B_M + ... + B_N) A_M; one-to-one
                 pairs plus a one-to-many tail (requires M <= N).

Setting (M, N, strategy) recovers the familiar adapter families: (1, 1) is a
vanilla single-pair adapter, (1, N, FULL) the shared-down multi-head layout,
and (N, N, HEURISTIC) the per-expert paired layout.

Each rule is stated once, by ``_composition``, as a list of terms
``(b_idx, a_idx)`` and a scale: DeltaW = scale * sum over the terms of
(sum_{j in b_idx} B_j)(sum_{i in a_idx} A_i). FULL is one term over both
whole pools, HEURISTIC is M - 1 singleton pairs plus the tail, the random
strategies are one term per pairing edge, and the eval-time mean pairing is
FULL scaled by 1/N (AB) or 1/M (BA). The factored forward, the materialized
:func:`delta_weight` and ``training.backward`` are each one loop over that
list, so none of them knows the strategies, and the MAC model counts the
applications off the same list. The forward path always stays factored
(down-projections first) and returns each term's hidden state for the
backward pass; DeltaW is only materialized for merging and as a test oracle.
A layer's pools are views into one flat buffer, so one update steps them all;
the members of each index set are a run, summed left to right, each product
one 2-D ``np.dot`` into a buffer.
``_apply`` writes into a workspace of buffers that a training run allocates
once and reuses at every step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeError, as_matrix

__all__ = [
    "Strategy",
    "CoLAConfig",
    "Pairing",
    "CoLALayer",
    "make_layer",
    "sample_pairing",
    "forward",
    "delta_weight",
    "delta_weight_eval",
    "merge",
    "lora_preset",
    "hydra_preset",
    "moe_preset",
    "trainable_params",
    "flop_breakdown",
    "flop_count",
]


class Strategy(str, enum.Enum):
    FULL = "full"
    RANDOM_AB = "random_ab"
    RANDOM_BA = "random_ba"
    HEURISTIC = "heuristic"


# The pairing kind each random strategy samples; deterministic ones have none.
_PAIRING_KIND = {Strategy.RANDOM_AB: "ab", Strategy.RANDOM_BA: "ba"}


class ConfigError(ValueError):
    """An adapter configuration violates a structural rule."""


@dataclass(frozen=True)
class CoLAConfig:
    """Hyperparameters of one adapted layer.

    ``alpha`` may be left as None and resolved by the initializer: spectral
    (principal-split) layers default to alpha = rank so the split is loss-free
    at step 0, Gaussian/zero layers to alpha = 2 * rank.
    """

    in_dim: int
    out_dim: int
    rank: int
    a_count: int = 1
    b_count: int = 1
    strategy: Strategy = Strategy.FULL
    alpha: float | None = None

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigError(f"dims must be positive, got {self.out_dim}x{self.in_dim}")
        if not 1 <= self.rank <= min(self.in_dim, self.out_dim):
            raise ConfigError(
                f"rank must satisfy 1 <= r <= min(n, m) = "
                f"{min(self.in_dim, self.out_dim)}, got {self.rank}"
            )
        if self.a_count < 1 or self.b_count < 1:
            raise ConfigError(
                f"pool counts must be >= 1, got M={self.a_count}, N={self.b_count}"
            )
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        if self.strategy is Strategy.HEURISTIC and self.a_count > self.b_count:
            raise ConfigError(
                f"heuristic strategy requires M <= N, got M={self.a_count} > N={self.b_count}"
            )
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")

    @property
    def scale(self) -> float:
        if self.alpha is None:
            raise ConfigError("alpha is unresolved; initialize the layer first")
        return self.alpha / self.rank


@dataclass(frozen=True)
class Pairing:
    """A sampled pool assignment for the random strategies.

    ``kind`` is "ab" (maps each A index to a B index, length M) or "ba" (maps
    each B index to an A index, length N). ``frozen`` pairings survive across
    training steps; unfrozen ones are resampled every step, dropout-style.
    """

    kind: str
    map: tuple[int, ...]
    frozen: bool = False

    def __post_init__(self):
        if self.kind not in ("ab", "ba"):
            raise ConfigError(f"pairing kind must be 'ab' or 'ba', got {self.kind!r}")
        object.__setattr__(self, "map", tuple(map(int, self.map)))


def sample_pairing(a_count: int, b_count: int, kind: str,
                   rng: np.random.Generator, frozen: bool = False) -> Pairing:
    """Uniform i.i.d. pairing: 'ab' draws M targets in [0, N), 'ba' the mirror."""
    if a_count < 1 or b_count < 1:
        raise ConfigError(f"pool counts must be >= 1, got M={a_count}, N={b_count}")
    high, size = _pairing_range(kind, a_count, b_count)
    return Pairing(kind, rng.integers(0, high, size=size).tolist(), frozen)


def _pairing_range(kind: str, a_count: int, b_count: int) -> tuple[int, int]:
    """(high, length) of a pairing map: 'ab' maps M indices into [0, N), 'ba' the mirror."""
    return (b_count, a_count) if kind == "ab" else (a_count, b_count)


@dataclass(frozen=True, eq=False)
class CoLALayer:
    """One adapted linear map: frozen base plus trainable pools.

    ``params`` alone stores the pools, and training updates it in place;
    ``a_list`` and ``b_list`` are its (M, r, m) and (N, n, r) stacks, so writing
    a member writes ``params``. ``w0`` is never written. ``pairing`` holds a
    random strategy's current pairing (None for deterministic ones).
    """

    w0: np.ndarray
    config: CoLAConfig
    params: np.ndarray
    pairing: Pairing | None = None
    _stacks: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_stacks", _pool_views(self.params, self.config))

    @property
    def a_list(self) -> np.ndarray:
        return self._stacks[0]

    @property
    def b_list(self) -> np.ndarray:
        return self._stacks[1]


def _pool_views(flat: np.ndarray, cfg: CoLAConfig) -> tuple[np.ndarray, np.ndarray]:
    """(M, r, m) and (N, n, r) stacks of A_i and B_j: views into a flat buffer."""
    n, m, r = cfg.out_dim, cfg.in_dim, cfg.rank
    split = cfg.a_count * r * m
    return (flat[:split].reshape(cfg.a_count, r, m),
            flat[split:].reshape(cfg.b_count, n, r))


def make_layer(w0: np.ndarray, a_list: list[np.ndarray], b_list: list[np.ndarray],
               config: CoLAConfig, rng: np.random.Generator | None = None) -> CoLALayer:
    """Pack the pools into one flat buffer; random strategies get an initial pairing."""
    n, m, r = config.out_dim, config.in_dim, config.rank
    w0 = as_matrix(w0)
    if w0.shape != (n, m):
        raise ShapeError(f"w0 must be {n}x{m}, got {w0.shape}")
    if len(a_list) != config.a_count or len(b_list) != config.b_count:
        raise ShapeError(
            f"pool sizes {len(a_list)}/{len(b_list)} do not match "
            f"config M={config.a_count}, N={config.b_count}"
        )
    pools = [as_matrix(p) for p in (*a_list, *b_list)]
    for k, pool in enumerate(pools):
        name, shape = ("A", (r, m)) if k < config.a_count else ("B", (n, r))
        if pool.shape != shape:
            raise ShapeError(f"every {name} must be {shape[0]}x{shape[1]}, got {pool.shape}")
    kind = _PAIRING_KIND.get(config.strategy)
    if kind is not None and rng is None:
        raise ConfigError("random strategies need an rng to sample the initial pairing")
    pairing = None if kind is None else sample_pairing(config.a_count, config.b_count, kind, rng)
    return CoLALayer(w0, config, np.concatenate([p.ravel() for p in pools]), pairing)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _check_pairing(cfg: CoLAConfig, pairing: Pairing | None) -> tuple[int, ...] | None:
    """The pairing's map, once its presence, kind and size fit the strategy."""
    kind = _PAIRING_KIND.get(cfg.strategy)
    if kind is None:
        if pairing is not None:
            raise ConfigError(
                f"strategy {cfg.strategy.value} is deterministic; no pairing applies"
            )
        return None
    if pairing is None:
        raise ConfigError(f"strategy {cfg.strategy.value} requires a pairing")
    if pairing.kind != kind:
        raise ConfigError(f"pairing kind {pairing.kind!r} does not match strategy "
                          f"{cfg.strategy.value}")
    limit, expect = _pairing_range(kind, cfg.a_count, cfg.b_count)
    if len(pairing.map) != expect:
        raise ConfigError(f"pairing length {len(pairing.map)} != {expect}")
    if min(pairing.map) < 0 or max(pairing.map) >= limit:
        raise ConfigError(f"pairing entry out of range [0, {limit})")
    return pairing.map


_Term = tuple[tuple[int, ...], tuple[int, ...]]


def _composition(cfg: CoLAConfig, pairing_map: tuple[int, ...] | None,
                 mean_pairing: bool = False) -> tuple[list[_Term], float]:
    """A layer's DeltaW as ``(terms, scale)``, the one statement of the rules.

    Each term is a ``(b_idx, a_idx)`` pair and
    DeltaW = scale * sum_terms (sum_{j in b_idx} B_j)(sum_{i in a_idx} A_i).
    ``pairing_map`` is the checked map of a random strategy's pairing.
    ``mean_pairing`` asks for the expectation over uniform pairings, which for
    the random strategies replaces every sampled partner by its pool mean.
    """
    m_count, n_count = cfg.a_count, cfg.b_count
    every = (tuple(range(n_count)), tuple(range(m_count)))
    if mean_pairing and cfg.strategy in _PAIRING_KIND:
        return [every], 1.0 / (n_count if cfg.strategy is Strategy.RANDOM_AB else m_count)
    if cfg.strategy is Strategy.FULL:
        return [every], 1.0
    if cfg.strategy is Strategy.HEURISTIC:
        # one-to-one pairs, then B_M..B_N all fed by A_M
        tail = (tuple(range(m_count - 1, n_count)), (m_count - 1,))
        return [((i,), (i,)) for i in range(m_count - 1)] + [tail], 1.0
    if cfg.strategy is Strategy.RANDOM_AB:
        return [((j,), (i,)) for i, j in enumerate(pairing_map)], 1.0
    return [((j,), (i,)) for j, i in enumerate(pairing_map)], 1.0


def _run_sum(members: list[np.ndarray], v: np.ndarray | None, total: np.ndarray | None,
             add: bool = False, tmp: np.ndarray | None = None) -> np.ndarray:
    """sum_k member_k (v None) or sum_k member_k @ v over a run, the member
    list of one index set, added left to right into ``total`` (a new array
    if None) and returned. Each product is ``np.dot(member, v, out)``: into
    ``total`` for the first one, into the scratch ``tmp`` (a new array if
    None) for every next one, which is then added. With ``add`` every
    product is added to what ``total`` holds. A sum of one member without v
    is the member itself."""
    if v is None:
        if len(members) == 1:
            return members[0]
        total = np.add(members[0], members[1], total)
        for member in members[2:]:
            total += member
        return total
    for k, member in enumerate(members):
        if k or add:
            total += np.dot(member, v, tmp)
        else:
            total = np.dot(member, v, total)
    return total


def _pool_sum(stack, idx: tuple[int, ...], v: np.ndarray | None = None) -> np.ndarray:
    """sum_{k in idx} stack[k], or of stack[k] @ v, added left to right, in
    new arrays: :func:`_run_sum` on the members ``idx``."""
    return _run_sum(list(stack[idx[0]:idx[-1] + 1]), v, None)


class _Workspace:
    """What :func:`_apply` computes into: DeltaW x (``out``), W0 x
    (``base``), the hidden state of each of at most ``terms`` terms, a
    product scratch per pool side (``tmp``, A then B) and, built on first
    use, the run of each index set of each pool (``runs[0]`` A, ``runs[1]``
    B). Here every buffer is None, so a single forward pass allocates only
    what its composition uses: a hidden state per term, a scratch per
    product after a run's first, and W0 x apart from the output. A training
    run's workspace allocates them all once and reuses them at every step."""

    out = base = None
    tmp = (None, None)

    def __init__(self, layer: CoLALayer, terms: int):
        self.layer_scale = layer.config.scale
        self.pools = (layer.a_list, layer.b_list)
        self.hidden = [None] * terms
        self.runs: tuple[dict, dict] = ({}, {})

    def run(self, side: int, idx: tuple[int, ...]) -> list[np.ndarray]:
        """The run of members ``idx`` of pool ``side``, built and kept."""
        run = self.runs[side][idx] = list(self.pools[side][idx[0]:idx[-1] + 1])
        return run


def _apply(layer: CoLALayer, x: np.ndarray, terms: list[_Term], scale: float,
           ws: _Workspace | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """W0 x + (alpha/r) DeltaW x for a composition, factored (DeltaW is never
    materialized), and the hidden state sum_{i in a_idx} A_i x of each term,
    computed into the workspace ``ws`` (if None, into new arrays).

    Each hidden state sums A_i @ x left to right, every B_j @ t is added into
    DeltaW x in index order, and the scales come last; a scale of exactly 1.0
    is skipped.
    """
    if ws is None:
        ws = _Workspace(layer, len(terms))
    (a_runs, b_runs), hidden, out, (a_tmp, b_tmp) = ws.runs, ws.hidden, ws.out, ws.tmp
    for term, (b_idx, a_idx) in enumerate(terms):
        t = hidden[term] = _run_sum(a_runs.get(a_idx) or ws.run(0, a_idx), x, hidden[term],
                                    tmp=a_tmp)
        out = _run_sum(b_runs.get(b_idx) or ws.run(1, b_idx), t, out, term > 0, b_tmp)
    # w0 @ x + alpha/r * (scale * out), rounded alike, into out's own storage
    if scale != 1.0:
        out *= scale
    if ws.layer_scale != 1.0:
        out *= ws.layer_scale
    return np.add(np.dot(layer.w0, x, ws.base), out, out), hidden


def forward(layer: CoLALayer, x: np.ndarray, mode: str = "eval",
            pairing: Pairing | None = None) -> np.ndarray:
    """Evaluate the layer on x (a length-m vector or an m x batch matrix).

    ``train`` mode composes a random strategy's sampled pairing: the one
    passed, or else the layer's own. ``eval`` mode uses the deterministic
    mean-pairing composition and rejects an explicit pairing. Deterministic
    strategies behave identically in both modes.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != layer.config.in_dim:
        raise ShapeError(f"input has leading dim {x.shape[0]}, "
                         f"layer expects {layer.config.in_dim}")
    if mode == "eval" and pairing is not None:
        raise ConfigError("eval-mode forward composes the mean pairing; pass no pairing")
    pairing_map = (_check_pairing(layer.config, layer.pairing if pairing is None else pairing)
                   if mode == "train" else None)
    terms, scale = _composition(layer.config, pairing_map, mean_pairing=mode == "eval")
    return _apply(layer, x, terms, scale)[0]


def _materialize(layer: CoLALayer, terms: list[_Term], scale: float) -> np.ndarray:
    out = None
    for b_idx, a_idx in terms:
        term = _pool_sum(layer.b_list, b_idx) @ _pool_sum(layer.a_list, a_idx)
        out = term if out is None else out + term
    return scale * out


def delta_weight(layer: CoLALayer, pairing: Pairing | None = None) -> np.ndarray:
    """Materialized unscaled DeltaW for the layer's strategy (test oracle).

    Random strategies require the pairing that fixes the composition;
    deterministic strategies reject one.
    """
    return _materialize(layer, *_composition(layer.config, _check_pairing(layer.config, pairing)))


def delta_weight_eval(layer: CoLALayer) -> np.ndarray:
    """Deterministic DeltaW used by eval forward and merging.

    For random strategies this is the mean over the uniform pairing
    distribution, i.e. every sampled partner replaced by its pool mean:
    (sum B)(sum A) / N for the AB direction, / M for BA.
    """
    return _materialize(layer, *_composition(layer.config, None, mean_pairing=True))


def merge(layer: CoLALayer) -> np.ndarray:
    """Collapse the adapter into a single matrix: w0 + (alpha/r) * DeltaW_eval."""
    return layer.w0 + layer.config.scale * delta_weight_eval(layer)


# ---------------------------------------------------------------------------
# Presets: the familiar adapter families as (M, N, strategy) corners
# ---------------------------------------------------------------------------

def lora_preset(in_dim: int, out_dim: int, rank: int, **kw) -> CoLAConfig:
    """Single A/B pair (vanilla adapter)."""
    return CoLAConfig(in_dim=in_dim, out_dim=out_dim, rank=rank,
                      a_count=1, b_count=1, strategy=Strategy.FULL, **kw)


def hydra_preset(in_dim: int, out_dim: int, rank: int, b_count: int, **kw) -> CoLAConfig:
    """One shared down-projection feeding N up-projections."""
    return CoLAConfig(in_dim=in_dim, out_dim=out_dim, rank=rank,
                      a_count=1, b_count=b_count, strategy=Strategy.FULL, **kw)


def moe_preset(in_dim: int, out_dim: int, rank: int, experts: int, **kw) -> CoLAConfig:
    """N independent one-to-one expert pairs."""
    return CoLAConfig(in_dim=in_dim, out_dim=out_dim, rank=rank,
                      a_count=experts, b_count=experts,
                      strategy=Strategy.HEURISTIC, **kw)


def trainable_params(config: CoLAConfig) -> int:
    """Trainable entries in one layer: M*r*m + N*n*r."""
    return (config.a_count * config.rank * config.in_dim
            + config.b_count * config.out_dim * config.rank)


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

def flop_breakdown(config: CoLAConfig, pass_kind: str = "forward") -> dict[str, int]:
    """Per-component MAC counts for one sample through one layer.

    forward: the frozen base map (n*m) plus one application of every A_i
    (r*m MACs) and B_j (n*r) in each train-mode term of ``_composition``.
    The counts do not depend on the pairing, so an all-zeros one stands in
    for any. train_step: forward plus reverse-mode products (one B^T g per
    up-application) and parameter-gradient outer products (one n x r outer
    per up-application, one r x m outer per down-application). The frozen
    base contributes no backward cost: it has no gradient and the input
    needs none.
    """
    if pass_kind not in ("forward", "train_step"):
        raise ValueError(f"pass kind must be 'forward' or 'train_step', got {pass_kind!r}")
    n, m, r = config.out_dim, config.in_dim, config.rank
    length = config.b_count if config.strategy is Strategy.RANDOM_BA else config.a_count
    terms, _ = _composition(config, (0,) * length)
    down_apps = sum(len(a_idx) for _, a_idx in terms)
    up_apps = sum(len(b_idx) for b_idx, _ in terms)
    parts = {"base": n * m, "down": down_apps * r * m, "up": up_apps * n * r}
    if pass_kind == "train_step":
        parts["reverse"] = up_apps * n * r
        parts["grad_outer"] = up_apps * n * r + down_apps * r * m
    return parts


def flop_count(config: CoLAConfig, pass_kind: str = "forward") -> int:
    """Total multiply-accumulate count for one sample through one layer."""
    return sum(flop_breakdown(config, pass_kind).values())
