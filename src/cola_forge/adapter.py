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

``_composition`` states each rule once, over the *runs* of each pool
(member ranges that every term uses whole) and a pairing matrix P, whose
P[b, a] counts the terms that pair B run b with A run a: DeltaW = scale *
B_cat (P kron I_r) A_cat, with A_cat the A run sums stacked and B_cat the B
run sums side by side. FULL is one run a side and HEURISTIC M runs a side
(the tail summed), both with P = I; a random strategy has one run per
member and P is its pairing map; the eval-time mean pairing is FULL scaled
by 1/N (RANDOM_AB) or 1/M (RANDOM_BA). A pairing is its map alone: the
strategy says which pool draws its partners. Every path builds the run sums
(``_run_sums``) and multiplies over the terms, one product per side; a
random composition first copies the partners it draws into term order. So
the factored forward, the materialized :func:`delta_weight`,
``training.backward`` and the MAC model share one statement and none of
them knows the strategies. DeltaW is only materialized for merging and as a
test oracle. ``_apply`` records the numpy calls of a forward pass over a
workspace of buffers: :func:`forward` replays them once, a training run at
every step. A layer stores its pools as its run sums are stored, A_cat then
B_cat in one flat buffer, so its members are views of that buffer and the
run sums of a composition with one member a run are a copy of it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (ShapeError, _as_real, _check_choice, _check_count, _check_positive,
                     _check_shape, _is_integer, as_matrix)

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


_STRATEGY_VALUES = tuple(s.value for s in Strategy)


class ConfigError(ValueError):
    """An adapter configuration violates a structural rule."""


def _undefined(strategy: Strategy, a_count: int, b_count: int) -> bool:
    """Whether (M, N, strategy) composes no layer: HEURISTIC pairs each A
    with a B, so it needs M <= N."""
    return strategy is Strategy.HEURISTIC and a_count > b_count


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
        for name in ("in_dim", "out_dim", "rank", "a_count", "b_count"):
            high = min(self.in_dim, self.out_dim) if name == "rank" else None
            _check_count(name, getattr(self, name), 1, ConfigError, high)
        _check_choice("strategy", self.strategy, _STRATEGY_VALUES, ConfigError)
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        if _undefined(self.strategy, self.a_count, self.b_count):
            raise ConfigError(
                f"heuristic strategy requires M <= N, got M={self.a_count} > N={self.b_count}"
            )
        if self.alpha is not None:
            _check_positive("alpha", self.alpha, ConfigError)

    @property
    def scale(self) -> float:
        if self.alpha is None:
            raise ConfigError("alpha is unresolved; initialize the layer first")
        return self.alpha / self.rank


@dataclass(frozen=True)
class Pairing:
    """A sampled pool assignment for the random strategies: under RANDOM_AB
    ``map`` sends each A index to a B index (length M), under RANDOM_BA each
    B index to an A index (length N). ``frozen`` pairings survive across
    training steps; unfrozen ones are resampled every step, dropout-style.
    """

    map: tuple[int, ...]
    frozen: bool = False

    def __post_init__(self):
        if not all(_is_integer(entry) for entry in self.map):
            raise ConfigError(f"pairing map entries must be integers, got {self.map!r}")
        object.__setattr__(self, "map", tuple(map(int, self.map)))


def sample_pairing(config: CoLAConfig, rng: np.random.Generator,
                   frozen: bool = False) -> Pairing:
    """Uniform i.i.d. pairing of a random strategy: RANDOM_AB draws M
    partners in [0, N), RANDOM_BA N partners in [0, M)."""
    draw = _pairing_range(config)
    if draw is None:
        raise ConfigError(f"strategy {config.strategy.value} is deterministic; "
                          f"it samples no pairing")
    return Pairing(rng.integers(0, draw[0], size=draw[1]).tolist(), frozen)


def _pairing_range(cfg: CoLAConfig) -> tuple[int, int] | None:
    """(high, length) of a random strategy's pairing map, which draws a B for
    each A_i under RANDOM_AB and an A for each B_j under RANDOM_BA; None for
    a deterministic strategy."""
    if cfg.strategy is Strategy.RANDOM_AB:
        return cfg.b_count, cfg.a_count
    if cfg.strategy is Strategy.RANDOM_BA:
        return cfg.a_count, cfg.b_count
    return None


@dataclass(frozen=True, eq=False)
class CoLALayer:
    """One adapted linear map: frozen base plus trainable pools.

    ``params`` alone stores the pools, and training updates it in place: the
    A members stacked (A_cat, M r x m), then the B members side by side
    (B_cat, n x N r), both row-major. ``a_list`` and ``b_list`` are its (M,
    r, m) and (N, n, r) views (a B member a strided column block), so
    writing a member writes ``params``. ``w0`` is never written.
    ``pairing`` holds a random strategy's current pairing (None for
    deterministic ones).
    """

    w0: np.ndarray
    config: CoLAConfig
    params: np.ndarray
    pairing: Pairing | None = None
    _views: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_views", _run_views(self.params, self.config))

    @property
    def a_list(self) -> np.ndarray:
        return self._views[2]

    @property
    def b_list(self) -> np.ndarray:
        return self._views[3]


def make_layer(w0: np.ndarray, a_list: list[np.ndarray], b_list: list[np.ndarray],
               config: CoLAConfig, rng: np.random.Generator | None = None) -> CoLALayer:
    """Pack the pools into one flat buffer, A_cat then B_cat (see
    :class:`CoLALayer`); random strategies get an initial pairing."""
    n, m, r = config.out_dim, config.in_dim, config.rank
    w0 = as_matrix(w0, "w0")
    _check_shape("w0", w0, (n, m))
    stacks = []
    for name, pool, shape in (("a_list", a_list, (config.a_count, r, m)),
                              ("b_list", b_list, (config.b_count, n, r))):
        for k, member in enumerate(pool):
            _check_shape(f"{name}[{k}]", np.asarray(member), shape[1:])
        stacks.append(np.asarray(pool))
        _check_shape(name, stacks[-1], shape)
    packed = (stacks[0], stacks[1].transpose(1, 0, 2))  # A_cat, B_cat as (n, N, r)
    params = as_matrix(np.concatenate([p.ravel() for p in packed])[None], "a_list and b_list")[0]
    random = _pairing_range(config) is not None
    if random and rng is None:
        raise ConfigError("random strategies need an rng to sample the initial pairing")
    pairing = sample_pairing(config, rng) if random else None
    return CoLALayer(w0, config, params, pairing)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def _check_pairing(cfg: CoLAConfig, pairing: Pairing | None) -> tuple[int, ...] | None:
    """The pairing's map, once its presence and size fit the strategy."""
    draw = _pairing_range(cfg)
    if draw is None:
        if pairing is not None:
            raise ConfigError(f"strategy {cfg.strategy.value} is deterministic; "
                              f"no pairing applies")
        return None
    if pairing is None:
        raise ConfigError(f"strategy {cfg.strategy.value} requires a pairing")
    limit, expect = draw
    if len(pairing.map) != expect:
        raise ConfigError(f"pairing length {len(pairing.map)} != {expect}")
    if min(pairing.map) < 0 or max(pairing.map) >= limit:
        raise ConfigError(f"pairing entry out of range [0, {limit})")
    return pairing.map


_Runs = tuple[list[tuple[int, int]], list[tuple[int, int]]]


def _composition(cfg: CoLAConfig, pairing_map: tuple[int, ...] | None
                 ) -> tuple[_Runs, tuple[int, ...] | None, float]:
    """A layer's DeltaW as ``(runs, pairing_map, scale)``, the one statement of the rules.

    ``runs`` holds the runs of the A pool, then of the B pool, as ``(lo, hi)``
    member ranges; every member is in exactly one run, and a run's sum is
    A_lo + ... + A_{hi-1} (B alike). DeltaW = scale * B_cat (P kron I_r)
    A_cat, with A_cat the A run sums stacked (K_a r x m), B_cat the B run
    sums side by side (n x K_b r) and P[b, a] the number of terms that pair
    B run b with A run a. FULL, HEURISTIC and the eval mean have P = I and
    no map; a random strategy has one run per member, and its checked
    ``pairing_map`` (each drawing member's partner) is P. None asks for the
    expectation over uniform pairings: every partner becomes its pool mean.
    """
    m_count, n_count = cfg.a_count, cfg.b_count
    whole = ([(0, m_count)], [(0, n_count)]), None
    if pairing_map is None and (draw := _pairing_range(cfg)) is not None:
        return *whole, 1.0 / draw[0]  # the partner pool's mean
    if cfg.strategy is Strategy.FULL:
        return *whole, 1.0
    a_runs, b_runs = ([(k, k + 1) for k in range(count)] for count in (m_count, n_count))
    if cfg.strategy is Strategy.HEURISTIC:
        # one-to-one pairs, then B_M..B_N all fed by A_M
        b_runs[m_count - 1:] = [(m_count - 1, n_count)]
    return (a_runs, b_runs), pairing_map, 1.0


def _eval_composition(layer: CoLALayer) -> tuple[_Runs, tuple[int, ...] | None, float]:
    """The deterministic composition of eval mode: a frozen pairing's own
    (the map the layer trains), else the mean over uniform pairings."""
    cfg, pairing = layer.config, layer.pairing
    frozen = pairing is not None and pairing.frozen
    return _composition(cfg, _check_pairing(cfg, pairing) if frozen else None)


def _run_views(flat: np.ndarray, cfg: CoLAConfig) -> tuple[np.ndarray, ...]:
    """A_cat (M r x m) and B_cat (n x N r) of a flat pool buffer laid out as
    a layer's ``params``, then its (M, r, m) and (N, n, r) member stacks: all
    views of ``flat``."""
    n, m, r = cfg.out_dim, cfg.in_dim, cfg.rank
    split = cfg.a_count * r * m
    a_cat, b_cat = flat[:split].reshape(-1, m), flat[split:].reshape(n, -1)
    return a_cat, b_cat, a_cat.reshape(-1, r, m), b_cat.reshape(n, -1, r).transpose(1, 0, 2)


def _run_sums(layer: CoLALayer, runs: _Runs) -> CoLALayer:
    """The run sums of ``layer``'s members as a layer of their own, whose
    config counts the runs as members: a copy of ``params`` where every run
    is one member, else each run summed left to right, one member at a time
    (numpy's reductions sum 8 or more one-element slices pairwise)."""
    cfg = replace(layer.config, a_count=len(runs[0]), b_count=len(runs[1]))
    if trainable_params(cfg) == layer.params.size:  # one member a run
        return CoLALayer(layer.w0, cfg, layer.params.copy())
    sums = CoLALayer(layer.w0, cfg, np.empty(trainable_params(cfg)))
    for pool, totals, side in zip(layer._views[2:], sums._views[2:], runs):
        for total, (lo, hi) in zip(totals, side):
            total[...] = pool[lo]
            for member in pool[lo + 1:hi]:
                total += member
    return sums


def _replay(calls: list[tuple]) -> None:
    """Run recorded ``(function, arguments)`` calls in order."""
    for function, args in calls:
        function(*args)


class _Workspace:
    """The buffers of a forward pass over run sums (of ``config``), for
    inputs of trailing shape ``cols``: DeltaW x (``out``) and the hidden state
    A_terms x, where DeltaW = B_terms A_terms multiplies over the terms (B_cat
    and A_cat where P = I); a backward pass allocates its own. A random
    composition's ``gather`` copies each drawing member's partner, named by
    ``pairing`` (reset by a resampling run), into term order, so no product
    stacks an undrawn partner; ``partner_sum``, the 0/1 partners-by-terms
    matrix, sums each partner's terms backward, on side ``partner`` (0 A, 1 B)."""

    def __init__(self, sums: CoLALayer, pairing_map: tuple[int, ...] | None,
                 cols: tuple[int, ...]):
        cfg, r = sums.config, sums.config.rank
        self.w0, self.config = sums.w0, cfg
        self.a_terms, self.b_terms = sums._views[:2]
        self.pairing = self.gather = self.partner = None
        if pairing_map is not None:
            self.pairing, count = np.array(pairing_map), len(pairing_map)
            self.partner = int(cfg.strategy is Strategy.RANDOM_AB)
            if self.partner:  # B_cat's column blocks, in term order
                source, axis = self.b_terms.reshape(cfg.out_dim, cfg.b_count, r), 1
                self.b_terms = np.empty((cfg.out_dim, count * r))
                target = self.b_terms.reshape(cfg.out_dim, count, r)
            else:  # A_cat's row blocks, in term order
                source, axis = self.a_terms.reshape(cfg.a_count, -1), 0
                self.a_terms = np.empty((count * r, cfg.in_dim))
                target = self.a_terms.reshape(count, -1)
            self.gather = (source.take, (self.pairing, axis, target, "wrap"))
            self.partner_sum = np.eye(source.shape[axis]).take(self.pairing, 1)
        self.out = np.empty((cfg.out_dim,) + cols)
        self.hidden = np.empty((self.a_terms.shape[0],) + cols)


def _apply(ws: _Workspace, x: np.ndarray, scale: float,
           base: np.ndarray | None = None) -> list[tuple]:
    """The calls that compute W0 x + (alpha/r) DeltaW x over the run sums of
    ``ws`` into ``ws.out``, factored: a random composition's gather, A_terms
    x, B_terms times it, the scales (one of exactly 1.0 is skipped) and W0 x,
    each product one 2-D ``np.dot`` into a buffer. Nothing runs until the
    calls are replayed. ``base``, holding W0 x when they run, replaces the
    product W0 x (a training run takes it from a table it multiplies once).
    """
    out = ws.out
    calls = [] if ws.gather is None else [ws.gather]
    calls += [(np.dot, (ws.a_terms, x, ws.hidden)), (np.dot, (ws.b_terms, ws.hidden, out))]
    # w0 @ x + alpha/r * (scale * out), rounded alike, into out's own storage
    calls += [(np.multiply, (out, s, out)) for s in (scale, ws.config.scale) if s != 1.0]
    if base is None:
        base = np.empty_like(out)
        calls.append((np.dot, (ws.w0, x, base)))
    return calls + [(np.add, (base, out, out))]


def forward(layer: CoLALayer, x: np.ndarray, mode: str = "eval",
            pairing: Pairing | None = None) -> np.ndarray:
    """Evaluate the layer on x (a length-m vector or an m x batch matrix).

    ``train`` mode composes a random strategy's sampled pairing: the one
    passed, or else the layer's own. ``eval`` mode composes a frozen pairing,
    or else the mean over uniform pairings, and rejects an explicit pairing.
    Deterministic strategies behave identically in both modes.
    """
    _check_choice("mode", mode, ("train", "eval"))
    x = _as_real(x, "x")
    m = layer.config.in_dim
    if x.ndim not in (1, 2) or x.shape[0] != m:
        raise ShapeError(f"x has shape {x.shape}; layer expects {m} or ({m}, batch)")
    if mode == "eval" and pairing is not None:
        raise ConfigError("eval-mode forward composes the layer's own pairing; pass none")
    if mode == "eval":
        runs, pairing_map, scale = _eval_composition(layer)
    else:
        runs, pairing_map, scale = _composition(layer.config, _check_pairing(
            layer.config, layer.pairing if pairing is None else pairing))
    ws = _Workspace(_run_sums(layer, runs), pairing_map, x.shape[1:])
    _replay(_apply(ws, x, scale))
    return ws.out


def _materialize(layer: CoLALayer, runs: _Runs, pairing_map: tuple[int, ...] | None,
                 scale: float) -> np.ndarray:
    ws = _Workspace(_run_sums(layer, runs), pairing_map, ())
    _replay([] if ws.gather is None else [ws.gather])
    return scale * (ws.b_terms @ ws.a_terms)


def delta_weight(layer: CoLALayer, pairing: Pairing | None = None) -> np.ndarray:
    """Materialized unscaled DeltaW for the layer's strategy (test oracle).

    Random strategies require the pairing that fixes the composition;
    deterministic strategies reject one.
    """
    return _materialize(layer, *_composition(layer.config, _check_pairing(layer.config, pairing)))


def delta_weight_eval(layer: CoLALayer) -> np.ndarray:
    """Deterministic DeltaW used by eval forward and merging.

    A frozen pairing composes its own map, the one the layer trains; else a
    random strategy takes the mean over uniform pairings, every sampled
    partner replaced by its pool mean: (sum B)(sum A) / N for AB, / M for BA.
    """
    return _materialize(layer, *_eval_composition(layer))


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

    forward: the frozen base map (n*m) plus, for each train-mode term of
    ``_composition``, one application of every A_i (r*m MACs) and B_j (n*r)
    in its runs; an all-zeros pairing stands in for any. train_step adds the
    reverse-mode products (one B^T g per up-application) and the gradient
    outer products (n x r per up-, r x m per down-application); the frozen
    base has no backward cost.
    """
    _check_choice("pass kind", pass_kind, ("forward", "train_step"))
    n, m, r = config.out_dim, config.in_dim, config.rank
    draw = _pairing_range(config)
    runs, pairing_map, _ = _composition(config, draw and (0,) * draw[1])
    # a term applies its runs' members; a random one, one member a side
    down_apps, up_apps = ((len(pairing_map),) * 2 if pairing_map else
                          (sum(hi - lo for lo, hi in side) for side in runs))
    parts = {"base": n * m, "down": down_apps * r * m, "up": up_apps * n * r}
    if pass_kind == "train_step":
        parts["reverse"] = up_apps * n * r
        parts["grad_outer"] = up_apps * n * r + down_apps * r * m
    return parts


def flop_count(config: CoLAConfig, pass_kind: str = "forward") -> int:
    """Total multiply-accumulate count for one sample through one layer."""
    return sum(flop_breakdown(config, pass_kind).values())
