"""Multi-binary weight fitting with separable row/column scales.

A weight matrix is approximated by a sum of sign matrices, each modulated by
the outer product of a per-row and a per-column scale vector. Fitting runs
in two phases: a greedy pass that initializes each term on the running
residual, then refinement sweeps that alternate closed-form scale updates
(one term at a time, against the residual of the others) with a joint
exhaustive per-entry sign search over all terms. An optional elementwise
weight matrix concentrates the objective on salient entries.

Groups of one shape are fitted together as a (G, rows, cols) stack of at
most _MAX_STACK_WEIGHTS weights. Each group keeps its own stop rule and
rollback, and every reduction runs per group in the order a lone fit uses,
so a stack returns the same bits as fitting its groups one at a time. The
public functions are the G = 1 view of the stacked code.

All internal arithmetic is float64; returned scales are float32 and signs
are int8, strictly +-1 with sign(0) defined as +1.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

_MAX_STACK_WEIGHTS = 1 << 16  # weights fitted as one stack: bounds the temporaries of a wide layer


@dataclass(frozen=True)
class DaqConfig:
    order: int = 2           # number of binary terms, 1..3
    sweeps: int = 10         # maximum refinement passes
    tol: float = 1e-6        # relative improvement below which refinement stops
    epsilon: float = 1e-8    # stabilizer added to update denominators

    def __post_init__(self):
        if self.order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2, or 3, got {self.order}")
        if self.sweeps < 0:
            raise ValueError("sweeps must be >= 0")
        if not 0.0 < self.epsilon <= 1e-4:  # a stabilizer: above 1e-4 it starts to move the fit
            raise ValueError(f"epsilon must be in (0, 1e-4], got {self.epsilon}")
        if not 0.0 <= self.tol < 1.0:  # a relative improvement never reaches 1
            raise ValueError(f"tol must be in [0, 1), got {self.tol}")


@dataclass
class RCBinaryOrder:
    """One binary term: signs modulated by outer(alpha_r, alpha_c)."""

    alpha_r: np.ndarray  # (rows,) float32
    alpha_c: np.ndarray  # (cols,) float32
    signs: np.ndarray    # (rows, cols) int8, strictly +-1

    def reconstruct(self) -> np.ndarray:
        return np.outer(self.alpha_r, self.alpha_c) * self.signs


@dataclass
class QuantizedGroup:
    """Sum of binary terms.

    loss_history holds the float64 weighted objective after the greedy
    initialization and after each refinement sweep.
    """

    orders: list[RCBinaryOrder]
    loss_history: list[float] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return self.orders[0].signs.shape

    def reconstruct(self) -> np.ndarray:
        total = np.zeros(self.shape, dtype=np.float64)
        for term in self.orders:
            total += term.reconstruct()
        return total


def _validated(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] == 0 or w.shape[1] == 0:
        raise ShapeError(f"expected a nonempty 2-D matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("matrix contains non-finite entries")
    return w


def _checked(name: str, value, shape: tuple) -> np.ndarray:
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ShapeError(f"{name} has shape {value.shape}, expected {shape}")
    return value


def _squared_weights(lam, shape) -> np.ndarray:
    lam = _checked("weight mask", lam, shape)
    if not np.isfinite(lam).all():
        raise ValueError("weight mask contains non-finite entries")
    return lam * lam


def _outer(alpha_r: np.ndarray, alpha_c: np.ndarray, out=None) -> np.ndarray:
    """Outer products over the last axis: (..., rows) x (..., cols) -> (..., rows, cols)."""
    return np.multiply(alpha_r[..., :, None], alpha_c[..., None, :], out=out)


def _weighted_sq(diff: np.ndarray, lam2: np.ndarray | None) -> np.ndarray:
    """Each group's (weighted) sum of squares: (G, rows, cols) -> (G,)."""
    sq = diff * diff if lam2 is None else lam2 * diff * diff
    return sq.reshape(len(sq), -1).sum(axis=1)


def _sum_terms(terms: np.ndarray, skip: int | None = None) -> np.ndarray:
    """The sum of the terms but `skip`, accumulated from zero in term order
    (the order fixes the last bits, and so the bytes, of a fit)."""
    total = np.zeros(terms.shape[1:])
    for q, term in enumerate(terms):
        if q != skip:
            total += term
    return total


def center_rows(w) -> tuple[np.ndarray, np.ndarray]:
    """Per-row means of `w` and `w` with them subtracted, both float64."""
    w = np.asarray(w, dtype=np.float64)
    mu = w.mean(axis=1)
    return mu, w - mu[:, None]


def classic_binarize(w):
    """Per-row single-scale binarization: sign carrier times the row mean of
    absolute values. Returns (alpha_r, signs); to binarize around the row
    means, pass the second result of center_rows.
    """
    w = _validated(w)
    alpha_r = np.abs(w).mean(axis=1)
    signs = np.where(w >= 0, 1, -1).astype(np.int8)
    return alpha_r, signs


def _rc_init(x: np.ndarray):
    """Magnitude-matched starting point of each matrix of the stack `x`: row
    scales are row means of |x|, column scales are column means of |x| after
    row normalization, and the carrier is the sign pattern. Zero rows
    contribute nothing to the column scales."""
    ax = np.abs(x)
    alpha_r = ax.mean(axis=-1)
    ratios = np.divide(
        ax, alpha_r[..., None], out=np.zeros_like(ax), where=alpha_r[..., None] > 0
    )
    alpha_c = ratios.mean(axis=-2)
    signs = np.where(x >= 0, 1.0, -1.0)
    return alpha_r, alpha_c, signs


def _weighted_product(x, signs, lam2) -> np.ndarray:
    """lam2 * x * signs, or x * signs when unweighted: what a scale refit projects."""
    return x * signs if lam2 is None else lam2 * x * signs


def _row_scales(prod, lam2, scales, epsilon: float) -> np.ndarray:
    """Each row's weighted least-squares coefficient of x against
    signs * scales along that row, for stacks: `prod` is the
    _weighted_product of x, the signs and the squared weights lam2, all
    (G, rows, cols); scales is (G, cols), the result (G, rows). epsilon keeps
    empty denominators finite."""
    num = (prod @ scales[..., None])[..., 0]
    if lam2 is None:
        den = (scales * scales).sum(axis=-1)[:, None]
    else:
        den = (lam2 @ (scales * scales)[..., None])[..., 0]
    return num / (den + epsilon)


def _col_scales(prod, lam2, scales, epsilon: float) -> np.ndarray:
    """The column refit: the row refit of the transposed stacks. They are
    views, so each matrix reaches BLAS in the same layout, and its sums run
    in the same order, whether it is fitted alone or in a stack."""
    lam2_t = None if lam2 is None else np.swapaxes(lam2, -1, -2)
    return _row_scales(np.swapaxes(prod, -1, -2), lam2_t, scales, epsilon)


def _update_operands(x, signs, lam):
    """The weighted product and squared weights of one matrix, as stacks of one."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {x.shape}")
    signs = _checked("signs", signs, x.shape)
    lam2 = None if lam is None else _squared_weights(lam, x.shape)[None]
    return _weighted_product(x[None], signs[None], lam2), lam2


def update_alpha_r(x, signs, alpha_c, lam=None, epsilon: float = 1e-8) -> np.ndarray:
    """Closed-form row-scale refit with the carrier and column scales fixed."""
    prod, lam2 = _update_operands(x, signs, lam)
    alpha_c = _checked("alpha_c", alpha_c, prod.shape[2:])
    return _row_scales(prod, lam2, alpha_c[None], epsilon)[0]


def update_alpha_c(x, signs, alpha_r, lam=None, epsilon: float = 1e-8) -> np.ndarray:
    """Closed-form column-scale refit with the carrier and row scales fixed:
    the row refit of the transposed problem."""
    prod, lam2 = _update_operands(x, signs, lam)
    alpha_r = _checked("alpha_r", alpha_r, prod.shape[1:2])
    return _col_scales(prod, lam2, alpha_r[None], epsilon)[0]


def _sign_candidates(order: int) -> np.ndarray:
    # Candidates ordered so that ties resolve to the most +1 entries, then
    # lexicographically with +1 before -1.
    base = list(itertools.product((1.0, -1.0), repeat=order))
    ranked = sorted(range(len(base)), key=lambda i: (base[i].count(-1.0), i))
    return np.array([base[i] for i in ranked])


_CANDIDATES = {order: _sign_candidates(order) for order in (1, 2, 3)}  # (2^K, K) each


def _sign_search(target: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Exhaustive per-entry search over the sign combinations of all terms.

    `planes` (K, G, rows, cols) holds each term's outer(alpha_r, alpha_c).
    Returns (K, G, rows, cols) float64 signs whose scale-weighted sum is
    closest to `target` (G, rows, cols). Candidates are tried in ranked order
    and only a strictly closer one replaces the best so far, so ties keep the
    first: the most +1 entries.
    """
    cands = _CANDIDATES[len(planes)]
    # sums[i] adds the planes left to right from +planes[0], subtracting plane
    # k where bit k-1 of i is set; a candidate led by -1 is the negation of
    # the one led by +1, and rounding is symmetric, so it needs no sum of its own
    sums = [planes[0]]
    for plane in planes[1:]:
        sums = [s + plane for s in sums] + [s - plane for s in sums]
    err = np.empty_like(target)
    best = np.empty_like(target)
    closer = np.empty(target.shape, dtype=bool)
    rank = np.zeros(target.shape, dtype=np.int8)
    for c, cand in enumerate(cands):
        idx = sum(1 << (k - 1) for k in range(1, len(cand)) if cand[k] != cand[0])
        (np.subtract if cand[0] > 0 else np.add)(target, sums[idx], out=err)
        np.abs(err, out=best if c == 0 else err)
        if c:
            np.less(err, best, out=closer)
            np.minimum(best, err, out=best)
            # ranks only grow, so the latest strictly closer candidate has the largest
            np.maximum(rank, np.multiply(closer, np.int8(c)), out=rank)
    return np.take(cands.T, rank.astype(np.intp), axis=1)


def update_signs(target, scale_pairs) -> list[np.ndarray]:
    """Exhaustive per-entry search over all sign combinations of every term.

    For each entry, picks the combination whose scale-weighted sum is closest
    to the target. Returns one float64 sign matrix per term.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 2:
        raise ShapeError(f"expected a 2-D target, got shape {target.shape}")
    pairs = list(scale_pairs)
    if not 1 <= len(pairs) <= 3:
        raise ValueError(f"sign search supports 1..3 terms, got {len(pairs)}")
    rows, cols = target.shape
    planes = np.stack([
        _outer(
            _checked(f"alpha_r of term {k}", ar, (rows,)),
            _checked(f"alpha_c of term {k}", ac, (cols,)),
        )
        for k, (ar, ac) in enumerate(pairs)
    ])
    return list(_sign_search(target[None], planes[:, None])[:, 0])


def _fitted_group(ar, ac, signs, j: int, history: list[float]) -> QuantizedGroup:
    """Group j of a stack's scales (K, G, n) and signs (K, G, rows, cols), as
    returned: float32 scales and int8 signs."""
    orders = [
        RCBinaryOrder(
            alpha_r=ar[k, j].astype(np.float32),
            alpha_c=ac[k, j].astype(np.float32),
            signs=signs[k, j].astype(np.int8),
        )
        for k in range(len(ar))
    ]
    return QuantizedGroup(orders=orders, loss_history=history)


def _fit_stack(
    target: np.ndarray, lam2: np.ndarray | None, cfg: DaqConfig
) -> list[QuantizedGroup]:
    """daq_fit of each matrix of the stack `target` (G, rows, cols) against
    the squared weight masks `lam2` (the same shape, or None). A group that
    stops leaves the stack, so each keeps its own tolerance stop, sweep limit
    and rollback."""
    order = cfg.order
    size, rows, cols = target.shape
    terms = np.empty((order, size, rows, cols))  # outer(alpha_r, alpha_c) * signs of each term
    signs = np.empty_like(terms)
    ar = np.empty((order, size, rows))
    ac = np.empty((order, size, cols))
    for k in range(order):
        ar[k], ac[k], signs[k] = _rc_init(target - _sum_terms(terms[:k]))
        np.multiply(_outer(ar[k], ac[k]), signs[k], out=terms[k])

    histories = [[loss] for loss in _weighted_sq(target - _sum_terms(terms), lam2).tolist()]
    live = list(range(size))  # stack position -> group
    fits: list[QuantizedGroup | None] = [None] * size
    for sweep in range(cfg.sweeps):
        saved = ar.copy(), ac.copy(), signs
        planes = np.empty_like(terms)  # outer(alpha_r, alpha_c) of each term
        for k in range(order):
            prod = _weighted_product(target - _sum_terms(terms, skip=k), signs[k], lam2)
            ar[k] = _row_scales(prod, lam2, ac[k], cfg.epsilon)
            ac[k] = _col_scales(prod, lam2, ar[k], cfg.epsilon)
            np.multiply(_outer(ar[k], ac[k], out=planes[k]), signs[k], out=terms[k])
        signs = _sign_search(target, planes)
        np.multiply(planes, signs, out=terms)
        cur = _weighted_sq(target - _sum_terms(terms), lam2)
        prev = np.array([histories[g][-1] for g in live])
        # a sweep that raised the loss is undone; otherwise it is recorded
        rolled = cur > prev
        for g, loss, undo in zip(live, cur.tolist(), rolled):
            if not undo:
                histories[g].append(loss)
        if rolled.any():
            ar[:, rolled], ac[:, rolled], signs[:, rolled] = (s[:, rolled] for s in saved)
        gain = np.divide(prev - cur, prev, out=np.zeros_like(prev), where=prev > 0)
        stopped = rolled | (prev <= 0.0) | (gain < cfg.tol)
        if stopped.all() or sweep == cfg.sweeps - 1:
            break
        if stopped.any():
            for j in np.flatnonzero(stopped):
                fits[live[j]] = _fitted_group(ar, ac, signs, j, histories[live[j]])
            keep = ~stopped
            live = [g for g, kept in zip(live, keep) if kept]
            target = target[keep]
            lam2 = None if lam2 is None else lam2[keep]
            ar, ac, signs, terms = ar[:, keep], ac[:, keep], signs[:, keep], terms[:, keep]
    for j, g in enumerate(live):
        fits[g] = _fitted_group(ar, ac, signs, j, histories[g])
    return fits


def _fit_groups(blocks, lams, cfg: DaqConfig) -> list[QuantizedGroup]:
    """daq_fit of each matrix of `blocks`, all of one shape, against the
    matching weight mask of `lams` (None: unweighted), run as stacks of at
    most _MAX_STACK_WEIGHTS weights (a larger group runs alone)."""
    step = max(1, _MAX_STACK_WEIGHTS // max(1, np.size(blocks[0])))
    fits = []
    for start in range(0, len(blocks), step):
        ws = [_validated(w) for w in blocks[start : start + step]]
        lam2 = None
        if lams is not None:
            chunk = lams[start : start + step]
            lam2 = np.stack([_squared_weights(lam, w.shape) for lam, w in zip(chunk, ws)])
        fits += _fit_stack(np.stack(ws), lam2, cfg)
    return fits


def daq_fit(w, lam=None, cfg: DaqConfig | None = None) -> QuantizedGroup:
    """Fit a multi-binary representation of `w` as given: rows are not
    centered here (see center_rows).

    Greedy phase: each term is initialized on the residual left by the
    previous ones. Refinement phase: for each term in turn, both scale
    vectors are refit in closed form against the residual of the other
    terms, then all carriers are refreshed jointly by exhaustive search and
    the weighted objective is recorded. Sweeps stop early once the relative
    improvement drops below cfg.tol; a sweep that fails to improve (possible
    only at epsilon-level convergence, where the stabilized denominators
    perturb an already-optimal scale) is rolled back, so the recorded
    history and the returned state are non-increasing by construction.
    """
    return _fit_groups([w], None if lam is None else [lam], cfg or DaqConfig())[0]
