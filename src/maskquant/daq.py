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
rollback: a group that stops stays in the stack, and each later sweep of it
is undone. Every reduction runs per group in the order a lone fit uses,
so a stack returns the same bits as fitting its groups one at a time. The
public functions are the G = 1 view of the stacked code. The stacks of one
call are independent, so the calling thread and a pool of one worker per
further core fit them side by side; the result does not depend on how
many workers there are.

All internal arithmetic is float64; returned scales are float32 and signs
are int8, strictly +-1 with sign(0) defined as +1.
"""
from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

# weights fitted as one stack, and the most that one elementwise pass of a fit
# touches at once: a larger group runs alone, in row tiles of at most this many
_MAX_STACK_WEIGHTS = 1 << 16
# threads that fit stacks beside the caller, one per further core the process
# may use; they start with the first call that has a stack to hand them, and
# live as long as the process, so each keeps one malloc arena, not one per call
_WORKERS = len(os.sched_getaffinity(0)) - 1
_pool: ThreadPoolExecutor | None = None


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


def _residual(target, planes, signs, out, skip: int | None = None) -> np.ndarray:
    """`target` less the sum of the terms planes[q] * signs[q] but `skip`,
    written to `out`. The sum runs from zero in term order (the order fixes
    the last bits, and so the bytes, of a fit)."""
    out.fill(0.0)
    for q in range(len(planes)):
        if q != skip:
            out += planes[q] * signs[q]
    return np.subtract(target, out, out=out)


def center_rows(w) -> tuple[np.ndarray, np.ndarray]:
    """Per-row means of `w` and `w` with them subtracted, both float64."""
    w = np.asarray(w, dtype=np.float64)
    mu = w.mean(axis=1)
    return mu, w - mu[:, None]


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


def _weighted_product(x, signs, lam2, out=None) -> np.ndarray:
    """lam2 * x * signs, or x * signs when unweighted: what a scale refit projects."""
    if lam2 is not None:
        x = np.multiply(lam2, x, out=out)
    return np.multiply(x, signs, out=out)


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
    base = list(itertools.product((1, -1), repeat=order))
    ranked = sorted(range(len(base)), key=lambda i: (base[i].count(-1), i))
    return np.array([base[i] for i in ranked], dtype=np.int8)


_CANDIDATES = {order: _sign_candidates(order) for order in (1, 2, 3)}  # (2^K, K) each


def _sign_search(target: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Exhaustive per-entry search over the sign combinations of all terms.

    `planes` (K, G, rows, cols) holds each term's outer(alpha_r, alpha_c).
    Returns (K, G, rows, cols) int8 signs whose scale-weighted sum is
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
    return [s.astype(np.float64) for s in _sign_search(target[None], planes[:, None])[:, 0]]


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
    stops stays in the stack, frozen: each later sweep of it is undone, so
    each keeps its own tolerance stop, sweep limit and rollback.

    Term q is planes[q] * signs[q], formed where it is needed. Residuals,
    weighted products, the sign search and squared errors run over row tiles
    of at most _MAX_STACK_WEIGHTS weights, into one stack-sized work buffer;
    the scale refits and loss sums read the whole buffer, so each reduction
    runs in the order of an untiled fit."""
    order = cfg.order
    size, rows, cols = target.shape
    planes = np.empty((order, size, rows, cols))  # outer(alpha_r, alpha_c) of each term
    signs = np.empty(planes.shape, dtype=np.int8)  # an int8 sign scales a float64 exactly
    ar = np.empty((order, size, rows))
    ac = np.empty((order, size, cols))
    work = np.empty_like(target)
    step = max(1, _MAX_STACK_WEIGHTS // (size * cols))
    tiles = [np.s_[..., r : r + step, :] for r in range(0, rows, step)]

    def loss() -> np.ndarray:
        for t in tiles:
            diff = _residual(target[t], planes[t], signs[t], work[t])
            work[t] = diff * diff if lam2 is None else lam2[t] * diff * diff
        return work.reshape(size, -1).sum(axis=1)

    for k in range(order):
        for t in tiles:
            _residual(target[t], planes[:k][t], signs[:k][t], work[t])
        ar[k], ac[k], signs[k] = _rc_init(work)
        _outer(ar[k], ac[k], out=planes[k])

    histories = [[value] for value in loss().tolist()]
    done = np.zeros(size, dtype=bool)
    for _ in range(cfg.sweeps):
        saved = ar.copy(), ac.copy(), signs
        for k in range(order):
            for t in tiles:
                x = _residual(target[t], planes[t], signs[t], work[t], skip=k)
                _weighted_product(x, signs[k][t], None if lam2 is None else lam2[t], out=x)
            ar[k] = _row_scales(work, lam2, ac[k], cfg.epsilon)
            ac[k] = _col_scales(work, lam2, ar[k], cfg.epsilon)
            _outer(ar[k], ac[k], out=planes[k])
        signs = np.empty_like(signs)
        for t in tiles:
            signs[t] = _sign_search(target[t], planes[t])
        cur = loss()
        prev = np.array([history[-1] for history in histories])
        # a sweep that raised the loss is undone, as is any sweep of a stopped
        # group; an undone group's planes are left as the sweep made them,
        # since it is stopped and its later sweeps are undone too
        undo = done | (cur > prev)
        for history, value, skip in zip(histories, cur.tolist(), undo):
            if not skip:
                history.append(value)
        ar[:, undo], ac[:, undo], signs[:, undo] = (s[:, undo] for s in saved)
        gain = np.divide(prev - cur, prev, out=np.zeros_like(prev), where=prev > 0)
        done |= undo | (prev <= 0.0) | (gain < cfg.tol)
        if done.all():
            break
    return [_fitted_group(ar, ac, signs, j, histories[j]) for j in range(size)]


def _fit_lane(blocks, lams, cfg: DaqConfig, starts, step: int) -> list[list[QuantizedGroup]]:
    """The fits of one lane's stacks, `blocks[start : start + step]` for each
    of `starts`, one list per stack."""
    out = []
    for start in starts:
        ws = [_validated(w) for w in blocks[start : start + step]]
        lam2 = None
        if lams is not None:
            chunk = lams[start : start + step]
            lam2 = np.stack([_squared_weights(lam, w.shape) for lam, w in zip(chunk, ws)])
        out.append(_fit_stack(np.stack(ws), lam2, cfg))
    return out


def _fit_groups(blocks, lams, cfg: DaqConfig) -> list[QuantizedGroup]:
    """daq_fit of each matrix of `blocks`, all of one shape, against the
    matching weight mask of `lams` (None: unweighted), run as stacks of at
    most _MAX_STACK_WEIGHTS weights (a larger group runs alone). The stacks
    are dealt round-robin to the caller and up to _WORKERS pool threads; the
    fits come back in block order, and an error raised by any lane is raised
    here once every lane has finished."""
    global _pool
    step = max(1, _MAX_STACK_WEIGHTS // max(1, np.size(blocks[0])))
    starts = range(0, len(blocks), step)
    lanes = min(len(starts), 1 + _WORKERS)
    if lanes > 1 and _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="daq")
    others = [
        _pool.submit(_fit_lane, blocks, lams, cfg, starts[lane::lanes], step)
        for lane in range(1, lanes)
    ]
    try:
        done = [_fit_lane(blocks, lams, cfg, starts[::lanes], step)]
    finally:
        wait(others)
    done += [future.result() for future in others]
    return [fit for i in range(len(starts)) for fit in done[i % lanes][i // lanes]]


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
