"""Multi-binary weight fitting with separable row/column scales.

A weight matrix is approximated by a sum of sign matrices, each modulated by
the outer product of a per-row and a per-column scale vector. Fitting runs
in two phases: a greedy pass that initializes each term on the running
residual, then refinement sweeps that alternate closed-form scale updates
(one term at a time, against the residual of the others) with a joint
exhaustive per-entry sign search over all terms. An optional elementwise
weight matrix concentrates the objective on salient entries.

All internal arithmetic is float64; returned scales are float32 and signs
are int8, strictly +-1 with sign(0) defined as +1.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class DaqConfig:
    order: int = 2           # number of binary terms, 1..3
    sweeps: int = 10         # maximum refinement passes
    tol: float = 1e-6        # relative improvement below which refinement stops
    epsilon: float = 1e-8    # stabilizer added to update denominators
    row_center: bool = True  # subtract per-row means before fitting

    def __post_init__(self):
        if self.order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2, or 3, got {self.order}")
        if self.sweeps < 0:
            raise ValueError("sweeps must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


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
    """Sum of binary terms plus an optional per-row mean.

    loss_history holds the float64 weighted objective after the greedy
    initialization and after each refinement sweep.
    """

    orders: list[RCBinaryOrder]
    row_mean: np.ndarray | None = None
    loss_history: list[float] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return self.orders[0].signs.shape

    def reconstruct(self) -> np.ndarray:
        total = np.zeros(self.shape, dtype=np.float64)
        for term in self.orders:
            total += term.reconstruct()
        if self.row_mean is not None:
            total += np.asarray(self.row_mean, dtype=np.float64)[:, None]
        return total


def _validated(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] == 0 or w.shape[1] == 0:
        raise ShapeError(f"expected a nonempty 2-D matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("matrix contains non-finite entries")
    return w


def _squared_weights(lam, shape) -> np.ndarray | None:
    if lam is None:
        return None
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != shape:
        raise ShapeError(f"weight mask shape {lam.shape} does not match {shape}")
    return lam * lam


def _weighted_sq(diff: np.ndarray, lam2: np.ndarray | None) -> float:
    if lam2 is None:
        return float((diff * diff).sum())
    return float((lam2 * diff * diff).sum())


def center_rows(w) -> tuple[np.ndarray, np.ndarray]:
    """Per-row means of `w` and `w` with them subtracted, both float64."""
    w = np.asarray(w, dtype=np.float64)
    mu = w.mean(axis=1)
    return mu, w - mu[:, None]


def classic_binarize(w, row_center: bool = True):
    """Per-row single-scale binarization: sign carrier times the row mean of
    absolute values, optionally after removing per-row means.

    Returns (alpha_r, signs, row_mean); row_mean is None when centering is off.
    """
    w = _validated(w)
    mu = None
    if row_center:
        mu, w = center_rows(w)
    alpha_r = np.abs(w).mean(axis=1)
    signs = np.where(w >= 0, 1, -1).astype(np.int8)
    return alpha_r, signs, mu


def _rc_init(x: np.ndarray):
    """Magnitude-matched starting point: row scales are row means of |x|,
    column scales are column means of |x| after row normalization, and the
    carrier is the sign pattern. Zero rows contribute nothing to the column
    scales."""
    ax = np.abs(x)
    alpha_r = ax.mean(axis=1)
    ratios = np.divide(
        ax, alpha_r[:, None], out=np.zeros_like(ax), where=alpha_r[:, None] > 0
    )
    alpha_c = ratios.mean(axis=0)
    signs = np.where(x >= 0, 1.0, -1.0)
    return alpha_r, alpha_c, signs


def _row_scales(x, signs, scales, lam, epsilon: float) -> np.ndarray:
    """Each row's weighted least-squares coefficient of `x` against
    signs * scales along that row; epsilon keeps empty denominators finite."""
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(signs, dtype=np.float64)
    c = np.asarray(scales, dtype=np.float64)
    lam2 = _squared_weights(lam, x.shape)
    if lam2 is None:
        num = (x * b) @ c
        den = np.full(x.shape[0], (c * c).sum())
    else:
        num = (lam2 * x * b) @ c
        den = lam2 @ (c * c)
    return num / (den + epsilon)


def update_alpha_r(x, signs, alpha_c, lam=None, epsilon: float = 1e-8) -> np.ndarray:
    """Closed-form row-scale refit with the carrier and column scales fixed."""
    return _row_scales(x, signs, alpha_c, lam, epsilon)


def update_alpha_c(x, signs, alpha_r, lam=None, epsilon: float = 1e-8) -> np.ndarray:
    """Closed-form column-scale refit with the carrier and row scales fixed:
    the row refit of the transposed problem."""
    lam_t = None if lam is None else np.transpose(lam)
    return _row_scales(np.transpose(x), np.transpose(signs), alpha_r, lam_t, epsilon)


def _sign_candidates(order: int) -> np.ndarray:
    # Candidates ordered so that ties resolve to the most +1 entries, then
    # lexicographically with +1 before -1; argmin takes the first minimum.
    base = list(itertools.product((1.0, -1.0), repeat=order))
    ranked = sorted(range(len(base)), key=lambda i: (base[i].count(-1.0), i))
    return np.array([base[i] for i in ranked])


def update_signs(target, scale_pairs) -> list[np.ndarray]:
    """Exhaustive per-entry search over all sign combinations of every term.

    For each entry, picks the combination whose scale-weighted sum is closest
    to the target. Returns one float64 sign matrix per term.
    """
    target = np.asarray(target, dtype=np.float64)
    pairs = list(scale_pairs)
    order = len(pairs)
    if not 1 <= order <= 3:
        raise ValueError(f"sign search supports 1..3 terms, got {order}")
    planes = np.stack(
        [np.outer(np.asarray(ar, np.float64), np.asarray(ac, np.float64)) for ar, ac in pairs]
    )
    cands = _sign_candidates(order)                  # (2^K, K)
    approx = np.tensordot(cands, planes, axes=(1, 0))  # (2^K, rows, cols)
    best = np.abs(target[None] - approx).argmin(axis=0)
    return [cands[best, k] for k in range(order)]


def daq_fit(w, lam=None, cfg: DaqConfig | None = None) -> QuantizedGroup:
    """Fit a multi-binary representation of `w`.

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
    cfg = cfg or DaqConfig()
    w = _validated(w)
    lam2 = _squared_weights(lam, w.shape)

    mu, target = center_rows(w) if cfg.row_center else (None, w)

    scales: list[tuple[np.ndarray, np.ndarray]] = []
    signs: list[np.ndarray] = []

    def recon(skip: int | None = None) -> np.ndarray:
        total = np.zeros_like(target)
        for q, ((ar, ac), b) in enumerate(zip(scales, signs)):
            if q != skip:
                total += np.outer(ar, ac) * b
        return total

    for _ in range(cfg.order):
        ar, ac, b = _rc_init(target - recon())
        scales.append((ar, ac))
        signs.append(b)

    history = [_weighted_sq(target - recon(), lam2)]
    for _ in range(cfg.sweeps):
        saved = (list(scales), list(signs))
        for k in range(cfg.order):
            residual = target - recon(skip=k)
            ar = update_alpha_r(residual, signs[k], scales[k][1], lam, cfg.epsilon)
            ac = update_alpha_c(residual, signs[k], ar, lam, cfg.epsilon)
            scales[k] = (ar, ac)
        signs = update_signs(target, scales)
        cur = _weighted_sq(target - recon(), lam2)
        prev = history[-1]
        if cur > prev:
            scales, signs = saved
            break
        history.append(cur)
        if prev <= 0.0 or (prev - cur) / prev < cfg.tol:
            break

    orders = [
        RCBinaryOrder(
            alpha_r=ar.astype(np.float32),
            alpha_c=ac.astype(np.float32),
            signs=b.astype(np.int8),
        )
        for (ar, ac), b in zip(scales, signs)
    ]
    row_mean = mu.astype(np.float32) if mu is not None else None
    return QuantizedGroup(orders=orders, row_mean=row_mean, loss_history=history)

