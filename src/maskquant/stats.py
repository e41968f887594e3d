"""Activation statistics and the saliency weighting derived from them.

A :class:`SecondMoment` accumulates the unnormalized sum of per-token outer
products of a layer's inputs in float64. From a layer's weight matrix and
the damped inverse diagonal of its second moment we derive a per-entry
importance matrix, flag its outliers into a boolean mask, and
score column groups for precision allocation.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .container import ContainerError, read_tensor, write_tensor
from .errors import ShapeError


class SecondMoment:
    """Running gram accumulation over token columns, kept in float64.

    Accumulation is a left-to-right fold over activation blocks: the same
    blocks in the same order reproduce the gram bit for bit, while splitting
    the same columns into different blocks agrees only to float rounding.
    Calibration folds 512-token blocks of sequences, so its grams differ in
    the last bits from a fold of one sequence at a time (at most 3.4e-15
    relative to the largest entry on the README toy and benchmark configs).

    `count` tallies the token columns accumulated in this process; a moment
    loaded from a file has `count` None, because the file does not record it.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.gram = np.zeros((dim, dim), dtype=np.float64)
        self.count: int | None = 0

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def accumulate(self, inputs: np.ndarray) -> None:
        """Add the gram of one (features, tokens) activation block."""
        inputs = np.asarray(inputs)
        if inputs.ndim != 2 or inputs.shape[0] != self.dim:
            raise ShapeError(
                f"activation block has shape {inputs.shape}, expected ({self.dim}, *)"
            )
        x = inputs.astype(np.float64, copy=False)
        self.gram += x @ x.T
        self.count += inputs.shape[1]


def save_second_moment(sm: SecondMoment, path: str | os.PathLike) -> None:
    """The gram as a QDT1 float64 tensor."""
    write_tensor(Path(path), sm.gram)


def load_second_moment(path: str | os.PathLike) -> SecondMoment:
    gram = read_tensor(Path(path))
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.size == 0:
        raise ShapeError(f"{path}: not a nonempty square matrix")
    if (np.diag(gram) < 0).any():
        raise ContainerError(f"{path}: negative diagonal entry, impossible in a second moment")
    sm = SecondMoment(gram.shape[0])
    sm.gram = gram.astype(np.float64, copy=False)
    sm.count = None
    return sm


def damped_inverse_diag(sm: SecondMoment, damp_rel: float = 0.01) -> np.ndarray:
    """Diagonal of (gram + damp*I)^-1 with damp = damp_rel * mean(diag).

    damp_rel=0 is accepted but raises if the undamped matrix is singular, as
    does an empty moment: its zero diagonal makes damp 0. A gram that is not
    positive definite after damping raises the same error, since the diagonal
    comes from its Cholesky factor.
    """
    if damp_rel < 0:
        raise ValueError("damp_rel must be >= 0")
    damp = damp_rel * float(np.mean(np.diag(sm.gram)))
    a = sm.gram.copy()
    a.flat[:: sm.dim + 1] += damp
    try:
        d = _cholesky_inverse_diag(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"second moment singular even with damp={damp:g}") from exc
    if not np.isfinite(d).all() or (d <= 0).any():
        raise ValueError(f"second moment singular even with damp={damp:g}")
    return d


_BLOCK = 64  # fastest of 32, 64, 96, 128 and 256 at widths 384 to 1024 on 2 cores


def _cholesky_inverse_diag(a: np.ndarray) -> np.ndarray:
    """Diagonal of a^-1 for a symmetric positive definite `a`, overwritten.

    a = L L^T, so diag(a^-1) holds the column sums of squares of L^-1. A
    left-looking blocked Cholesky writes L into the lower triangle, keeping
    each diagonal block's inverse in place of the block (later columns never
    read it); L^-1 then replaces L one block column at a time from the right.
    The O(n^3) work is matmuls on panels of at most n x _BLOCK; LAPACK sees
    only the diagonal blocks. Raises LinAlgError if `a` is not positive
    definite.
    """
    n = a.shape[0]
    starts = range(0, n, _BLOCK)
    for j in starts:
        e = min(j + _BLOCK, n)
        if j:
            a[j:, j:e] -= a[j:, :j] @ a[j:e, :j].T
        inv_jj = np.tril(np.linalg.inv(np.linalg.cholesky(a[j:e, j:e])))
        a[j:e, j:e] = inv_jj
        a[e:, j:e] = a[e:, j:e] @ inv_jj.T
        a[j:e, e:] = 0.0  # the trailing inverse below multiplies by whole rows
    for j in reversed(starts):
        e = min(j + _BLOCK, n)
        # L^-1 below block j: -(L[e:, e:])^-1 L[e:, j:e] L[j:e, j:e]^-1
        a[e:, j:e] = a[e:, e:] @ a[e:, j:e] @ -a[j:e, j:e]
    np.square(a, out=a)
    return a.sum(axis=0)


def importance_matrix(weights: np.ndarray, inv_diag: np.ndarray) -> np.ndarray:
    """Squared column-normalized weights: entry (i,j) is (w_ij / inv_diag_j)^2."""
    w = np.asarray(weights, dtype=np.float64)
    d = np.asarray(inv_diag, dtype=np.float64)
    if w.ndim != 2 or d.ndim != 1 or w.shape[1] != d.size:
        raise ShapeError(f"incompatible shapes {w.shape} and {d.shape}")
    if (d <= 0).any():
        raise ValueError("inverse diagonal entries must be positive")
    scaled = w / d[None, :]
    return scaled * scaled


def build_importance_mask(importance: np.ndarray) -> np.ndarray:
    """Boolean outlier mask: entries more than three standard deviations from
    the global mean.

    A constant importance matrix has no outliers (an all-False mask), not an
    error, so flat layers degrade gracefully.
    """
    z = np.asarray(importance, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty importance matrix")
    sigma = z.std()
    if sigma > 0:
        return np.abs(z - z.mean()) > 3.0 * sigma
    return np.zeros_like(z, dtype=bool)


def proxy_loss(weights, approx, lam: np.ndarray | None = None) -> float:
    """Squared Frobenius error, elementwise-weighted by `lam` when given."""
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(approx, dtype=np.float64)
    if w.shape != a.shape:
        raise ShapeError(f"shape mismatch: {w.shape} vs {a.shape}")
    diff = w - a
    if lam is not None:
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != w.shape:
            raise ShapeError(f"weight mask shape {lam.shape} vs {w.shape}")
        diff = lam * diff
    return float((diff * diff).sum())


def true_data_loss(weights, approx, sm: SecondMoment) -> float:
    """Quadratic-form output error of the approximation under the accumulated
    second moment; equals the squared Frobenius error of the output difference
    on exactly the activations that built `sm`."""
    w = np.asarray(weights)
    a = np.asarray(approx)
    if w.shape != a.shape:
        raise ShapeError(f"shape mismatch: {w.shape} vs {a.shape}")
    if w.shape[1] != sm.dim:
        raise ShapeError(f"weights have {w.shape[1]} columns, second moment is {sm.dim}")
    diff = np.subtract(w, a, dtype=np.float64)
    out = diff @ sm.gram
    out *= diff
    return float(out.sum())


def block_scores(importance: np.ndarray, ranges) -> np.ndarray:
    """Sum of importance over each column range; ranges must tile the columns."""
    z = np.asarray(importance, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError("importance must be 2-D")
    ranges = list(ranges)
    cursor = 0
    for start, end in ranges:
        if start != cursor or end <= start:
            raise ShapeError(f"ranges must tile columns without gaps or overlaps: {ranges}")
        cursor = end
    if cursor != z.shape[1]:
        raise ShapeError(f"ranges cover {cursor} columns, matrix has {z.shape[1]}")
    return np.array([z[:, start:end].sum() for start, end in ranges])
