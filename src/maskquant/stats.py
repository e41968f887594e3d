"""Activation statistics and the saliency weighting derived from them.

A :class:`SecondMoment` accumulates the unnormalized sum of per-token outer
products of a layer's inputs in float64. From a layer's weight matrix and
the damped inverse diagonal of its second moment we derive a per-entry
importance matrix, flag its outliers into an elementwise weight mask, and
score column groups for precision allocation.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import ContainerError, read_tensor, write_tensor
from .errors import ShapeError


class SecondMoment:
    """Running gram accumulation over token columns, kept in float64.

    Accumulation is a left-to-right fold over activation blocks: the same
    blocks in the same order reproduce the gram bit for bit, while splitting
    the same columns into different blocks agrees only to float rounding.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.gram = np.zeros((dim, dim), dtype=np.float64)
        self.count = 0

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
    """QDT1 float64 tensor plus a sidecar `<path>.count` file."""
    write_tensor(Path(path), sm.gram)
    Path(str(path) + ".count").write_text(f"{sm.count}\n")


def load_second_moment(path: str | os.PathLike) -> SecondMoment:
    gram = read_tensor(Path(path))
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.size == 0:
        raise ShapeError(f"{path}: not a nonempty square matrix")
    if (np.diag(gram) < 0).any():
        raise ContainerError(f"{path}: negative diagonal entry, impossible in a second moment")
    sm = SecondMoment(gram.shape[0])
    sm.gram = gram.astype(np.float64)
    count_path = str(path) + ".count"
    raw = Path(count_path).read_bytes().strip()
    if not raw.isdigit():  # ASCII digits only, so no sign, no point, no other script
        text = raw.decode(errors="replace")
        raise ContainerError(f"{count_path}: token count {text!r} is not a non-negative integer")
    sm.count = int(raw)
    if sm.count == 0:
        raise ContainerError(f"{count_path}: token count is 0, so the second moment is empty")
    return sm


def damped_inverse_diag(sm: SecondMoment, damp_rel: float = 0.01) -> np.ndarray:
    """Diagonal of (gram + damp*I)^-1 with damp = damp_rel * mean(diag).

    damp_rel=0 is accepted but raises if the undamped matrix is singular.
    """
    if sm.count <= 0:
        raise ValueError("second moment is empty")
    if damp_rel < 0:
        raise ValueError("damp_rel must be >= 0")
    damp = damp_rel * float(np.mean(np.diag(sm.gram)))
    a = sm.gram + damp * np.eye(sm.dim)
    try:
        inv = np.linalg.solve(a, np.eye(sm.dim))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"second moment singular even with damp={damp:g}") from exc
    d = np.diag(inv).copy()
    if not np.isfinite(d).all() or (d <= 0).any():
        raise ValueError(f"second moment singular even with damp={damp:g}")
    return d


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


@dataclass
class SaliencyMask:
    """Boolean outlier mask with its upweight factor."""

    lambda_weight: float
    mask: np.ndarray  # (rows, cols) bool

    def weights(self) -> np.ndarray:
        """Elementwise weight matrix: 1 everywhere, lambda_weight on outliers."""
        return 1.0 + (self.lambda_weight - 1.0) * self.mask.astype(np.float64)

    @property
    def outlier_fraction(self) -> float:
        return float(self.mask.mean()) if self.mask.size else 0.0


def build_importance_mask(importance: np.ndarray, lambda_weight: float = 2.0) -> SaliencyMask:
    """Flag entries more than three standard deviations from the global mean.

    A constant importance matrix has no outliers (all-ones weights), not an
    error, so flat layers degrade gracefully.
    """
    z = np.asarray(importance, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty importance matrix")
    if lambda_weight <= 1.0:
        raise ValueError("lambda_weight must be > 1")
    mu = z.mean()
    sigma = z.std()
    if sigma > 0:
        mask = np.abs(z - mu) > 3.0 * sigma
    else:
        mask = np.zeros_like(z, dtype=bool)
    return SaliencyMask(lambda_weight=float(lambda_weight), mask=mask)


def proxy_loss(weights, approx, mask: SaliencyMask | np.ndarray | None = None) -> float:
    """Squared Frobenius error, elementwise-weighted when a mask is given."""
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(approx, dtype=np.float64)
    if w.shape != a.shape:
        raise ShapeError(f"shape mismatch: {w.shape} vs {a.shape}")
    diff = w - a
    if mask is not None:
        lam = mask.weights() if isinstance(mask, SaliencyMask) else np.asarray(mask, dtype=np.float64)
        if lam.shape != w.shape:
            raise ShapeError(f"weight mask shape {lam.shape} vs {w.shape}")
        diff = lam * diff
    return float((diff * diff).sum())


def true_data_loss(weights, approx, sm: SecondMoment) -> float:
    """Quadratic-form output error of the approximation under the accumulated
    second moment; equals the squared Frobenius error of the output difference
    on exactly the activations that built `sm`."""
    w = np.asarray(weights, dtype=np.float64)
    a = np.asarray(approx, dtype=np.float64)
    if w.shape != a.shape:
        raise ShapeError(f"shape mismatch: {w.shape} vs {a.shape}")
    if w.shape[1] != sm.dim:
        raise ShapeError(f"weights have {w.shape[1]} columns, second moment is {sm.dim}")
    diff = w - a
    return float(((diff @ sm.gram) * diff).sum())


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
