"""Masked calibration simulation.

Turns fully visible token sequences into timestep-stratified, partially
masked copies whose visibility statistics match a masked denoiser's
inference schedule: a deterministic visible prefix, then independent
per-position visibility with probability alpha(t). Each (sequence,
timestep) pair draws from its own random stream, so generation order and
parallelism never change the output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abmp import floor_fraction
from .rng import Rng

# Stream-id namespace for mask draws; keeps them off other subsystems' streams.
MCS_STREAM_BASE = 2 << 32


@dataclass(frozen=True)
class McsConfig:
    timesteps: int = 8          # size of the timestep grid
    prefix_ratio: float = 0.25  # fraction of positions always visible
    mask_id: int = 63
    seed: int = 0

    def __post_init__(self):
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if not 0.0 <= self.prefix_ratio <= 1.0:
            raise ValueError("prefix_ratio must be in [0, 1]")
        if self.mask_id < 0:
            raise ValueError("mask_id must be non-negative")


@dataclass
class MaskedSequence:
    """One masked copy of a source sequence at one timestep."""

    ids: np.ndarray       # (L,) uint32; masked positions hold mask_id
    visible: np.ndarray   # (L,) bool
    t_index: int          # timestep in [1, T]
    alpha: float          # visibility ratio used for non-prefix positions


def visibility_schedule(t_index: int, timesteps: int) -> float:
    """Visibility ratio on the uniform grid: 1 - t/T, so t=T is fully masked."""
    if not 1 <= t_index <= timesteps:
        raise ValueError(f"t_index {t_index} outside [1, {timesteps}]")
    return 1.0 - t_index / timesteps


def sample_mask(
    tokens: np.ndarray,
    t_index: int,
    cfg: McsConfig,
    rng: Rng,
    alpha: float | None = None,
) -> MaskedSequence:
    """Mask one sequence at one timestep.

    The first floor(prefix_ratio * length) positions stay visible; every
    other position is kept with probability alpha (defaults to the schedule
    value at t_index) and replaced by cfg.mask_id otherwise. `alpha` may be
    overridden for schedule-free use.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("tokens must be a nonempty 1-D array")
    if (tokens == cfg.mask_id).any():
        raise ValueError("source sequence already contains the mask token")
    if alpha is None:
        alpha = visibility_schedule(t_index, cfg.timesteps)
    length = tokens.size
    prefix_len = floor_fraction(cfg.prefix_ratio, length)
    visible = rng.uniform(length) < alpha
    visible[:prefix_len] = True
    ids = np.where(visible, tokens, cfg.mask_id).astype(np.uint32)
    return MaskedSequence(ids=ids, visible=visible, t_index=t_index, alpha=float(alpha))


def unmasked(tokens: np.ndarray) -> MaskedSequence:
    """Fully visible copy, for calibration arms that skip masking."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("tokens must be a nonempty 1-D array")
    return MaskedSequence(
        ids=tokens.astype(np.uint32),
        visible=np.ones(tokens.size, dtype=bool),
        t_index=1,
        alpha=1.0,
    )


def simulate(sequences, cfg: McsConfig) -> list[MaskedSequence]:
    """Build the calibration set: one masked copy per (sequence, timestep).

    `sequences` is a 2-D token array or a list of 1-D arrays. The output has
    len(sequences) * cfg.timesteps entries, ordered by sequence then
    timestep, and is a pure function of (sequences, cfg).
    """
    seqs = list(np.asarray(sequences))
    if not seqs:
        raise ValueError("no input sequences")
    out: list[MaskedSequence] = []
    for i, tokens in enumerate(seqs):
        for t in range(1, cfg.timesteps + 1):
            rng = Rng(cfg.seed, MCS_STREAM_BASE + i * cfg.timesteps + (t - 1))
            out.append(sample_mask(tokens, t, cfg, rng))
    return out

