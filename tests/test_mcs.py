"""Masked calibration simulation: schedule, prefix, masking, stratification."""

import numpy as np
import pytest

from maskquant.mcs import (
    McsConfig,
    sample_mask,
    simulate,
    visibility_schedule,
)
from maskquant.rng import Rng


def test_schedule_endpoints_and_midpoint():
    assert visibility_schedule(8, 8) == 0.0
    assert visibility_schedule(4, 8) == 0.5
    assert visibility_schedule(1, 8) == pytest.approx(0.875)


def test_schedule_monotone_and_range_checked():
    values = [visibility_schedule(t, 16) for t in range(1, 17)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        visibility_schedule(0, 8)
    with pytest.raises(ValueError):
        visibility_schedule(9, 8)


def _tokens(length, seed=0, vocab=64):
    return Rng(seed, 9).integers(0, vocab - 1, length).astype(np.uint32)


def _prefix_set(length, prefix_ratio):
    # at t = timesteps alpha is 0, so only the deterministic prefix stays visible
    cfg = McsConfig(prefix_ratio=prefix_ratio, mask_id=63)
    seq = sample_mask(_tokens(length), cfg.timesteps, cfg, Rng(0, 0))
    return frozenset(np.flatnonzero(seq.visible).tolist())


def test_prefix_sets():
    assert _prefix_set(8, 0.25) == frozenset({0, 1})
    assert _prefix_set(8, 0.0) == frozenset()
    assert _prefix_set(5, 0.5) == frozenset({0, 1})  # floor of 2.5
    assert _prefix_set(100, 0.29) == frozenset(range(29))  # 0.29 * 100 is 28.999... in floats


def test_full_prefix_keeps_everything_at_alpha_zero():
    cfg = McsConfig(timesteps=4, prefix_ratio=1.0, mask_id=63)
    tokens = _tokens(32)
    seq = sample_mask(tokens, cfg.timesteps, cfg, Rng(0, 0))
    assert seq.alpha == 0.0
    assert seq.visible.all()
    assert np.array_equal(seq.ids, tokens)


def test_alpha_zero_no_prefix_masks_everything():
    cfg = McsConfig(timesteps=4, prefix_ratio=0.0, mask_id=63)
    tokens = _tokens(32)
    seq = sample_mask(tokens, 4, cfg, Rng(0, 0))
    assert not seq.visible.any()
    assert (seq.ids == 63).all()


def test_mask_consistency_invariant():
    cfg = McsConfig(timesteps=8, prefix_ratio=0.25, mask_id=63)
    tokens = _tokens(64, seed=3)
    for t in range(1, 9):
        seq = sample_mask(tokens, t, cfg, Rng(1, t))
        assert np.array_equal(seq.ids[seq.visible], tokens[seq.visible])
        assert (seq.ids[~seq.visible] == 63).all()
        assert seq.visible[:16].all()  # prefix of 0.25 * 64


def test_visible_count_matches_expectation():
    cfg = McsConfig(timesteps=2, prefix_ratio=0.25, mask_id=63)
    tokens = _tokens(64, seed=5)
    counts = [
        sample_mask(tokens, 1, cfg, Rng(0, i)).visible.sum()
        for i in range(10_000)
    ]
    # 16 prefix positions plus Binomial(48, 0.5): alpha at t=1 of 2 is 0.5
    assert abs(np.mean(counts) - 40.0) <= 0.7


def test_source_containing_mask_id_rejected():
    cfg = McsConfig(mask_id=63)
    bad = np.array([1, 63, 2], dtype=np.uint32)
    with pytest.raises(ValueError):
        sample_mask(bad, 1, cfg, Rng(0, 0))


def test_simulate_counts_and_stratification():
    cfg = McsConfig(timesteps=8, seed=11, mask_id=63)
    sequences = np.stack([_tokens(64, seed=s) for s in range(128)])
    out = simulate(sequences, cfg)
    assert len(out) == 128 * 8
    for t in range(1, 9):
        assert sum(1 for m in out if m.t_index == t) == 128


def test_simulate_single_step_grid():
    cfg = McsConfig(timesteps=1, prefix_ratio=0.25, mask_id=63)
    out = simulate(_tokens(16)[None, :], cfg)
    assert len(out) == 1
    assert out[0].alpha == 0.0
    assert out[0].visible[:4].all() and not out[0].visible[4:].any()


def test_simulate_deterministic():
    cfg = McsConfig(timesteps=4, seed=2, mask_id=63)
    sequences = np.stack([_tokens(32, seed=s) for s in range(4)])
    a = simulate(sequences, cfg)
    b = simulate(sequences, cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.visible, y.visible)
