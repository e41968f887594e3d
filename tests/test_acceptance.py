"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a summary line; the conftest hook additionally emits a
PASS/FAIL line per criterion at the end of the run.
"""

import itertools
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from maskquant.abmp import allocate
from maskquant.container import read_tensor, write_tensor
from maskquant.daq import (
    DaqConfig,
    center_rows,
    daq_fit,
    update_alpha_c,
    update_alpha_r,
    update_signs,
)
from maskquant.mcs import McsConfig, simulate, visibility_schedule
from maskquant.pipeline import PipelineConfig, ablation_grid, cmd_calib, cmd_eval, cmd_quantize
from maskquant.qformat import (
    build_layer,
    dequantize,
    gigabytes,
    llada8b_like_layers,
    memory_estimate,
    rc_matvec,
    read_qpk,
    write_qpk,
)
from maskquant.rng import Rng
from maskquant.stats import SecondMoment, proxy_loss, true_data_loss


# --- shared suite of random matrices -------------------------------------------

_SIZES = [32, 48, 64, 96, 128, 160, 224, 256]


def _suite_matrix(index: int) -> np.ndarray:
    """Deterministic mix of gaussian and heavy-tailed (cubed gaussian) matrices."""
    size = _SIZES[index % len(_SIZES)]
    draws = np.asarray(Rng(1000 + index, 0).gaussian((size, size)))
    if index % 2 == 1:
        draws = draws**3  # heavy tails
    return draws


def _suite_weights(index: int, shape) -> np.ndarray | None:
    """Every third matrix gets a sparse saliency mask with weight 2."""
    if index % 3:
        return None
    lam = np.ones(shape)
    lam[np.asarray(Rng(2000 + index, 0).uniform(shape)) < 0.01] = 2.0
    return lam


def test_c01_monotone_descent_suite():
    started = time.monotonic()
    checked = 0
    for index in range(50):
        _, w = center_rows(_suite_matrix(index))
        lam = _suite_weights(index, w.shape)
        order = index % 3 + 1
        fit = daq_fit(w, lam, DaqConfig(order=order))
        history = fit.loss_history
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev * (1 + 1e-9), (index, history)
        checked += len(history) - 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 1: {checked} sweeps monotone over 50 matrices in {elapsed:.1f}s")


def test_c02_closed_form_optimality():
    started = time.monotonic()
    rng_index = 0
    for case in range(20):
        rng = Rng(3000 + case, 0)
        rows, cols = 12 + case % 5, 16 + case % 7
        x = np.asarray(rng.gaussian((rows, cols)))
        signs = np.where(np.asarray(rng.uniform((rows, cols))) < 0.5, 1.0, -1.0)
        lam = np.ones((rows, cols))
        lam[np.asarray(rng.uniform((rows, cols))) < 0.02] = 2.0

        alpha_c = np.asarray(rng.uniform(cols)) + 0.5
        alpha_r = update_alpha_r(x, signs, alpha_c, lam)

        def row_objective(ar):
            return proxy_loss(x, np.outer(ar, alpha_c) * signs, lam)

        base = row_objective(alpha_r)
        for i in range(rows):
            for delta in (-1e-3, 1e-3):
                probe = alpha_r.copy()
                probe[i] *= 1 + delta
                assert row_objective(probe) >= base * (1 - 1e-12)
                rng_index += 1

        alpha_c2 = update_alpha_c(x, signs, alpha_r, lam)

        def col_objective(ac):
            return proxy_loss(x, np.outer(alpha_r, ac) * signs, lam)

        base_c = col_objective(alpha_c2)
        for j in range(cols):
            for delta in (-1e-3, 1e-3):
                probe = alpha_c2.copy()
                probe[j] *= 1 + delta
                assert col_objective(probe) >= base_c * (1 - 1e-12)
                rng_index += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"criterion 2: {rng_index} perturbation probes, none improved, {elapsed:.1f}s")


def _bruteforce_signs(target, scale_pairs):
    order = len(scale_pairs)
    planes = [np.outer(ar, ac) for ar, ac in scale_pairs]
    out = [np.empty_like(target) for _ in range(order)]
    cands = list(itertools.product((1.0, -1.0), repeat=order))
    for i in range(target.shape[0]):
        for j in range(target.shape[1]):
            best = min(
                range(len(cands)),
                key=lambda c: (
                    abs(target[i, j] - sum(cands[c][k] * planes[k][i, j] for k in range(order))),
                    cands[c].count(-1.0),
                    c,
                ),
            )
            for k in range(order):
                out[k][i, j] = cands[best][k]
    return out


def test_c03_sign_search_oracle():
    mismatches = 0
    for case in range(20):
        order = case % 3 + 1
        rng = Rng(4000 + case, 0)
        target = np.asarray(rng.gaussian((16, 16)))
        pairs = [
            (
                np.asarray(rng.gaussian(16)) * 0.4 + 0.9,
                np.asarray(rng.gaussian(16)) * 0.3 + 1.1,
            )
            for _ in range(order)
        ]
        ours = update_signs(target, pairs)
        oracle = _bruteforce_signs(target, pairs)
        for a, b in zip(ours, oracle):
            mismatches += int((a != b).sum())
    assert mismatches == 0
    print("criterion 3: 20 exhaustive 16x16 sign searches, 0 mismatches")


def test_c04_order_dominance_and_exact_instances():
    for index in range(50):
        _, w = center_rows(_suite_matrix(index))
        losses = [daq_fit(w, cfg=DaqConfig(order=k)).loss_history[-1] for k in (1, 2, 3)]
        assert losses[0] >= losses[1] * (1 - 1e-9)
        assert losses[1] >= losses[2] * (1 - 1e-9)
    exact_losses = []
    for case in range(5):
        rng = Rng(5000 + case, 0)
        a1 = np.asarray(rng.uniform(64)) + 2.0
        c1 = np.asarray(rng.uniform(64)) * 0.4 + 0.8
        a2 = np.asarray(rng.uniform(64)) * 0.2 + 0.3
        c2 = np.asarray(rng.uniform(64)) * 0.4 + 0.8
        b1 = np.where(np.asarray(rng.uniform((64, 64))) < 0.5, 1.0, -1.0)
        b2 = np.where(np.asarray(rng.uniform((64, 64))) < 0.5, 1.0, -1.0)
        w = np.outer(a1, c1) * b1 + np.outer(a2, c2) * b2
        fit = daq_fit(w, cfg=DaqConfig(order=2, sweeps=50, tol=0.0))
        loss = proxy_loss(w, fit.reconstruct())
        exact_losses.append(loss)
        assert loss < 1e-9
    print(f"criterion 4: dominance on 50 matrices; exact-instance losses {max(exact_losses):.2e}")


def test_c05_quadratic_form_identity():
    worst = 0.0
    for case in range(10):
        rng = Rng(6000 + case, 0)
        m = 4 + case % 13  # m <= 16
        x = np.asarray(rng.gaussian((m, 3 * m)), dtype=np.float32)
        sm = SecondMoment(m)
        sm.accumulate(x)
        w = np.asarray(rng.gaussian((m + 2, m)))
        what = np.asarray(rng.gaussian((m + 2, m)))
        quad = true_data_loss(w, what, sm)
        direct = float(np.linalg.norm((w - what) @ x.astype(np.float64)) ** 2)
        rel = abs(quad - direct) / direct
        worst = max(worst, rel)
        assert rel <= 1e-8
    print(f"criterion 5: worst relative deviation {worst:.2e}")


def test_c06_masking_statistics():
    timesteps, length, samples = 8, 64, 10_000
    cfg = McsConfig(timesteps=timesteps, prefix_ratio=0.25, mask_id=63, seed=77)
    tokens = Rng(77, 1).integers(0, 63, (samples, length)).astype(np.uint32)
    masked = simulate(tokens, cfg)
    assert len(masked) == samples * timesteps
    prefix = int(0.25 * length)
    per_t = {t: [] for t in range(1, timesteps + 1)}
    for seq in masked:
        assert seq.visible[:prefix].all()
        per_t[seq.t_index].append(seq.visible[prefix:].mean())
    non_prefix = length - prefix
    for t in range(1, timesteps + 1):
        assert len(per_t[t]) == samples  # exact stratification
        alpha = visibility_schedule(t, timesteps)
        observed = float(np.mean(per_t[t]))
        stderr = np.sqrt(alpha * (1 - alpha) / (samples * non_prefix))
        assert abs(observed - alpha) <= 3 * stderr + 1e-12, (t, observed, alpha)
    print(f"criterion 6: visibility within 3 standard errors for all {timesteps} timesteps")


def test_c07_allocation_budget():
    for n_groups in (10, 20, 40, 100):
        for ratio in (0.0, 0.05, 0.10, 0.15):
            scores = np.asarray(Rng(n_groups, int(ratio * 100)).uniform(n_groups))
            alloc = allocate(scores, ratio)
            k = int(ratio * n_groups)
            hist = alloc.histogram()
            assert sum(alloc.orders) == 2 * n_groups
            assert hist[3] == hist[1] == k == alloc.reallocated
    print("criterion 7: exact 2-bit budget for all group counts and ratios")


def test_c08_format_roundtrips_and_matvec(tmp_path):
    # container round trips over mixed dtypes and shapes
    for case in range(100):
        rng = Rng(7000 + case, 0)
        shape = (1 + case % 7, 1 + (case * 3) % 11)
        kind = case % 3
        if kind == 0:
            arr = np.asarray(rng.gaussian(shape), dtype=np.float32)
        elif kind == 1:
            arr = np.asarray(rng.gaussian(shape), dtype=np.float64)
        else:
            arr = rng.integers(0, 1 << 20, shape).astype(np.uint32)
        path = tmp_path / f"t{case}.qdt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == arr.dtype and np.array_equal(back, arr)

    # packed-layer round trips plus the matvec oracle
    worst = 0.0
    for case in range(100):
        rng = Rng(8000 + case, 0)
        rows = 9 + case % 24
        cols = 7 + case % 40
        width = (case % 3 + 1) * 8
        order = case % 3 + 1
        w = np.asarray(rng.gaussian((rows, cols)), dtype=np.float32)
        mu = w.mean(axis=1) if case % 2 else None
        target = w - mu[:, None] if mu is not None else w
        groups = [
            daq_fit(
                target[:, start : min(start + width, cols)],
                cfg=DaqConfig(order=order, sweeps=2),
            )
            for start in range(0, cols, width)
        ]
        layer = build_layer(f"layer{case}", groups, width, cols, mu)
        path = tmp_path / f"m{case}.qpk"
        write_qpk(path, [layer])
        (loaded,) = read_qpk(path)
        assert np.array_equal(dequantize(loaded), dequantize(layer))
        for g1, g2 in zip(layer.groups, loaded.groups):
            assert np.array_equal(g1.planes, g2.planes)
            assert np.array_equal(g1.alpha_r, g2.alpha_r)
            assert np.array_equal(g1.alpha_c, g2.alpha_c)

        x = np.asarray(rng.gaussian(cols))
        dense = dequantize(loaded).astype(np.float64) @ x
        fast = rc_matvec(loaded, x)
        denom = max(float(np.linalg.norm(dense)), 1e-30)
        rel = float(np.linalg.norm(fast - dense)) / denom
        worst = max(worst, rel)
        assert rel <= 1e-5
    print(f"criterion 8: 200 round trips exact; worst matvec deviation {worst:.2e}")


def test_c09_memory_anchors():
    fp16 = gigabytes(memory_estimate([], fp16_params=8_045_000_000))
    assert fp16 == pytest.approx(16.09, rel=0.005)
    layers, fp16_params = llada8b_like_layers()
    low_bit = gigabytes(memory_estimate(layers, fp16_params))
    assert 3.1 <= low_bit <= 4.3
    print(f"criterion 9: fp16 anchor {fp16:.4f} GB; 2-bit anchor {low_bit:.3f} GB")


def test_c10_pipeline_determinism_and_ablation(tmp_path):
    started = time.monotonic()
    # layers wide enough that width-8 groups are numerous (>= 20 where ABMP
    # reallocates) and no fit is exact, so every arm has material error
    cfg = PipelineConfig(
        d_model=128,
        d_hidden=384,
        seq_len=64,
        calib_sequences=32,
        eval_sequences=8,
        group_width=8,
        out_dir=str(tmp_path / "det"),
    )

    def run_once():
        cmd_calib(cfg)
        cmd_quantize(cfg)
        cmd_eval(cfg)
        return cfg.qpk_path.read_bytes(), cfg.report_path.read_bytes()

    first = run_once()
    shutil.rmtree(cfg.out_dir)
    second = run_once()
    assert first[0] == second[0], "packed bytes differ between identical runs"
    assert first[1] == second[1], "report bytes differ between identical runs"

    grid_cfg = PipelineConfig(
        d_model=128,
        d_hidden=384,
        seq_len=64,
        calib_sequences=32,
        eval_sequences=8,
        group_width=8,
        out_dir=str(tmp_path / "grid"),
    )
    grid = ablation_grid(grid_cfg)
    for arm, result in grid["arms"].items():
        div = result["divergence"]
        assert div["logit_mse"] >= 0.0 and div["softmax_kl"] >= 0.0
        report = json.loads(Path(result["report_path"]).read_text())
        assert report["eval"]["softmax_kl"] == div["softmax_kl"]
    # ablation coherence: the uniform arm reallocates nothing
    no_abmp = json.loads(
        Path(grid["arms"]["no_abmp"]["report_path"]).read_text()
    )
    for row in no_abmp["layers"].values():
        assert row["allocation"]["1"] == 0 and row["allocation"]["3"] == 0
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    flag = "held" if grid["direction_ok"] else "violated (recorded, desk-scale ordering not guaranteed)"
    print(
        f"criterion 10: byte-identical reruns; {len(grid['arms'])} arms in "
        f"{elapsed:.0f}s; direction check {flag}"
    )


def test_c11_beats_round_to_nearest_baseline():
    def rtn_2bit(w, group=128):
        # symmetric four-level grid per row and 128-column group: scale is
        # absmax/1.5, levels {+-0.5, +-1.5} * scale
        out = np.empty_like(w)
        for start in range(0, w.shape[1], group):
            sub = w[:, start : start + group]
            scale = np.abs(sub).max(axis=1, keepdims=True) / 1.5
            scale[scale == 0] = 1.0
            levels = np.clip(np.round(sub / scale + 1.5), 0, 3) - 1.5
            out[:, start : start + group] = levels * scale
        return out

    wins = 0
    ours, baseline = [], []
    for case in range(20):
        w = np.asarray(Rng(9000 + case, 0).gaussian((256, 256)))
        mu, x = center_rows(w)
        recon = daq_fit(x, cfg=DaqConfig(order=2)).reconstruct() + mu.astype(np.float32)[:, None]
        norm = float(np.linalg.norm(w))
        ours.append(float(np.linalg.norm(w - recon)) / norm)
        baseline.append(float(np.linalg.norm(w - rtn_2bit(w))) / norm)
        wins += ours[-1] < baseline[-1]
    assert np.mean(ours) < np.mean(baseline)
    print(
        f"criterion 11: relative error {np.mean(ours):.4f} vs baseline "
        f"{np.mean(baseline):.4f}; per-matrix wins {wins}/20"
    )
