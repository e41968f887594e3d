"""Quantizer oracles: init values, closed-form updates, sign search, fits."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskquant import daq
from maskquant.daq import (
    DaqConfig,
    center_rows,
    daq_fit,
    update_alpha_c,
    update_alpha_r,
    update_signs,
)
from maskquant.errors import ShapeError
from maskquant.stats import proxy_loss
from maskquant.rng import Rng


def _gauss(shape, seed, stream=0):
    return np.asarray(Rng(seed, stream).gaussian(shape))


# --- initialization ----------------------------------------------------------


def test_center_rows_returns_the_means_and_the_residual():
    mu, x = center_rows(np.array([[1.0, -1.0], [2.0, 2.0], [1.0, -2.0]]))
    assert mu.tolist() == [0.0, 2.0, -0.5]
    assert x.tolist() == [[1.0, -1.0], [0.0, 0.0], [1.5, -1.5]]


def _greedy_term(x):
    # the greedy starting point of a single term: an order-1 fit with no sweeps
    return daq_fit(x, cfg=DaqConfig(order=1, sweeps=0)).orders[0]


def test_rc_init_frozen_example():
    # hand evaluation: row means of |X| are (1.5, 3.5); column scales are the
    # row-normalized column means ((1/1.5 + 3/3.5)/2, (2/1.5 + 4/3.5)/2)
    fit = _greedy_term(np.array([[1.0, -2.0], [3.0, 4.0]]))
    assert np.allclose(fit.alpha_r, [1.5, 3.5])
    assert np.allclose(fit.alpha_c, [0.761905, 1.238095], atol=1e-5)
    assert fit.signs.tolist() == [[1, -1], [1, 1]]


def test_rc_init_constant_matrix_exact():
    fit = _greedy_term(np.full((3, 4), 2.5))
    assert np.allclose(fit.alpha_r, 2.5)
    assert np.allclose(fit.alpha_c, 1.0)
    assert np.allclose(fit.reconstruct(), 2.5)


def test_rc_init_sign_symmetry():
    x = _gauss((6, 7), seed=1)
    a, b = _greedy_term(x), _greedy_term(-x)
    assert np.array_equal(a.alpha_r, b.alpha_r)
    assert np.array_equal(a.alpha_c, b.alpha_c)
    assert np.array_equal(a.signs, -b.signs)


def test_rc_init_zero_row_guarded():
    x = np.array([[0.0, 0.0], [2.0, 4.0]])
    fit = _greedy_term(x)
    assert fit.alpha_r[0] == 0.0
    # zero row contributes 0 to the column means, denominator stays n
    assert np.allclose(fit.alpha_c, [2.0 / 3.0 / 2.0, 4.0 / 3.0 / 2.0])


# --- closed-form scale updates -------------------------------------------------


def test_update_alpha_r_frozen_example():
    x = np.array([[1.0, -2.0], [3.0, 4.0]])
    signs = np.array([[1.0, -1.0], [1.0, 1.0]])
    alpha_c = np.array([0.761905, 1.238095])
    alpha_r = update_alpha_r(x, signs, alpha_c)
    assert np.allclose(alpha_r, [1.532133, 3.424867], atol=1e-4)


def _lstsq_row_oracle(x, signs, alpha_c, lam):
    # per-row weighted least squares without the epsilon stabilizer
    out = np.zeros(x.shape[0])
    for i in range(x.shape[0]):
        design = (lam[i] * alpha_c * signs[i])[:, None]
        target = lam[i] * x[i]
        out[i] = np.linalg.lstsq(design, target, rcond=None)[0][0]
    return out


def test_update_alpha_r_matches_lstsq_oracle():
    rng = Rng(2, 0)
    x = np.asarray(rng.gaussian((8, 12)))
    signs = np.where(np.asarray(rng.uniform((8, 12))) < 0.5, 1.0, -1.0)
    alpha_c = np.asarray(rng.uniform(12)) + 0.5
    lam = np.ones((8, 12))
    lam[np.asarray(rng.uniform((8, 12))) < 0.1] = 2.0
    ours = update_alpha_r(x, signs, alpha_c, lam)
    oracle = _lstsq_row_oracle(x, signs, alpha_c, lam)
    assert np.allclose(ours, oracle, rtol=1e-6)
    # column update by symmetry (transpose everything)
    ours_c = update_alpha_c(x, signs, np.asarray(rng.uniform(8)) + 0.5, lam)
    alpha_r = np.asarray(rng.uniform(8)) + 0.5
    oracle_c = _lstsq_row_oracle(x.T, signs.T, alpha_r, lam.T)
    assert np.allclose(update_alpha_c(x, signs, alpha_r, lam), oracle_c, rtol=1e-6)
    assert ours_c.shape == (12,)


def test_update_reduces_to_classic_scale_when_aligned():
    x = np.abs(_gauss((5, 40), seed=3)) + 0.1
    signs = np.ones((5, 40))
    alpha_r = update_alpha_r(x, signs, np.ones(40))
    assert np.allclose(alpha_r, np.abs(x).mean(axis=1), rtol=1e-6)


def test_update_weighting_pulls_toward_flagged_column():
    x = np.asarray(Rng(4, 0).gaussian((6, 10)))
    signs = np.where(x >= 0, 1.0, -1.0)
    alpha_c = np.ones(10)
    lam = np.ones((6, 10))
    lam[:, 3] = 4.0

    def objective(alpha_r, lam_):
        recon = np.outer(alpha_r, alpha_c) * signs
        return proxy_loss(x, recon, lam_)

    plain = update_alpha_r(x, signs, alpha_c)
    weighted = update_alpha_r(x, signs, alpha_c, lam)
    # each row's weighted objective is a 1-D quadratic; the update must beat
    # the unweighted solution and every nearby probe
    assert objective(weighted, lam) <= objective(plain, lam)
    for delta in (-1e-3, 1e-3):
        probe = weighted * (1 + delta)
        assert objective(probe, lam) >= objective(weighted, lam) * (1 - 1e-12)


# --- sign search ----------------------------------------------------------------


def test_update_signs_frozen_examples():
    # order 2: scales (0.5, 0.25), target 0.6 -> (+1, +1), residual -0.15
    signs = update_signs(np.array([[0.6]]), [(np.array([0.5]), np.array([1.0])), (np.array([0.25]), np.array([1.0]))])
    assert signs[0][0, 0] == 1.0 and signs[1][0, 0] == 1.0
    # order 3: scales (0.4, 0.2, 0.1), target 0.3 -> (+1, -1, +1) exactly
    signs = update_signs(
        np.array([[0.3]]),
        [(np.array([s]), np.array([1.0])) for s in (0.4, 0.2, 0.1)],
    )
    assert [s[0, 0] for s in signs] == [1.0, -1.0, 1.0]


def test_update_signs_order1_is_sign():
    x = _gauss((6, 6), seed=5)
    signs = update_signs(x, [(np.full(6, 0.7), np.full(6, 1.3))])
    assert np.array_equal(signs[0], np.where(x >= 0, 1.0, -1.0))


def test_update_signs_tiebreak_prefers_plus_ones():
    # zero scale for the second term: all four candidates tie pairwise;
    # the winner must carry the most +1 entries
    signs = update_signs(
        np.array([[0.5]]),
        [(np.array([0.5]), np.array([1.0])), (np.array([0.0]), np.array([1.0]))],
    )
    assert signs[0][0, 0] == 1.0 and signs[1][0, 0] == 1.0


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


@pytest.mark.parametrize("order", [1, 2, 3])
def test_update_signs_matches_bruteforce(order):
    rng = Rng(6, order)
    target = np.asarray(rng.gaussian((10, 10)))
    pairs = [
        (np.asarray(rng.gaussian(10)) * 0.5 + 0.8, np.asarray(rng.gaussian(10)) * 0.3 + 1.0)
        for _ in range(order)
    ]
    ours = update_signs(target, pairs)
    oracle = _bruteforce_signs(target, pairs)
    for a, b in zip(ours, oracle):
        assert np.array_equal(a, b)


# --- alternating fits -------------------------------------------------------------


def _refined_term(x):
    # single-term alternating fit of x itself
    return daq_fit(x, cfg=DaqConfig(order=1)).orders[0]


def test_rsr_constant_matrix_exact():
    x = np.full((4, 6), 3.0)
    fit = _refined_term(x)
    assert proxy_loss(x, fit.reconstruct()) == pytest.approx(0.0, abs=1e-12)


def test_rsr_rank1_magnitude_exact():
    rng = Rng(7, 0)
    u = np.asarray(rng.uniform(64)) + 0.5
    v = np.asarray(rng.uniform(64)) + 0.5
    s = np.where(np.asarray(rng.uniform((64, 64))) < 0.5, 1.0, -1.0)
    x = np.outer(u, v) * s
    fit = _refined_term(x)
    assert proxy_loss(x, fit.reconstruct()) < 1e-10


def test_rsr_beats_classic_on_gaussian():
    x = _gauss((64, 64), seed=8)
    fit = _refined_term(x)
    classic = proxy_loss(x, np.abs(x).mean(axis=1)[:, None] * np.where(x >= 0, 1.0, -1.0))
    assert proxy_loss(x, fit.reconstruct()) <= classic


def test_daq_exactly_representable_two_terms():
    rng = Rng(10, 0)
    a1 = np.asarray(rng.uniform(64)) + 2.0
    c1 = np.asarray(rng.uniform(64)) * 0.4 + 0.8
    a2 = np.asarray(rng.uniform(64)) * 0.2 + 0.3
    c2 = np.asarray(rng.uniform(64)) * 0.4 + 0.8
    b1 = np.where(np.asarray(rng.uniform((64, 64))) < 0.5, 1.0, -1.0)
    b2 = np.where(np.asarray(rng.uniform((64, 64))) < 0.5, 1.0, -1.0)
    w = np.outer(a1, c1) * b1 + np.outer(a2, c2) * b2
    fit = daq_fit(w, cfg=DaqConfig(order=2, sweeps=50, tol=0.0))
    assert proxy_loss(w, fit.reconstruct()) < 1e-9


def test_daq_order_dominance():
    w = _gauss((128, 128), seed=11)
    losses = [
        daq_fit(w, cfg=DaqConfig(order=k)).loss_history[-1] for k in (1, 2, 3)
    ]
    assert losses[0] >= losses[1] >= losses[2]


def test_daq_history_monotone_with_weights():
    rng = Rng(12, 0)
    _, w = center_rows(rng.gaussian((48, 40)))
    lam = np.ones((48, 40))
    lam[np.asarray(rng.uniform((48, 40))) < 0.02] = 2.0
    group = daq_fit(w, lam, DaqConfig(order=2, sweeps=12))
    history = group.loss_history
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert group.loss_history[-1] == pytest.approx(
        proxy_loss(w, group.reconstruct(), lam),
        rel=1e-5,  # float32 scale cast on the returned object
    )


def _centered_fit(w, cfg):
    # the fit of w's centered rows with the means added back, as a layer stores them
    mu, x = center_rows(w)
    return daq_fit(x, cfg=cfg).reconstruct() + mu.astype(np.float32)[:, None]


def test_daq_scale_equivariance():
    w = _gauss((20, 24), seed=14)
    tiny = DaqConfig(order=2, epsilon=1e-30)  # epsilon below rounding: exact scaling
    base = _centered_fit(w, tiny)
    doubled = _centered_fit(2.0 * w, tiny)
    assert np.array_equal(doubled, 2.0 * base)
    default_cfg = DaqConfig(order=2)
    approx = _centered_fit(2.0 * w, default_cfg)
    assert np.allclose(approx, 2.0 * _centered_fit(w, default_cfg), rtol=1e-6)


def test_daq_sign_symmetry():
    w = _gauss((20, 24), seed=15)
    cfg = DaqConfig(order=2)
    pos = daq_fit(w, cfg=cfg).reconstruct()
    neg = daq_fit(-w, cfg=cfg).reconstruct()
    assert np.array_equal(neg, -pos)


def test_daq_zero_sweeps_is_greedy_init():
    w = _gauss((16, 16), seed=16)
    group = daq_fit(w, cfg=DaqConfig(order=2, sweeps=0))
    assert len(group.loss_history) == 1


def test_weighted_fit_lowers_true_output_error_on_structured_inputs():
    # when a few input dimensions carry most of the activation energy, the
    # saliency-weighted fit must beat the unweighted one on the quadratic
    # output-error form built from those activations
    from maskquant.stats import (
        SecondMoment,
        build_importance_mask,
        damped_inverse_diag,
        importance_matrix,
        true_data_loss,
    )

    for trial in range(3):
        rng = Rng(42 + trial, 0)
        rows, cols = 48, 64
        col_std = np.ones(cols)
        col_std[:4] = 10.0
        acts = (np.asarray(rng.gaussian((cols, 2048))) * col_std[:, None]).astype(np.float32)
        w = np.asarray(rng.gaussian((rows, cols)), dtype=np.float32)
        sm = SecondMoment(cols)
        sm.accumulate(acts)
        z = importance_matrix(w, damped_inverse_diag(sm))
        mask = build_importance_mask(z)
        assert mask.any()
        cfg = DaqConfig(order=2)
        plain = true_data_loss(w, daq_fit(w, None, cfg).reconstruct(), sm)
        weighted = true_data_loss(w, daq_fit(w, np.where(mask, 2.0, 1.0), cfg).reconstruct(), sm)
        assert weighted < plain


def test_daq_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DaqConfig(order=4)
    with pytest.raises(ValueError):
        daq_fit(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        daq_fit(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        daq_fit(np.ones((2, 2)), lam=np.ones((3, 3)))
    for bad in (np.nan, np.inf):
        lam = np.ones((2, 2))
        lam[1, 0] = bad
        with pytest.raises(ValueError, match="weight mask contains non-finite"):
            daq_fit(np.ones((2, 2)), lam=lam)
    # each matrix of a later stack is checked as it is loaded
    blocks, _ = _five_groups()
    with mock.patch.object(daq, "_MAX_STACK_WEIGHTS", 2 * 6 * 8):  # stacks start at 0, 2 and 4
        bad = [w.copy() for w in blocks]
        bad[3][2, 3] = np.nan
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            daq._fit_groups(bad, None, DaqConfig())
        bad = blocks[:4] + [_gauss((6, 9), seed=3)]
        with pytest.raises(ShapeError, match=r"matrix has shape \(6, 9\), expected \(6, 8\) like the first"):
            daq._fit_groups(bad, None, DaqConfig())


def test_updates_refuse_scales_of_the_wrong_shape():
    x = np.zeros((4, 6))
    with pytest.raises(ShapeError, match=r"alpha_r of term 0 has shape \(1,\), expected \(4,\)"):
        update_signs(x, [(np.ones(1), np.ones(6))])
    with pytest.raises(ShapeError, match=r"alpha_c of term 1 has shape \(4,\), expected \(6,\)"):
        update_signs(x, [(np.ones(4), np.ones(6)), (np.ones(4), np.ones(4))])
    with pytest.raises(ShapeError, match=r"alpha_c has shape \(1,\), expected \(6,\)"):
        update_alpha_r(x, np.ones((4, 6)), np.ones(1))
    with pytest.raises(ShapeError, match=r"alpha_r has shape \(6,\), expected \(4,\)"):
        update_alpha_c(x, np.ones((4, 6)), np.ones(6))
    with pytest.raises(ShapeError, match=r"signs has shape \(6, 4\), expected \(4, 6\)"):
        update_alpha_r(x, np.ones((6, 4)), np.ones(6))
    with pytest.raises(ShapeError):
        update_signs(np.zeros(4), [(np.ones(4), np.ones(1))])


# --- stacked fits against a per-group reference -------------------------------
# A reference fit of one matrix at a time, kept frozen in this file: greedy
# init, recon(skip=k), the tensordot/argmin sign search and the rollback. The
# stacked fit must match it bit for bit, so the packed bytes never move.


def _oracle_rc_init(x):
    ax = np.abs(x)
    alpha_r = ax.mean(axis=1)
    ratios = np.divide(ax, alpha_r[:, None], out=np.zeros_like(ax), where=alpha_r[:, None] > 0)
    return alpha_r, ratios.mean(axis=0), np.where(x >= 0, 1.0, -1.0)


def _oracle_row_scales(x, b, c, lam, epsilon):
    if lam is None:
        num = (x * b) @ c
        den = np.full(x.shape[0], (c * c).sum())
    else:
        lam2 = lam * lam
        num = (lam2 * x * b) @ c
        den = lam2 @ (c * c)
    return num / (den + epsilon)


def _oracle_signs(target, scales):
    order = len(scales)
    planes = np.stack([np.outer(ar, ac) for ar, ac in scales])
    base = list(itertools.product((1.0, -1.0), repeat=order))
    ranked = sorted(range(len(base)), key=lambda i: (base[i].count(-1.0), i))
    cands = np.array([base[i] for i in ranked])
    approx = np.tensordot(cands, planes, axes=(1, 0))
    best = np.abs(target[None] - approx).argmin(axis=0)
    return [cands[best, k] for k in range(order)]


def _oracle_fit(w, lam, cfg):
    """(loss history, [(alpha_r, alpha_c)], [signs]) of one group."""
    target = np.asarray(w, dtype=np.float64)
    lam = None if lam is None else np.asarray(lam, dtype=np.float64)
    lam2 = None if lam is None else lam * lam

    def loss(diff):
        return float((diff * diff).sum() if lam2 is None else (lam2 * diff * diff).sum())

    scales, signs = [], []

    def recon(skip=None):
        total = np.zeros_like(target)
        for q, ((ar, ac), b) in enumerate(zip(scales, signs)):
            if q != skip:
                total += np.outer(ar, ac) * b
        return total

    for _ in range(cfg.order):
        ar, ac, b = _oracle_rc_init(target - recon())
        scales.append((ar, ac))
        signs.append(b)
    history = [loss(target - recon())]
    for _ in range(cfg.sweeps):
        saved = (list(scales), list(signs))
        for k in range(cfg.order):
            residual = target - recon(skip=k)
            ar = _oracle_row_scales(residual, signs[k], scales[k][1], lam, cfg.epsilon)
            lam_t = None if lam is None else lam.T
            ac = _oracle_row_scales(residual.T, signs[k].T, ar, lam_t, cfg.epsilon)
            scales[k] = (ar, ac)
        signs = _oracle_signs(target, scales)
        cur = loss(target - recon())
        prev = history[-1]
        if cur > prev:
            scales, signs = saved
            break
        history.append(cur)
        if prev <= 0.0 or (prev - cur) / prev < cfg.tol:
            break
    return history, scales, signs


def _five_groups(seed=3):
    """Five 6x8 groups and their weight masks."""
    blocks = [_gauss((6, 8), seed=seed + g) for g in range(5)]
    lams = [np.where(_gauss((6, 8), seed=seed + g, stream=1) > 1.0, 2.5, 1.0) for g in range(5)]
    return blocks, lams


def _fit_bytes(fits):
    return [
        (fit.loss_history, [(t.alpha_r.tobytes(), t.alpha_c.tobytes(), t.signs.tobytes())
                            for t in fit.orders])
        for fit in fits
    ]


def _assert_same_as_oracle(fit, w, lam, cfg):
    history, scales, signs = _oracle_fit(w, lam, cfg)
    assert fit.loss_history == history
    assert len(fit.orders) == cfg.order
    for term, (ar, ac), b in zip(fit.orders, scales, signs):
        assert term.alpha_r.tobytes() == ar.astype(np.float32).tobytes()
        assert term.alpha_c.tobytes() == ac.astype(np.float32).tobytes()
        assert term.signs.tobytes() == b.astype(np.int8).tobytes()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_fit_matches_per_group_oracle(data):
    size = data.draw(st.integers(1, 4), label="groups")
    rows = data.draw(st.integers(1, 12), label="rows")
    width = data.draw(st.sampled_from([1, 3, 8, 17, 128]), label="width")
    cfg = DaqConfig(
        order=data.draw(st.integers(1, 3), label="order"),
        sweeps=data.draw(st.integers(0, 11), label="sweeps"),
        tol=data.draw(st.sampled_from([0.0, 1e-6, 1e-2]), label="tol"),
    )
    rng = Rng(data.draw(st.integers(0, 2**16), label="seed"), 0)
    # groups are column slices of one matrix, as the pipeline passes them
    matrix = np.asarray(rng.gaussian((rows, size * width)))
    if data.draw(st.booleans(), label="halves"):
        matrix = np.round(2.0 * matrix) / 2.0  # ties in the sign search, early rollbacks
    zero = data.draw(st.integers(0, size - 1), label="zero group")
    matrix[:, zero * width : (zero + 1) * width] = 0.0
    weights = None
    if data.draw(st.booleans(), label="weighted"):
        weights = np.where(np.asarray(rng.uniform((rows, size * width))) < 0.1, 2.5, 1.0)
    if data.draw(st.booleans(), label="centered"):
        _, matrix = center_rows(matrix)  # as _quantize_layer passes a layer
    columns = [slice(g * width, (g + 1) * width) for g in range(size)]
    blocks = [matrix[:, cols] for cols in columns]
    lams = None if weights is None else [weights[:, cols] for cols in columns]
    cap = data.draw(st.sampled_from([1, 2 * rows * width, daq._MAX_STACK_WEIGHTS]), label="cap")
    with mock.patch.object(daq, "_MAX_STACK_WEIGHTS", cap):
        fits = daq._fit_groups(blocks, lams, cfg)
    assert len(fits) == size
    for g, fit in enumerate(fits):
        _assert_same_as_oracle(fit, blocks[g], None if lams is None else lams[g], cfg)


@pytest.mark.parametrize(
    "cfg, blocks, sweeps",
    [
        # at tol=0: two groups that roll back after 9 and 8 recorded sweeps
        # (seeds found by search), one that runs every sweep, and an all-zero
        # group that stops on its first sweep
        (
            DaqConfig(order=1, sweeps=11, tol=0.0),
            [
                _gauss((6, 8), seed=1),
                _gauss((6, 8), seed=6),
                _gauss((6, 8), seed=9) * np.arange(1, 49).reshape(6, 8),
                np.zeros((6, 8)),
            ],
            [9, 8, 11, 1],
        ),
        # at tol=1e-3: three groups that stop by tolerance after 5, 7 and 9
        # sweeps (seeds found by search) and stay frozen in the stack while
        # the fourth runs every sweep, and an all-zero group
        (
            DaqConfig(order=2, sweeps=11, tol=1e-3),
            [_gauss((6, 8), seed=seed) for seed in (18, 6, 10, 0)] + [np.zeros((6, 8))],
            [5, 7, 9, 11, 1],
        ),
    ],
    ids=["rollback", "tol"],
)
def test_stacked_fit_keeps_each_groups_stop(cfg, blocks, sweeps):
    fits = daq._fit_groups(blocks, None, cfg)
    assert [len(fit.loss_history) - 1 for fit in fits] == sweeps
    for fit, w in zip(fits, blocks):
        _assert_same_as_oracle(fit, w, None, cfg)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_row_tiles_keep_every_bit(order, weighted):
    # at a bound of 80 weights each 37x16 group runs alone, in 7 tiles of 5
    # rows and a ragged one of 2; at the default all three run as one stack
    blocks = [_gauss((37, 16), seed=40 + g) for g in range(3)]
    lams = None
    if weighted:
        lams = [np.where(_gauss((37, 16), seed=40 + g, stream=1) > 1.0, 2.5, 1.0) for g in range(3)]
    cfg = DaqConfig(order=order, sweeps=6, tol=0.0)
    whole = _fit_bytes(daq._fit_groups(blocks, lams, cfg))
    with mock.patch.object(daq, "_MAX_STACK_WEIGHTS", 5 * 16):
        fits = daq._fit_groups(blocks, lams, cfg)
    assert _fit_bytes(fits) == whole
    # the three stacks come back in block order
    for g, fit in enumerate(fits):
        _assert_same_as_oracle(fit, blocks[g], None if lams is None else lams[g], cfg)


def _loaded_workspace(target, lam2, order):
    """A workspace for the stack `target`, holding it and its squared weights."""
    ws = daq._Workspace(*target.shape, order, weighted=lam2 is not None)
    stack, squares = ws.stack(len(target))
    stack[...] = target
    if lam2 is not None:
        squares[...] = lam2
    return ws, stack, squares


@pytest.mark.parametrize("order, bound", [(2, 8), (3, 10)])
def test_fit_stack_memory_is_bounded(order, bound):
    # the workspace holds the target, the squared weights, the planes, two
    # sign sets and the work buffer for the whole stack; the elementwise
    # passes of a 1024x128 group run in two tiles of 512 rows, so its
    # scratch is half a stack per array
    target = _gauss((1, 1024, 128), seed=5)
    lam2 = np.where(_gauss((1, 1024, 128), seed=5, stream=1) > 1.0, 6.25, 1.0)
    tracemalloc.start()
    try:
        ws, stack, squares = _loaded_workspace(target, lam2, order)
        daq._fit_stack(stack, squares, DaqConfig(order=order), ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * target.nbytes


@pytest.mark.parametrize("order, bound", [(1, 3.8), (2, 6.9), (3, 10.05)])
def test_update_signs_memory_is_bounded(order, bound):
    # the planes, one int8 sign set, the distances and one 512-row tile's
    # scratch, then the float64 signs it returns
    target = _gauss((1024, 128), seed=6)
    pairs = [(np.abs(_gauss(1024, seed=6, stream=1 + k)), np.abs(_gauss(128, seed=6, stream=4 + k)))
             for k in range(order)]
    tracemalloc.start()
    try:
        update_signs(target, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * target.nbytes


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_fit_stack_allocates_only_its_results_beside_the_workspace(order, weighted):
    # two 512x128 groups: a stack of 2^17 weights, in two row tiles
    size, rows, cols = 2, 512, 128
    target = _gauss((size, rows, cols), seed=8)
    lam2 = np.where(_gauss(target.shape, seed=8, stream=1) > 1.0, 6.25, 1.0) if weighted else None
    ws, stack, squares = _loaded_workspace(target, lam2, order)
    cfg = DaqConfig(order=order, sweeps=4, tol=0.0)
    tracemalloc.start()
    try:
        fits = daq._fit_stack(stack, squares, cfg, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(fit.loss_history) for fit in fits] == [cfg.sweeps + 1] * size
    signs = order * size * rows * cols  # the returned int8 signs
    # float64 scales, their saved and float32 copies, the refits' products:
    # a few vectors of rows + cols entries per term and group
    scales = 8 * 8 * order * size * (rows + cols)
    assert peak <= signs + scales
