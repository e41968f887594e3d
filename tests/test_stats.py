"""Second-moment accumulation, saliency mask, and loss oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskquant.container import ContainerError
from maskquant.errors import ShapeError
from maskquant.rng import Rng
from maskquant.stats import (
    SecondMoment,
    block_scores,
    build_importance_mask,
    damped_inverse_diag,
    importance_matrix,
    load_second_moment,
    proxy_loss,
    save_second_moment,
    true_data_loss,
)


def _moment(columns):
    sm = SecondMoment(columns.shape[0])
    sm.accumulate(columns)
    return sm


def test_single_column_outer_product():
    sm = _moment(np.array([[1.0], [2.0]], dtype=np.float32))
    assert np.array_equal(sm.gram, [[1.0, 2.0], [2.0, 4.0]])
    assert sm.count == 1


def test_orthonormal_columns_give_identity():
    sm = _moment(np.eye(2, dtype=np.float32))
    assert np.array_equal(sm.gram, np.eye(2))
    assert sm.count == 2


def test_accumulate_matches_outer_product_sum():
    cols = np.asarray(Rng(0, 3).gaussian((8, 1024)), dtype=np.float32)
    sm = _moment(cols)
    # independent oracle: explicit loop of float64 outer products
    oracle = np.zeros((8, 8))
    for j in range(cols.shape[1]):
        x = cols[:, j].astype(np.float64)
        oracle += np.outer(x, x)
    assert np.allclose(sm.gram, oracle, rtol=1e-12, atol=0)


def test_regrouped_shards_match_to_rounding():
    # accumulating the same columns in larger blocks changes the fold, so
    # equality is only up to float64 rounding
    cols = np.asarray(Rng(2, 1).gaussian((6, 1000)), dtype=np.float32)
    records = SecondMoment(6)
    for i in range(0, 1000, 100):
        records.accumulate(cols[:, i : i + 100])
    shards = SecondMoment(6)
    for lo, hi in ((0, 300), (300, 700), (700, 1000)):
        shards.accumulate(cols[:, lo:hi])
    assert np.allclose(shards.gram, records.gram, rtol=1e-12, atol=0)
    assert shards.count == records.count == 1000


def test_dimension_mismatch_rejected():
    sm = SecondMoment(4)
    with pytest.raises(ShapeError):
        sm.accumulate(np.zeros((3, 5), dtype=np.float32))


def test_save_load_roundtrip(tmp_path):
    sm = _moment(np.asarray(Rng(3, 0).gaussian((5, 20)), dtype=np.float32))
    save_second_moment(sm, tmp_path / "s.qdt")
    back = load_second_moment(tmp_path / "s.qdt")
    assert np.array_equal(back.gram, sm.gram)
    assert back.count == sm.count


@pytest.mark.parametrize("text", ["abc", "-1", "1.5", "", "1e3", "\xb2"])
def test_load_rejects_count_that_is_not_a_non_negative_integer(tmp_path, text):
    save_second_moment(_moment(np.eye(3)), tmp_path / "s.qdt")
    (tmp_path / "s.qdt.count").write_text(text + "\n")
    with pytest.raises(ContainerError, match="non-negative integer"):
        load_second_moment(tmp_path / "s.qdt")


def test_load_rejects_zero_count(tmp_path):
    save_second_moment(_moment(np.eye(3)), tmp_path / "s.qdt")
    (tmp_path / "s.qdt.count").write_text("0\n")
    with pytest.raises(ContainerError, match="token count is 0"):
        load_second_moment(tmp_path / "s.qdt")


def test_load_rejects_negative_diagonal(tmp_path):
    sm = _moment(np.eye(3))
    sm.gram = -sm.gram
    save_second_moment(sm, tmp_path / "s.qdt")
    with pytest.raises(ContainerError, match="negative diagonal"):
        load_second_moment(tmp_path / "s.qdt")


def test_damped_inverse_identity():
    sm = SecondMoment(3)
    sm.gram = np.eye(3)
    sm.count = 3
    # damp chosen so the added ridge is exactly 1
    d = damped_inverse_diag(sm, damp_rel=1.0)
    assert np.allclose(d, 0.5)


def test_damped_inverse_diagonal_case():
    sm = SecondMoment(2)
    sm.gram = np.diag([3.0, 0.0])
    sm.count = 2
    d = damped_inverse_diag(sm, damp_rel=2.0 / 3.0)  # mean diag 1.5 -> ridge 1
    assert np.allclose(d, [0.25, 1.0])


def test_damped_inverse_matches_eigh_oracle():
    rng = Rng(4, 0)
    a = np.asarray(rng.gaussian((6, 30)))
    sm = _moment(a.astype(np.float32))
    d = damped_inverse_diag(sm, damp_rel=0.01)
    ridge = 0.01 * np.mean(np.diag(sm.gram))
    eigvals, eigvecs = np.linalg.eigh(sm.gram + ridge * np.eye(6))
    oracle = ((eigvecs**2) / eigvals[None, :]).sum(axis=1)
    assert np.allclose(d, oracle, rtol=1e-10)


def test_singular_without_damping_raises():
    sm = SecondMoment(2)
    sm.gram = np.diag([1.0, 0.0])
    sm.count = 1
    with pytest.raises(ValueError):
        damped_inverse_diag(sm, damp_rel=0.0)


def test_importance_matrix_values():
    z = importance_matrix(np.array([[1.0, 2.0]]), np.array([0.5, 1.0]))
    assert np.allclose(z, [[4.0, 4.0]])
    w = np.asarray(Rng(5, 0).gaussian((4, 6)))
    d = np.full(6, 1.0)
    assert np.allclose(importance_matrix(w, d), w * w)
    z1 = importance_matrix(w, np.abs(np.asarray(Rng(5, 1).gaussian(6))) + 0.1)
    z2 = importance_matrix(3.0 * w, np.abs(np.asarray(Rng(5, 1).gaussian(6))) + 0.1)
    assert np.allclose(z2, 9.0 * z1)


def test_importance_matrix_rejects_bad_diag():
    with pytest.raises(ValueError):
        importance_matrix(np.ones((2, 2)), np.array([1.0, 0.0]))


def test_constant_importance_has_no_outliers():
    mask = build_importance_mask(np.full((4, 4), 7.0), lambda_weight=2.0)
    assert not mask.mask.any()
    assert np.array_equal(mask.weights(), np.ones((4, 4)))


def test_single_outlier_flagged_by_hand_oracle():
    z = np.ones(100)
    z[17] = 1000.0
    mu = z.sum() / 100.0
    sigma = np.sqrt((z**2).sum() / 100.0 - mu**2)
    assert abs(z[17] - mu) > 3 * sigma > abs(z[0] - mu)  # oracle: only entry 17
    mask = build_importance_mask(z.reshape(10, 10), lambda_weight=2.0)
    expected = np.zeros((10, 10), dtype=bool)
    expected[1, 7] = True
    assert np.array_equal(mask.mask, expected)
    assert mask.weights()[1, 7] == 2.0
    assert mask.outlier_fraction == 0.01


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=25, deadline=None)
def test_mask_scale_invariance(scale):
    z = np.asarray(Rng(6, 0).gaussian((8, 8))) ** 2
    base = build_importance_mask(z, 2.0).mask
    scaled = build_importance_mask(scale * z, 2.0).mask
    assert np.array_equal(base, scaled)


def test_proxy_loss_values():
    w = np.zeros((2, 2))
    diff = np.array([[-0.142857, -0.142857], [0.333333, -0.333333]])
    assert proxy_loss(w, w) == 0.0
    assert proxy_loss(w, -diff) == pytest.approx(0.263039, abs=1e-5)
    lam = np.ones((2, 2))
    lam[0, 0] = 2.0
    weighted = proxy_loss(w, -diff, lam)
    plain = proxy_loss(w, -diff)
    # the flagged entry contributes 4x inside the square
    assert weighted == pytest.approx(plain + 3 * diff[0, 0] ** 2, rel=1e-12)


def test_proxy_loss_unweighted_equals_frobenius():
    w = np.asarray(Rng(7, 0).gaussian((5, 5)))
    what = np.asarray(Rng(7, 1).gaussian((5, 5)))
    assert proxy_loss(w, what) == pytest.approx(np.linalg.norm(w - what) ** 2, rel=1e-12)
    assert proxy_loss(w, what, np.ones((5, 5))) == proxy_loss(w, what)


def test_true_data_loss_identity_and_trace_oracle():
    rng = Rng(8, 0)
    x = np.asarray(rng.gaussian((4, 8)), dtype=np.float32)
    w = np.asarray(rng.gaussian((3, 4)))
    what = np.asarray(rng.gaussian((3, 4)))
    sm = _moment(x)
    assert true_data_loss(w, w, sm) == 0.0
    direct = np.linalg.norm((w - what) @ x.astype(np.float64)) ** 2
    assert true_data_loss(w, what, sm) == pytest.approx(direct, rel=1e-10)


def test_true_data_loss_identity_moment_is_frobenius():
    sm = SecondMoment(4)
    sm.gram = np.eye(4)
    sm.count = 4
    w = np.asarray(Rng(8, 1).gaussian((3, 4)))
    what = np.asarray(Rng(8, 2).gaussian((3, 4)))
    assert true_data_loss(w, what, sm) == pytest.approx(
        np.linalg.norm(w - what) ** 2, rel=1e-12
    )


def test_block_scores_uniform_and_total():
    z = np.ones((256, 256))
    scores = block_scores(z, [(0, 128), (128, 256)])
    assert np.array_equal(scores, [256 * 128, 256 * 128])
    assert block_scores(z, [(0, 256)])[0] == z.sum()


def test_block_scores_match_bruteforce_and_conserve():
    z = np.asarray(Rng(9, 0).gaussian((16, 20))) ** 2
    ranges = [(0, 5), (5, 10), (10, 15), (15, 20)]
    scores = block_scores(z, ranges)
    for (a, b), s in zip(ranges, scores):
        assert s == pytest.approx(sum(z[i, j] for i in range(16) for j in range(a, b)))
    assert scores.sum() == pytest.approx(z.sum(), rel=1e-12)


def test_block_scores_reject_gaps_and_overlaps():
    z = np.ones((4, 10))
    with pytest.raises(ShapeError):
        block_scores(z, [(0, 4), (5, 10)])
    with pytest.raises(ShapeError):
        block_scores(z, [(0, 6), (4, 10)])
    with pytest.raises(ShapeError):
        block_scores(z, [(0, 8)])


def test_second_moment_psd_on_random_suite():
    for seed in range(5):
        cols = np.asarray(Rng(seed, 4).gaussian((6, 40)), dtype=np.float32)
        sm = _moment(cols)
        jitter = 1e-8 * np.linalg.norm(sm.gram)
        np.linalg.cholesky(sm.gram + jitter * np.eye(6))  # raises if not PSD
