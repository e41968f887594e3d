"""Second-moment accumulation, saliency mask, and loss oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskquant import stats
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


@pytest.mark.parametrize("width", [1, 127, 128, 129, 136, 300, 1024])
def test_accumulate_is_a_fold_of_block_grams(width):
    # the panels' products equal numpy's syrk of the whole block bit for bit
    # where OpenBLAS computes every entry of a product alike: at any width of
    # one panel or a multiple of 8 (136 ends in a ragged 8-row panel). At
    # other widths its edge kernels sum some entries in another order, and
    # the grams agree to float64 rounding.
    rng = Rng(width, 0)
    sm = SecondMoment(width)
    oracle = np.zeros((width, width))
    for tokens in (64, 448, 512):
        x = np.asarray(rng.gaussian((width, tokens)), dtype=np.float32)
        sm.accumulate(x)
        x = x.astype(np.float64)
        oracle += x @ x.T
    assert np.array_equal(sm.gram, sm.gram.T)
    if width <= stats._PANEL_ROWS or width % 8 == 0:
        assert sm.gram.tobytes() == oracle.tobytes()
    else:
        assert np.allclose(sm.gram, oracle, rtol=0, atol=1e-14 * np.abs(oracle).max())
    assert sm.count == 1024


def test_accumulate_makes_no_gram_sized_temporary():
    # the float64 copy of the block, and one panel of 128 rows: a product of
    # the whole block would add a whole gram
    x = np.asarray(Rng(3, 3).gaussian((1024, 512)), dtype=np.float32)
    sm = SecondMoment(1024)
    tracemalloc.start()
    try:
        sm.accumulate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.astype(np.float64).nbytes + sm.gram.nbytes // 4


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
    assert back.count is None  # the file holds the gram only
    assert [p.name for p in tmp_path.iterdir()] == ["s.qdt"]


def test_load_holds_only_the_gram_it_reads(tmp_path):
    # the moment is built around the array read from the file: no
    # throwaway gram of zeros beside it
    sm = _moment(np.asarray(Rng(3, 1).gaussian((512, 16)), dtype=np.float32))
    save_second_moment(sm, tmp_path / "s.qdt")
    size = (tmp_path / "s.qdt").stat().st_size
    tracemalloc.start()
    try:
        back = load_second_moment(tmp_path / "s.qdt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.gram.tobytes() == sm.gram.tobytes() and back.dim == 512
    assert peak <= 1.25 * size


def test_damped_inverse_refuses_an_empty_moment():
    # no token accumulated: the zero diagonal makes damp 0, so it stays singular
    with pytest.raises(ValueError, match="singular even with damp=0"):
        damped_inverse_diag(SecondMoment(3), damp_rel=0.01)


def test_load_rejects_negative_diagonal(tmp_path):
    sm = _moment(np.eye(3))
    sm.gram = -sm.gram
    save_second_moment(sm, tmp_path / "s.qdt")
    with pytest.raises(ContainerError, match="negative diagonal"):
        load_second_moment(tmp_path / "s.qdt")


def test_damped_inverse_identity():
    sm = SecondMoment(3)
    sm.gram = np.eye(3)
    # damp chosen so the added ridge is exactly 1
    d = damped_inverse_diag(sm, damp_rel=1.0)
    assert np.allclose(d, 0.5)


def test_damped_inverse_diagonal_case():
    sm = SecondMoment(2)
    sm.gram = np.diag([3.0, 0.0])
    d = damped_inverse_diag(sm, damp_rel=2.0 / 3.0)  # mean diag 1.5 -> ridge 1
    assert np.allclose(d, [0.25, 1.0])


def _eigh_inverse_diag(gram, damp_rel):
    ridge = damp_rel * np.mean(np.diag(gram))
    eigvals, eigvecs = np.linalg.eigh(gram + ridge * np.eye(gram.shape[0]))
    return ((eigvecs**2) / eigvals[None, :]).sum(axis=1)


def test_damped_inverse_matches_eigh_oracle():
    rng = Rng(4, 0)
    a = np.asarray(rng.gaussian((6, 30)))
    sm = _moment(a.astype(np.float32))
    d = damped_inverse_diag(sm, damp_rel=0.01)
    assert np.allclose(d, _eigh_inverse_diag(sm.gram, 0.01), rtol=1e-10)


@pytest.mark.parametrize(
    "dim, tokens", [(1, 3), (7, 5), (63, 20), (64, 200), (65, 40), (130, 64), (300, 40), (1024, 64)]
)
def test_damped_inverse_matches_eigh_on_rank_deficient_grams(dim, tokens):
    # widths around the Cholesky block size, each gram of rank at most
    # min(dim, tokens) with a feature that is always 0 (when there is more
    # than one), so the damping alone keeps it invertible
    x = np.asarray(Rng(dim, tokens).gaussian((dim, tokens)), dtype=np.float32)
    if dim > 1:
        x[dim // 2] = 0.0
    sm = _moment(x)
    gram = sm.gram.copy()
    d = damped_inverse_diag(sm, damp_rel=0.01)
    assert np.allclose(d, _eigh_inverse_diag(gram, 0.01), rtol=1e-10, atol=0)
    assert sm.gram.tobytes() == gram.tobytes()


@pytest.mark.parametrize(
    "gram",
    [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues 3 and -1
        # eigenvalue -0.5 along the all-0.25 vector, yet a positive diagonal
        # and a positive inverse diagonal: only the factorization refuses it
        np.eye(16) - 1.5 * np.full((16, 16), 1 / 16),
    ],
    ids=["2x2", "positive_inverse_diagonal"],
)
def test_damped_inverse_refuses_an_indefinite_gram(gram):
    # symmetric but not a second moment: it has no Cholesky factor
    sm = SecondMoment(gram.shape[0])
    sm.gram = gram
    with pytest.raises(ValueError, match="singular even with damp="):
        damped_inverse_diag(sm, damp_rel=0.01)


def test_damped_inverse_holds_one_extra_gram():
    # tracemalloc sees numpy's arrays, not LAPACK's own workspace; the
    # damped copy is one gram, the panels add at most two n x 64 arrays
    x = np.asarray(Rng(1024, 64).gaussian((1024, 64)), dtype=np.float32)
    sm = _moment(x)
    tracemalloc.start()
    try:
        damped_inverse_diag(sm, damp_rel=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sm.gram.nbytes


def test_singular_without_damping_raises():
    sm = SecondMoment(2)
    sm.gram = np.diag([1.0, 0.0])
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
    mask = build_importance_mask(np.full((4, 4), 7.0))
    assert mask.dtype == bool and not mask.any()
    assert np.array_equal(np.where(mask, 2.0, 1.0), np.ones((4, 4)))


def test_single_outlier_flagged_by_hand_oracle():
    z = np.ones(100)
    z[17] = 1000.0
    mu = z.sum() / 100.0
    sigma = np.sqrt((z**2).sum() / 100.0 - mu**2)
    assert abs(z[17] - mu) > 3 * sigma > abs(z[0] - mu)  # oracle: only entry 17
    mask = build_importance_mask(z.reshape(10, 10))
    expected = np.zeros((10, 10), dtype=bool)
    expected[1, 7] = True
    assert np.array_equal(mask, expected)
    assert np.where(mask, 2.0, 1.0)[1, 7] == 2.0
    assert mask.mean() == 0.01


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=25, deadline=None)
def test_mask_scale_invariance(scale):
    z = np.asarray(Rng(6, 0).gaussian((8, 8))) ** 2
    base = build_importance_mask(z)
    scaled = build_importance_mask(scale * z)
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


def test_true_data_loss_on_float32_layers_matches_the_float64_formula():
    rng = Rng(8, 2)
    sm = _moment(np.asarray(rng.gaussian((16, 40)), dtype=np.float32))
    w = np.asarray(rng.gaussian((5, 16)), dtype=np.float32)
    what = np.asarray(rng.gaussian((5, 16)), dtype=np.float32)
    diff = w.astype(np.float64) - what.astype(np.float64)
    assert true_data_loss(w, what, sm) == float(((diff @ sm.gram) * diff).sum())
    w64 = w.astype(np.float64)
    true_data_loss(w64, what, sm)
    assert np.array_equal(w64, w)  # the inputs are not written


def test_true_data_loss_identity_moment_is_frobenius():
    sm = SecondMoment(4)
    sm.gram = np.eye(4)
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
