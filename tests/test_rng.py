"""Determinism and distribution sanity of the seeded streams."""

import numpy as np

from maskquant.rng import Rng


def test_same_key_same_draws():
    a = Rng(42, 7).uniform(100)
    b = Rng(42, 7).uniform(100)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = Rng(42, 0).uniform(100)
    b = Rng(42, 1).uniform(100)
    assert not np.array_equal(a, b)


def test_stream_order_independence():
    r1, r2 = Rng(5, 1), Rng(5, 2)
    first_then_second = (r1.uniform(50), r2.uniform(50))
    r2b, r1b = Rng(5, 2), Rng(5, 1)
    second_then_first = (r2b.uniform(50), r1b.uniform(50))
    assert np.array_equal(first_then_second[0], second_then_first[1])
    assert np.array_equal(first_then_second[1], second_then_first[0])


def test_uniform_moments():
    draws = Rng(0, 0).uniform(1_000_000)
    assert 0.49 <= draws.mean() <= 0.51
    assert (draws >= 0).all() and (draws < 1).all()


def test_gaussian_variance():
    draws = Rng(0, 1).gaussian(1_000_000)
    assert abs(draws.var() - 1.0) <= 0.02
