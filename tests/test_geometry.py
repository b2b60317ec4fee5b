import numpy as np
import pytest

from avbeam.geometry import ETA, boost_to_rest, lower, minkowski

from conftest import random_hyperboloid


def test_minkowski_signature():
    assert minkowski([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert minkowski([0, 1, 0, 0], [0, 1, 0, 0]) == -1.0
    assert minkowski([1, 1, 0, 0], [1, -1, 0, 0]) == 2.0


def test_lower_matches_matrix():
    y = np.array([2.0, 1.0, -3.0, 0.5])
    assert np.allclose(lower(y), ETA @ y)


def test_boost_to_rest_maps_to_lab(rng):
    for _ in range(20):
        u = random_hyperboloid(rng, boost=2.0)
        L = boost_to_rest(u)
        assert np.allclose(L @ u, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        # proper Lorentz transform: preserves eta
        assert np.allclose(L.T @ ETA @ L, ETA, atol=1e-12)


def test_boost_to_rest_euclidean_equals_bar_distance(rng):
    """Boosting to u's rest frame turns eta_bar_u distances Euclidean:
    eta_bar_u = -eta + 2 u_low u_low = L^T L with L = boost_to_rest(u)."""
    u = random_hyperboloid(rng, boost=1.5)
    u_low = ETA @ u
    bar = -ETA + 2.0 * np.outer(u_low, u_low)
    L = boost_to_rest(u)
    assert np.allclose(L.T @ L, bar, atol=1e-12)
    a, b = random_hyperboloid(rng, 2)
    d_bar = np.sqrt((a - b) @ bar @ (a - b))
    d_euc = np.linalg.norm(L @ (a - b))
    assert d_euc == pytest.approx(d_bar, rel=1e-10)
