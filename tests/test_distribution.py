import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avbeam.distribution import (CSV_HEADER, Ensemble, MomentSet,
                                 delta_ensemble, diameter_alpha, dump_csv,
                                 dumps_csv, gaussian_cap, lift, load_csv,
                                 rapidity_cap)
from avbeam.geometry import ETA, boost_to_rest, minkowski


def brute_diameter(y, block=500):
    """Max pairwise distance of the rows of y from explicit differences."""
    best = 0.0
    for i in range(0, len(y), block):
        d = y[i:i + block, None, :] - y[None, :, :]
        best = max(best, float(np.max(np.sum(d * d, axis=-1))))
    return np.sqrt(best)


def test_lift_on_shell(rng):
    v = rng.normal(size=(20, 3))
    y = lift(v)
    assert np.allclose(minkowski(y, y), 1.0, atol=1e-14)


def test_moments_small_hand_oracle():
    """Two equal-weight samples: moments are plain averages."""
    y = np.array([lift([0.3, 0.0, 0.0]), lift([-0.3, 0.0, 0.0])])
    ms = MomentSet.from_samples(y, np.ones(2))
    assert np.allclose(ms.mean, 0.5 * (y[0] + y[1]))
    assert np.allclose(ms.second, 0.5 * (np.outer(y[0], y[0])
                                         + np.outer(y[1], y[1])))
    manual3 = 0.5 * (np.einsum("m,s,l->msl", y[0], y[0], y[0])
                     + np.einsum("m,s,l->msl", y[1], y[1], y[1]))
    assert np.allclose(ms.third, manual3)


def test_third_moment_symmetric(small_cap):
    t = small_cap.moments().third
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.allclose(t, np.transpose(t, perm))


def test_delta_moments_match_singleton():
    y = lift([0.4, -0.2, 0.1])
    ms = MomentSet.delta(y)
    ens = delta_ensemble(v=(0.4, -0.2, 0.1), n=7)
    ms2 = ens.moments()
    assert np.allclose(ms.mean, ms2.mean)
    assert np.allclose(ms.second, ms2.second)
    assert np.allclose(ms.third, ms2.third)
    assert ens.alpha() == 0.0


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.zeros(4), np.array([1.0, 0.5, 0.0, 0.0]))  # off shell
    with pytest.raises(ValueError):
        Ensemble(np.zeros(4), np.array([-1.0, 0.0, 0.0, 0.0]))  # past cone
    with pytest.raises(ValueError):
        Ensemble(np.zeros(4), lift([0.0, 0.0, 0.0]), w=[-1.0])


def test_energy_is_min_y0(small_cap):
    assert small_cap.energy() == np.min(small_cap.y[:, 0])


def test_alpha_two_point_oracle():
    """alpha of two samples equals the Euclidean chord distance (lab frame)."""
    y = np.array([lift([0.2, 0.0, 0.0]), lift([-0.1, 0.3, 0.0])])
    ens = Ensemble(np.zeros(4), y)
    assert ens.alpha() == pytest.approx(np.linalg.norm(y[0] - y[1]))


def test_alpha_hull_path_matches_bruteforce():
    big = rapidity_cap(5000, r0=0.3, r_cap=0.05, seed=5)
    assert big.alpha() == pytest.approx(brute_diameter(big.y), rel=1e-12)


def test_alpha_exact_on_pruned_cap():
    """The transverse cap on which a convex-hull reduction kept 28 of 4500
    samples and returned 0.0074: alpha is the full pairwise maximum."""
    ens = rapidity_cap(4500, r0=np.arccosh(10.0), r_cap=0.02, seed=11, axis=1,
                       aspect=(0.0, 1.0, 1.0))
    exact = brute_diameter(ens.y)
    assert exact == pytest.approx(0.03973, rel=1e-3)
    assert ens.alpha() == pytest.approx(exact, rel=1e-12)


def test_alpha_exact_when_pruning_keeps_everything(rng):
    """Samples on a sphere about their centroid all lie at the pruning
    radius, so the search scans every pair and must still be exact."""
    v = rng.normal(size=(2000, 3))
    v *= 0.5 / np.linalg.norm(v, axis=1, keepdims=True)
    y = lift(v)
    assert diameter_alpha(y) == pytest.approx(brute_diameter(y), rel=1e-12)


def test_alpha_degenerate_sets():
    y = np.array([lift([0.2, 0.0, 0.0]), lift([-0.1, 0.3, 0.0])])
    d = y[0] - y[1]
    assert diameter_alpha(y) == pytest.approx(np.sqrt(d @ d), rel=1e-15)
    assert diameter_alpha(np.tile(y[0], (50, 1))) == 0.0
    assert diameter_alpha(y[:1]) == 0.0
    assert diameter_alpha(y[0]) == 0.0


def test_non_finite_input_fails_loudly():
    with pytest.raises(ValueError, match="finite"):
        Ensemble(np.zeros(4), [[np.nan, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        Ensemble([np.inf, 0.0, 0.0, 0.0], lift([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        Ensemble(np.zeros(4), lift([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]),
                 w=[1.0, np.nan])
    y = lift([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    y[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        diameter_alpha(y)


def test_alpha_observer_metric(small_cap):
    """alpha for the mean observer u is diameter_alpha of the samples
    boosted to u's rest frame: the brute-force eta_bar_u diameter, with
    eta_bar_u = -eta + 2 u_low u_low."""
    u = small_cap.moments().mean
    u = u / np.sqrt(minkowski(u, u))
    a = diameter_alpha(small_cap.y @ boost_to_rest(u).T)
    u_low = ETA @ u
    bar = -ETA + 2.0 * np.outer(u_low, u_low)
    d = small_cap.y[:, None, :] - small_cap.y[None, :, :]
    brute = np.sqrt(np.max(np.einsum("abi,ij,abj->ab", d, bar, d)))
    assert a == pytest.approx(brute, rel=1e-12)
    # comoving diameter of an isotropic cap ~ 2 r_cap regardless of boost
    assert a == pytest.approx(2 * 0.05, rel=0.15)


def test_rapidity_cap_contract():
    ens = rapidity_cap(500, r0=np.arccosh(10.0), r_cap=0.01, seed=4, axis=1,
                       aspect=(0.0, 1.0, 1.0))
    assert np.allclose(minkowski(ens.y, ens.y), 1.0, atol=1e-12)
    assert ens.energy() >= 10.0 - 1e-9
    # transverse cap: lab diameter stays ~ 2 r_cap at any boost
    assert ens.alpha() == pytest.approx(0.02, rel=0.2)


def test_rapidity_cap_deterministic():
    a = rapidity_cap(100, r0=1.0, r_cap=0.1, seed=9)
    b = rapidity_cap(100, r0=1.0, r_cap=0.1, seed=9)
    assert np.array_equal(a.y, b.y)
    c = rapidity_cap(100, r0=1.0, r_cap=0.1, seed=10)
    assert not np.array_equal(a.y, c.y)


def test_gaussian_cap_truncation():
    ens = gaussian_cap(300, sigma=0.02, trunc=2.5, seed=1)
    r = np.arccosh(ens.y[:, 0])
    assert np.max(r) <= 2.5 * 0.02 + 1e-12


def test_ensemble_rejects_inconsistent_shapes():
    """x and y must be (n, 4) after the one-row broadcast of x, and w (n,);
    with_state (check=False) leaves its arrays unchecked."""
    ens = rapidity_cap(5, r_cap=0.1, seed=0)
    for x, w in ((np.zeros((3, 4)), None), (np.zeros(4), np.ones(3)),
                 (np.zeros((5, 3)), None)):
        with pytest.raises(ValueError, match=r"must be \(n, 4\)"):
            Ensemble(x, ens.y, w)
    assert len(Ensemble(np.zeros(4), ens.y, np.ones(5))) == 5
    assert ens.with_state(np.zeros((3, 4)), ens.y).x.shape == (3, 4)


def test_csv_round_trip(small_cap, tmp_path):
    path = tmp_path / "ens.csv"
    dump_csv(small_cap, str(path))
    back = load_csv(str(path))
    assert np.array_equal(back.x, small_cap.x)
    assert np.array_equal(back.y, small_cap.y)
    assert np.array_equal(back.w, small_cap.w)


def test_csv_header_checked():
    buf = io.StringIO("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_csv(buf)
    text = dumps_csv(delta_ensemble())
    assert text.splitlines()[0] == ",".join(CSV_HEADER)


@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                          st.floats(-2, 2)), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_mean_energy_alpha_invariants(vs):
    """Property: E <= y^0 for all samples; eta(<y>,<y>) >= 1; alpha bounds
    any pairwise distance."""
    y = lift(np.asarray(vs, dtype=float))
    y = np.atleast_2d(y)
    ens = Ensemble(np.zeros(4), y)
    m = ens.moments().mean
    assert minkowski(m, m) >= 1.0 - 1e-9
    assert ens.energy() <= np.min(y[:, 0]) + 1e-12
    a = ens.alpha()
    for i in range(len(y)):
        for j in range(len(y)):
            assert np.linalg.norm(y[i] - y[j]) <= a + 1e-9
