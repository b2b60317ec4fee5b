"""The benchmark's independent references, checked on small inputs."""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from avbeam.analysis import compare_trajectories, validity_horizon  # noqa: E402
from avbeam.distribution import diameter_alpha, rapidity_cap  # noqa: E402
from avbeam.dynamics import IntegratorConfig  # noqa: E402
from avbeam.fields import make_preset  # noqa: E402

from perfbench import refs  # noqa: E402


def test_brute_alpha_matches_pairwise_loop():
    rng = np.random.default_rng(5)
    v = rng.normal(scale=0.3, size=(40, 3))
    y = np.column_stack([np.sqrt(1.0 + np.sum(v * v, axis=1)), v])
    loop = max(np.linalg.norm(a - b) for a, b in itertools.combinations(y, 2))
    assert refs.brute_alpha(y, block=7) == pytest.approx(loop, rel=1e-15)
    assert refs.brute_alpha(y[:1]) == 0.0


def test_alpha_lower_bound_is_a_pair_distance_below_the_diameter():
    ens = rapidity_cap(300, r0=float(np.arccosh(10.0)), r_cap=0.02, seed=4,
                       axis=1, aspect=(0.0, 1.0, 1.0))
    low, exact = refs.alpha_lower_bound(ens.y), refs.brute_alpha(ens.y)
    assert 0.5 * exact < low <= exact


@pytest.mark.parametrize("energy", [1.5, 10.0, 40.0])
def test_brute_alpha_matches_program_alpha(energy):
    ens = rapidity_cap(300, r0=float(np.arccosh(energy)), r_cap=0.01,
                       seed=3, axis=1, aspect=(0.0, 1.0, 1.0))
    assert diameter_alpha(ens) == pytest.approx(refs.brute_alpha(ens.y),
                                                rel=1e-8)


def test_separation_budget_matches_comparison_report():
    field = make_preset("normal-dipole", b0=1.0)
    ens = rapidity_cap(200, r0=float(np.arccosh(10.0)), r_cap=0.01, seed=11,
                       axis=1, aspect=(0.0, 1.0, 1.0))
    rep = compare_trajectories(field, ens, t_end=0.5, n_out=6,
                               cfg=IntegratorConfig(step=1e-3))
    alpha = refs.brute_alpha(ens.y)
    energy = float(np.min(ens.y[:, 0]))
    pos, vel = refs.separation_budget(
        alpha, energy, refs.field_norm(field.lowered(np.zeros(4))), rep.times)
    np.testing.assert_allclose(pos, rep.pos_bound, rtol=1e-9)
    np.testing.assert_allclose(vel, rep.vel_bound, rtol=1e-9)


def test_position_horizon_matches_validity_horizon():
    rep = validity_horizon(40.0, 0.02, 1.0, 1.0)
    assert refs.t_max_position(40.0, 0.02, 1.0) == pytest.approx(
        rep.t_max_position, rel=1e-14)


@pytest.mark.parametrize("K,c", [(2.0, 0.0), (-0.25, 0.0), (0.0, 0.0),
                                 (0.0, 0.8)])
def test_hill_references_solve_their_equations(K, c):
    h = 1e-3
    s = np.linspace(0.0, 2.0, 2001)
    for u, rhs in ((refs.hill_principal(K, c, s)[0], 0.0),
                   (refs.hill_principal(K, c, s)[1], 0.0),
                   (refs.hill_unit_response(K, c, s), 1.0)):
        d1 = (u[2:] - u[:-2]) / (2 * h)
        d2 = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
        assert np.max(np.abs(d2 + c * d1 + K * u[1:-1] - rhs)) < 1e-5
    C, S = refs.hill_principal(K, c, s)
    W = C[1:-1] * (S[2:] - S[:-2]) / (2 * h) - S[1:-1] * (C[2:] - C[:-2]) / (2 * h)
    np.testing.assert_allclose(W, refs.hill_wronskian(c, s[1:-1]), atol=1e-6)


def test_loglog_slope_recovers_power_law():
    pts = [(x, 3.0 * x ** -1.5) for x in (1.0, 2.0, 4.0, 8.0)]
    slope, r2 = refs.loglog_slope(pts)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
