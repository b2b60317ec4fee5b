import numpy as np
import pytest

from avbeam.connections import (LorentzConnection, TableConnection,
                                TildeConnection, average_numeric,
                                averaged_table, berwald_from_spray,
                                difference, torsion)
from avbeam.distribution import MomentSet, rapidity_cap
from avbeam.fields import make_preset
from avbeam.geometry import minkowski

from conftest import random_hyperboloid


@pytest.fixture(scope="module")
def field():
    return make_preset("normal-quad+dipole", b0=1.0, b1=0.5)


def test_spray_closed_form(field, rng):
    """Gamma y y = -sqrt(eta(y,y)) F y, checked off shell too."""
    conn = LorentzConnection(field)
    x = rng.normal(size=4)
    for scale in (1.0, 2.5):
        y = scale * random_hyperboloid(rng)
        g = np.einsum("ijk,j,k->i", conn.coeffs(x, y), y, y)
        expect = -np.sqrt(minkowski(y, y)) * (field.mixed(x) @ y)
        assert np.allclose(g, expect, atol=1e-12)
        assert np.allclose(conn.spray(x, y), expect, atol=1e-12)


def test_spray_rejects_spacelike(field):
    conn = LorentzConnection(field)
    with pytest.raises(ValueError):
        conn.spray(np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]))


def test_on_shell_autoparallel_is_lorentz_force(field, rng):
    """On the unit hyperboloid the auto-parallel acceleration is +F y."""
    conn = LorentzConnection(field)
    x = rng.normal(size=4)
    y = random_hyperboloid(rng)
    acc = -np.einsum("ijk,j,k->i", conn.coeffs(x, y), y, y)
    assert np.allclose(acc, field.mixed(x) @ y, atol=1e-12)


def test_berwald_recovers_coefficients(field, rng):
    """1/2 of the velocity Hessian of the spray reproduces the closed-form
    table; central differences converge at second order."""
    conn = LorentzConnection(field)
    x = rng.normal(size=4)
    y = random_hyperboloid(rng, boost=0.3)
    errs = []
    for h in (1e-3, 1e-4):
        b = berwald_from_spray(conn.spray, h=h)
        errs.append(np.max(np.abs(b.coeffs(x, y) - conn.coeffs(x, y))))
    assert errs[1] < errs[0] / 30.0          # ~ h^2 convergence
    assert errs[1] < 5e-5


def test_transversality(field, rng):
    """T(y, y) = 0 exactly on and off normalization."""
    conn = LorentzConnection(field)
    x = rng.normal(size=4)
    for _ in range(50):
        y = random_hyperboloid(rng, boost=1.0)
        Tyy = np.einsum("ijk,j,k->i", conn.T_part(x, y), y, y)
        assert np.max(np.abs(Tyy)) < 1e-12


def test_tilde_drops_transversal(field, rng):
    x = rng.normal(size=4)
    y = random_hyperboloid(rng)
    lc, tc = LorentzConnection(field), TildeConnection(field)
    assert np.allclose(tc.coeffs(x, y), lc.L_part(x, y))
    # same auto-parallels on the hyperboloid
    assert np.allclose(tc.spray(x, y), lc.spray(x, y), atol=1e-12)


def test_torsion_zero_everywhere(field, rng):
    x = rng.normal(size=4)
    y = random_hyperboloid(rng)
    ens = rapidity_cap(50, r0=0.4, r_cap=0.1, seed=2)
    for conn in (LorentzConnection(field), TildeConnection(field)):
        assert np.max(np.abs(torsion(conn, x, y))) == 0.0
    averaged = TableConnection(averaged_table(field, x, ens.moments()))
    assert np.max(np.abs(torsion(averaged, x))) == 0.0


def test_averaged_equals_numeric_average(field):
    """Closed-form averaged coefficients == weighted sample average of the
    pointwise tables (exact algebraic identity)."""
    for seed in range(5):
        ens = rapidity_cap(40, r0=0.6, r_cap=0.2, seed=seed)
        x = np.array([0.1, -0.2, 0.3, 0.05])
        closed = averaged_table(field, x, ens.moments())
        numeric = average_numeric(LorentzConnection(field), ens, x).coeffs(x)
        assert np.max(np.abs(closed - numeric)) < 1e-12


def test_averaged_delta_collapses_to_pointwise(field, rng):
    y = random_hyperboloid(rng)
    x = rng.normal(size=4)
    closed = averaged_table(field, x, MomentSet.delta(y))
    point = LorentzConnection(field).coeffs(x, y)
    assert np.max(np.abs(closed - point)) < 1e-12


def test_difference_decomposition_exact(field):
    """exact == leading + O2 + O3 to near machine precision."""
    worst = 0.0
    for seed in range(20):
        ens = rapidity_cap(30, r0=0.8, r_cap=0.15, seed=seed)
        x = np.array([0.0, 0.2, -0.1, 0.4])
        ms = ens.moments()
        for y in ens.y[:10]:
            exact, lead, o2, o3 = difference(field, ms, x, y)
            worst = max(worst, np.max(np.abs(exact - (lead + o2 + o3))))
    assert worst < 1e-12


def test_difference_orders_scale(field):
    """All three gap terms are at least second order in the diameter:
    halving alpha shrinks each by >= 4 (delta ~ alpha, d ~ alpha^2)."""
    x = np.zeros(4)
    norms = []
    for r_cap in (0.02, 0.04):
        ens = rapidity_cap(400, r0=0.0, r_cap=r_cap, seed=7)
        ms = ens.moments()
        exact, lead, o2, o3 = difference(field, ms, x, ens.y[0])
        norms.append((np.linalg.norm(exact), np.linalg.norm(lead),
                      np.linalg.norm(o2), np.linalg.norm(o3)))
    small, big = np.array(norms)
    assert np.all(big / small > 3.5)


def test_difference_requires_on_shell(field):
    ens = rapidity_cap(10, r_cap=0.1, seed=0)
    with pytest.raises(ValueError):
        difference(field, ens.moments(), np.zeros(4),
                   np.array([2.0, 0.0, 0.0, 0.0]))
