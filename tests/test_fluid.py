import numpy as np
import pytest

from avbeam.distribution import Ensemble, delta_ensemble, lift, rapidity_cap
from avbeam.dynamics import IntegratorConfig
from avbeam.fields import make_preset, zero_field
from avbeam.fluid import (bound_rhs, mean_field, noise_floor, norm_1_1,
                          residual)
from avbeam.geometry import minkowski


def tube_ensemble():
    """Five particles strung along axis 2 with distinct velocities: the
    tube binning must put one particle per cell."""
    x = np.zeros((5, 4))
    x[:, 2] = [-2.0, -1.0, 0.0, 1.0, 2.0]
    v = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3],
                  [-0.1, 0.1, 0.0], [0.2, 0.0, -0.1]])
    return Ensemble(x, lift(v))


def test_mean_field_tube_layout():
    ens = tube_ensemble()
    sl = mean_field(ens, n_cells=5)
    assert sl.axis == 2
    assert sl.t == 0.0
    assert np.allclose(sl.V, ens.y.mean(axis=0))
    assert np.array_equal(sl.occupied(), np.ones(5, dtype=bool))
    # one particle per cell, in order along the axis
    for c in range(5):
        assert np.allclose(sl.cell_V[c], ens.y[c])
        assert sl.cell_weight[c] == 1.0
    assert minkowski(sl.V, sl.V) >= 1.0


def test_mean_field_degenerate_positions():
    """Coincident positions collapse the tube to a single cell."""
    ens = delta_ensemble(v=(0.5, 0.0, 0.0), n=3)
    sl = mean_field(ens)
    assert sl.axis == 0
    assert len(sl.centers) == 1
    assert np.allclose(sl.V, lift([0.5, 0.0, 0.0]))
    assert sl.cell_weight[0] == pytest.approx(3.0)


def test_mean_field_cell_of_zero_weight_samples_is_empty():
    """A cell that holds only zero-weight samples is empty, as a cell with
    no samples is: weight 0, not occupied, V the global mean."""
    cap = rapidity_cap(51, r0=1.0, r_cap=0.1, seed=3)
    x = np.zeros((51, 4))
    x[45:50, 1] = 1.0
    x[50, 1] = -2.0
    w = np.ones(51)
    w[50] = 0.0
    sl = mean_field(Ensemble(x, cap.y, w), n_cells=5)
    assert sl.axis == 1
    assert np.array_equal(sl.cell_weight, [0.0, 0.0, 45.0, 0.0, 5.0])
    assert np.array_equal(sl.occupied(), [False, False, True, False, True])
    assert np.array_equal(sl.cell_V[0], sl.V)
    assert np.allclose(sl.cell_V[2], cap.y[:45].mean(axis=0))


def test_norm_1_1_gaussian_closed_form():
    """Isotropic unit Gaussian density: integral of |f| is 1 and each
    |d_k f| integrates to sqrt(2/pi), so ||f||_{1,1} = 1 + 3 sqrt(2/pi)."""
    n = 64
    edges = np.linspace(-5.0, 5.0, n + 1)
    c = 0.5 * (edges[:-1] + edges[1:])
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    f = np.exp(-0.5 * (X ** 2 + Y ** 2 + Z ** 2)) / (2 * np.pi) ** 1.5
    h = 10.0 / n
    exact = 1.0 + 3.0 * np.sqrt(2.0 / np.pi)
    got = norm_1_1(f, (h, h, h))
    assert got == pytest.approx(exact, rel=0.01)
    # refinement improves the estimate
    n2 = 32
    edges2 = np.linspace(-5.0, 5.0, n2 + 1)
    c2 = 0.5 * (edges2[:-1] + edges2[1:])
    X2, Y2, Z2 = np.meshgrid(c2, c2, c2, indexing="ij")
    f2 = np.exp(-0.5 * (X2 ** 2 + Y2 ** 2 + Z2 ** 2)) / (2 * np.pi) ** 1.5
    got2 = norm_1_1(f2, (10.0 / n2,) * 3)
    assert abs(got - exact) < abs(got2 - exact)


def test_residual_free_streaming_small():
    """Zero field: the fluid velocity is conserved and the residual is
    dominated by the rebinning noise of the tube."""
    ens = rapidity_cap(400, r0=0.5, r_cap=0.02, seed=6)
    rep = residual(zero_field(), ens, tau=0.05, h_tau=5e-4)
    assert rep.norm() < 1e-6
    assert rep.diagnostics["eta_VV"] >= 1.0


def test_residual_delta_is_noise(dipole):
    """Delta ensemble: the exact residual vanishes, so the measured value
    must sit at the Richardson noise floor of the stencil."""
    ens = delta_ensemble(v=(2.0, 0.5, 0.0), n=4)
    rep = residual(dipole, ens, tau=0.05, h_tau=5e-4)
    floor = noise_floor(dipole, ens, tau=0.05, h_tau=5e-4)
    assert rep.norm() < 10.0 * max(floor, 1e-14)
    assert rep.norm() < 1e-6


def test_residual_scales_like_alpha_squared(dipole):
    norms = []
    for r_cap in (0.005, 0.01):
        ens = rapidity_cap(1000, r0=np.arccosh(10.0), r_cap=r_cap, seed=11,
                           axis=1, aspect=(0.0, 1.0, 1.0))
        norms.append(residual(dipole, ens, tau=0.02, h_tau=5e-4).norm())
    ratio = norms[1] / norms[0]
    assert 2.5 < ratio < 6.0


def test_normalized_residual_shape(dipole, small_cap):
    nr = residual(dipole, small_cap, tau=0.02, h_tau=5e-4).normalized
    assert nr.shape == (4,)
    assert np.all(np.isfinite(nr))


def test_bound_rhs_delta_is_zero(dipole):
    rep = bound_rhs(dipole, delta_ensemble(v=(1.0, 0.0, 0.0), n=5), tau=0.05)
    assert rep.total == 0.0
    assert rep.alpha == 0.0


@pytest.mark.parametrize("fn", [residual, bound_rhs])
def test_unknown_transport_name_raises(dipole, small_cap, fn):
    """Any name but "kinetic" and "averaged" is refused, not run as the
    kinetic transport."""
    with pytest.raises(ValueError, match="unknown transport 'avg'"):
        fn(dipole, small_cap, tau=0.02, transport="avg")


def test_bound_dominates_averaged_residual(dipole):
    """The closure-error budget must sit above the measured fluid residual
    of the averaged transport."""
    ens = rapidity_cap(1000, r0=np.arccosh(10.0), r_cap=0.005, seed=11,
                       axis=1, aspect=(0.0, 1.0, 1.0))
    res = residual(dipole, ens, tau=0.05, h_tau=5e-4,
                   transport="averaged").norm()
    rep = bound_rhs(dipole, ens, tau=0.05, transport="averaged")
    assert rep.alpha > 0
    assert rep.excluded == 0
    assert res <= rep.total
    assert rep.bound > 0 and rep.y0_factor == pytest.approx(1.0, abs=0.05)


def test_residual_refuses_a_stencil_before_tau_zero(dipole):
    """tau < h_tau puts tau - h_tau before the start of the transport.  The
    nearest slice, tau = 0, would make an off-centre stencil whose residual
    is five orders above the centred one at tau = 0.05."""
    cap = rapidity_cap(200, r0=float(np.arccosh(10.0)), r_cap=0.005, seed=11,
                       axis=1, aspect=(0.0, 1.0, 1.0))
    assert residual(dipole, cap, tau=0.05).norm() < 1e-4
    with pytest.raises(ValueError, match="outside"):
        residual(dipole, cap, tau=5e-4)
    with pytest.raises(ValueError, match="outside"):
        bound_rhs(make_preset("normal-quad+dipole", b0=1.0, b1=0.4), cap,
                  tau=5e-4)
