import numpy as np
import pytest

from avbeam.analysis import (compare_trajectories, distribution_divergence,
                             fit_scaling, pick_support_velocity,
                             support_index, validity_horizon)
from avbeam.distribution import delta_ensemble, lift, rapidity_cap
from avbeam.dynamics import IntegratorConfig
from avbeam.fields import make_preset


def test_fit_scaling_recovers_power_law():
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    fit = fit_scaling([(x, 3.0 * x ** 2.5) for x in xs], param="alpha")
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.param == "alpha"


def test_fit_scaling_noisy_r2_below_one(rng):
    xs = np.geomspace(0.1, 1.0, 8)
    ys = 2.0 * xs ** 1.5 * np.exp(rng.normal(scale=0.05, size=8))
    fit = fit_scaling(list(zip(xs, ys)))
    assert 1.2 < fit.slope < 1.8
    assert fit.r2 < 1.0


def test_fit_scaling_validation():
    with pytest.raises(ValueError):
        fit_scaling([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    with pytest.raises(ValueError):
        fit_scaling([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0), (4.0, 4.0)])


def test_validity_horizon_hand_values():
    """Worked example: E0=100, alpha=0.01, |F|=1, K=1 gives a velocity
    horizon of 1e4; the other horizons follow the closed forms."""
    rep = validity_horizon(100.0, 0.01, 1.0, beam_length=1.0,
                           constants={"K": 1.0})
    assert rep.t_max_velocity == pytest.approx(1e4, rel=1e-12)
    assert rep.l_max == pytest.approx(4.0)              # A / |F|
    assert rep.t_max_position == pytest.approx(
        np.sqrt(4.0 / 4.0) * (100.0 / 0.01))             # sqrt(L/C1) E/alpha
    assert rep.weak_flag                                 # 1.0 <= 4.0


def test_validity_horizon_scalings():
    a = validity_horizon(10.0, 0.01, 1.0, 1.0)
    b = validity_horizon(20.0, 0.01, 1.0, 1.0)
    c = validity_horizon(10.0, 0.02, 1.0, 1.0)
    d = validity_horizon(10.0, 0.01, 4.0, 2.0)
    assert b.t_max_velocity == pytest.approx(2 * a.t_max_velocity)
    assert c.t_max_velocity == pytest.approx(a.t_max_velocity / 2)
    assert d.t_max_velocity == pytest.approx(a.t_max_velocity / 4)
    assert d.t_max_position == pytest.approx(a.t_max_position / 4)
    assert not d.weak_flag  # l_max = 4/4 = 1.0 < beam length 2.0
    with pytest.raises(ValueError):
        validity_horizon(-1.0, 0.01, 1.0, 1.0)


def test_pick_support_velocity(small_cap):
    m = small_cap.moments().mean
    far = pick_support_velocity(small_cap, "far")
    near = pick_support_velocity(small_cap, "near")
    dist = np.linalg.norm(small_cap.y - m, axis=1)
    assert np.linalg.norm(far - m) == pytest.approx(dist.max())
    assert np.linalg.norm(near - m) == pytest.approx(dist.min())
    assert any(np.array_equal(far, ya) for ya in small_cap.y)
    assert np.array_equal(far, small_cap.y[support_index(small_cap, "far")])


def test_compare_delta_trajectories_coincide(dipole):
    """A delta ensemble makes the averaged flow identical to the Lorentz
    flow: separations vanish to integrator precision."""
    ens = delta_ensemble(v=(3.0, 0.0, 0.0), n=4)
    rep = compare_trajectories(dipole, ens, t_end=20.0,
                               cfg=IntegratorConfig(step=1e-3))
    assert np.max(rep.pos_sep) < 1e-10
    assert np.max(rep.vel_sep) < 1e-10
    assert rep.alpha == 0.0


def test_compare_averaged_twin_stays_finite_inside_horizon(dipole):
    """The averaged twin stays finite and within its separation budgets over
    a lab-time span well inside the position horizon of the E = 40 dipole
    benchmark."""
    ens = rapidity_cap(2000, r0=np.arccosh(40.0), r_cap=0.01, seed=11,
                       axis=1, aspect=(0.0, 1.0, 1.0))
    rep = compare_trajectories(dipole, ens, t_end=300.0,
                               cfg=IntegratorConfig(step=5e-3))
    horizon = validity_horizon(rep.energy, rep.alpha, rep.f_norm, 1.0)
    assert rep.times[-1] < horizon.t_max_position
    assert np.all(np.isfinite(rep.pos_sep))
    assert np.all(np.isfinite(rep.vel_sep))
    assert rep.within_bounds()


def test_compare_report_contents(dipole, bench_ensemble):
    rep = compare_trajectories(dipole, bench_ensemble, t_end=5.0, n_out=11,
                               cfg=IntegratorConfig(step=1e-3))
    assert rep.times[0] == 0.0 and rep.times[-1] == pytest.approx(5.0)
    assert rep.pos_sep.shape == (11,)
    assert rep.energy == pytest.approx(bench_ensemble.energy())
    assert rep.f_norm == pytest.approx(1.0)  # dipole b0=1 operator norm
    # budgets grow like t^2 (position) and t (velocity)
    assert rep.pos_bound[-1] / rep.pos_bound[1] == pytest.approx(100.0)
    assert rep.vel_bound[-1] / rep.vel_bound[1] == pytest.approx(10.0)
    assert rep.pos_sep[0] == 0.0
    assert np.max(rep.pos_sep) > 0.0
    assert "norm_drift_averaged" in rep.diagnostics
    # y^0 is constant in a magnetic field: the first span reaches t_end
    assert rep.diagnostics["horizon_retries"] == 0


def test_compare_counts_horizon_retries():
    """A point bunch decelerated by a constant E field (y^0 from sqrt(10)
    towards 1) covers lab time more slowly than its starting energy
    predicts: the proper-time span grows by 1.25 three times (x^0 reaches
    2.10, 2.41 and 2.75 before 3.15 >= t_end = 3)."""
    field = make_preset("constant-E", e=-1.0, axis=1)
    ens = delta_ensemble(v=(3.0, 0.0, 0.0), n=2)
    rep = compare_trajectories(field, ens, t_end=3.0, n_out=11,
                               cfg=IntegratorConfig(step=1e-3))
    assert rep.diagnostics["horizon_retries"] == 3
    assert rep.times[-1] == pytest.approx(3.0)
    assert np.max(rep.pos_sep) < 1e-10 and np.max(rep.vel_sep) < 1e-10


def test_compare_warns_outside_support(dipole, small_cap):
    with pytest.warns(UserWarning):
        compare_trajectories(dipole, small_cap,
                             y0=np.array([3.0, np.sqrt(8.0), 0.0, 0.0]),
                             t_end=0.5, n_out=5,
                             cfg=IntegratorConfig(step=1e-2))


def test_compare_names_the_support_when_the_averaged_twin_fails(dipole):
    """A start at E = 5 against a bunch at E = 10 drives the averaged twin
    across the light cone; the error says how far outside the support the
    start lies."""
    ens = rapidity_cap(200, r0=np.arccosh(10.0), r_cap=0.005, seed=11,
                       axis=1, aspect=(0.0, 1.0, 1.0))
    y0 = lift((np.sqrt(24.0), 0.0, 0.0))
    sup = np.min(np.linalg.norm(ens.y - y0, axis=1))
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="outside the support") \
            as err:
        compare_trajectories(dipole, ens, y0=y0, warn=False)
    msg = str(err.value)
    assert f"{sup:.6g}" in msg and f"alpha = {ens.alpha():.6g}" in msg
    assert "non-finite state" in msg


def test_distribution_divergence_zero_for_delta(dipole):
    ens = delta_ensemble(v=(2.0, 0.0, 0.0), n=3)
    ts, div = distribution_divergence(dipole, ens, t_end=2.0, n_out=5,
                                      cfg=IntegratorConfig(step=1e-3))
    assert div[0] < 1e-12
    assert np.max(div) < 1e-10


def test_distribution_divergence_grows(dipole, small_cap):
    ts, div = distribution_divergence(dipole, small_cap, t_end=2.0, n_out=5,
                                      cfg=IntegratorConfig(step=1e-3))
    assert div[0] < 1e-12
    assert div[-1] > div[1] > 0.0
