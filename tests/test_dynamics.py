import numpy as np
import pytest
from scipy.linalg import expm

from avbeam.connections import (LorentzConnection, TableConnection,
                                averaged_table)
from avbeam.distribution import delta_ensemble, lift, rapidity_cap
from avbeam.dynamics import (IntegratorConfig, TransportedMoments,
                             liouville_residual, push_averaged_transported,
                             push_connection, push_lorentz, to_lab_time,
                             transport_ensemble, transport_ensemble_averaged)
from avbeam.fields import make_preset
from avbeam.geometry import minkowski


def gyro_initial(gamma=5.0):
    """Unit velocity with y^0 = gamma, transverse speed in the (1,2) plane."""
    return np.array([gamma, np.sqrt(gamma ** 2 - 1.0), 0.0, 0.0])


def test_gyromotion_closed_form():
    """Constant B along axis 3: y rotates in the (1,2) plane at proper rate
    b, the orbit is a circle of radius sqrt(gamma^2-1)/b, lab period
    2 pi gamma / b."""
    b, gamma = 1.0, 5.0
    field = make_preset("constant-B", b=b)
    y0 = gyro_initial(gamma)
    tau_p = 2.0 * np.pi / b
    rec = push_lorentz(field, np.zeros(4), y0, (0.0, tau_p),
                       IntegratorConfig(step=1e-3))
    # velocity returns to the start after one proper period
    assert np.max(np.abs(rec.y[-1] - y0)) < 1e-6
    # orbit radius
    center = rec.x[0, 1:3] + np.array([0.0, np.sqrt(gamma ** 2 - 1) / b])
    r = np.linalg.norm(rec.x[:, 1:3] - center, axis=1)
    r_exact = np.sqrt(gamma ** 2 - 1.0) / b
    assert np.max(np.abs(r - r_exact)) / r_exact < 1e-6
    # lab period = gamma * proper period
    assert rec.x[-1, 0] == pytest.approx(gamma * tau_p, rel=1e-9)


def test_constant_e_hyperbolic_motion():
    """Pure electric field from rest: y^0 = cosh(e tau), y^1 = sinh(e tau)."""
    e = 0.7
    field = make_preset("constant-E", e=e, axis=1)
    rec = push_lorentz(field, np.zeros(4), lift([0.0, 0.0, 0.0]), (0.0, 2.0),
                       IntegratorConfig(step=1e-3))
    tau = rec.s
    assert np.max(np.abs(rec.y[:, 0] - np.cosh(e * tau))) < 1e-10
    assert np.max(np.abs(rec.y[:, 1] - np.sinh(e * tau))) < 1e-10
    assert np.max(np.abs(rec.x[:, 1] - (np.cosh(e * tau) - 1.0) / e)) < 1e-10


def test_rk45_matches_rk4():
    field = make_preset("constant-B", b=1.0)
    y0 = gyro_initial(3.0)
    r4 = push_lorentz(field, np.zeros(4), y0, (0.0, 1.0),
                      IntegratorConfig(step=1e-3))
    r45 = push_lorentz(field, np.zeros(4), y0, (0.0, 1.0),
                       IntegratorConfig(method="rk45", tol=1e-11))
    x4, y4 = r4.state(1.0)
    x45, y45 = r45.state(1.0)
    assert np.max(np.abs(x4 - x45)) < 1e-7
    assert np.max(np.abs(y4 - y45)) < 1e-7


def test_norm_preserved_and_drift_reported():
    field = make_preset("normal-dipole", b0=1.0)
    y0 = gyro_initial(10.0)
    rec = push_lorentz(field, np.zeros(4), y0, (0.0, 5.0),
                       IntegratorConfig(step=1e-3))
    assert np.max(np.abs(minkowski(rec.y, rec.y) - 1.0)) < 1e-12
    assert rec.stats["max_drift"] < 1e-12
    off = push_lorentz(field, np.zeros(4), y0, (0.0, 5.0),
                       IntegratorConfig(step=1e-3, renormalize=False))
    assert off.stats["max_drift"] < 1e-9  # rk4 drift is tiny but nonzero
    assert off.stats["max_drift"] > 0.0


@pytest.mark.parametrize("kw", [dict(step=-1e-3), dict(step=0.0),
                                dict(method="rk4", step=float("nan")),
                                dict(method="euler"), dict(method="RK4")])
def test_integrator_config_rejects_bad_step_and_method(kw):
    with pytest.raises(ValueError):
        IntegratorConfig(**kw)


def test_rk45_reports_drift_before_projection():
    """rk45 projects its saved states after the solve; max_drift is the
    drift of the solve, not the rounding left after that projection."""
    field = make_preset("constant-B", b=1.0)
    cfg = IntegratorConfig(method="rk45", tol=1e-6, renormalize=True)
    rec = push_lorentz(field, np.zeros(4), gyro_initial(5.0), (0.0, 50.0), cfg)
    assert rec.stats["max_drift"] >= 1e-5
    assert np.max(np.abs(minkowski(rec.y, rec.y) - 1.0)) < 1e-12


def test_push_connection_zero_table_is_straight_line():
    conn = TableConnection(np.zeros((4, 4, 4)))
    y0 = lift([0.3, -0.1, 0.2])
    rec = push_connection(conn, np.zeros(4), y0, (0.0, 2.0),
                          IntegratorConfig(step=1e-2))
    assert np.allclose(rec.y, y0, atol=1e-13)
    assert np.allclose(rec.x, np.outer(rec.s, y0), atol=1e-12)


def test_push_connection_lorentz_equals_force_integration():
    field = make_preset("normal-dipole", b0=1.0)
    y0 = gyro_initial(4.0)
    cfg = IntegratorConfig(step=1e-3, renormalize=False)
    ra = push_lorentz(field, np.zeros(4), y0, (0.0, 1.0), cfg)
    rb = push_connection(LorentzConnection(field), np.zeros(4), y0,
                         (0.0, 1.0), cfg)
    assert np.max(np.abs(ra.y - rb.y)) < 1e-9
    assert np.max(np.abs(ra.x - rb.x)) < 1e-9


def test_to_lab_time_resampling():
    field = make_preset("constant-B", b=1.0)
    y0 = gyro_initial(5.0)
    rec = push_lorentz(field, np.zeros(4), y0, (0.0, 2.0),
                       IntegratorConfig(step=1e-3))
    lab = to_lab_time(rec, np.linspace(0.0, 9.0, 10))
    assert lab.kind == "lab"
    # closed form: x^0 = gamma tau, y rotates at rate b in proper time
    taus = lab.s / 5.0
    assert np.max(np.abs(lab.y[:, 0] - 5.0)) < 1e-8
    expect_y1 = np.sqrt(24.0) * np.cos(taus)
    assert np.max(np.abs(lab.y[:, 1] - expect_y1)) < 1e-7


def test_transport_matches_single_particle():
    field = make_preset("normal-dipole", b0=1.0)
    ens = rapidity_cap(5, r0=1.0, r_cap=0.1, seed=8)
    taus, hist = transport_ensemble(field, ens, (0.0, 1.0),
                                    IntegratorConfig(step=1e-3))
    assert np.array_equal(hist[0].w, ens.w)
    for a in range(len(ens)):
        rec = push_lorentz(field, ens.x[a], ens.y[a], (0.0, 1.0),
                           IntegratorConfig(step=1e-3))
        assert np.max(np.abs(hist[-1].y[a] - rec.y[-1])) < 1e-12
        assert np.max(np.abs(hist[-1].x[a] - rec.x[-1])) < 1e-12


def test_transport_lab_time_slices():
    field = make_preset("constant-B", b=1.0)
    ens = rapidity_cap(4, r0=1.5, r_cap=0.05, seed=2)
    times = np.array([0.5, 1.0])
    got, slices = transport_ensemble(field, ens, (0.0, 1.5),
                                     IntegratorConfig(step=1e-3), times)
    assert np.array_equal(got, times)
    for t, sl in zip(times, slices):
        assert np.max(np.abs(sl.x[:, 0] - t)) < 1e-10


def test_transported_moments_match_ensemble():
    """Closed moment flow (matrix exponential) == moments of the brute-force
    transported ensemble, in a uniform field."""
    field = make_preset("normal-dipole", b0=1.0)
    ens = rapidity_cap(200, r0=1.0, r_cap=0.1, seed=5)
    tm = TransportedMoments(field, ens.moments())
    _, hist = transport_ensemble(field, ens, (0.0, 0.8),
                                 IntegratorConfig(step=1e-3,
                                                  renormalize=False))
    ms = hist[-1].moments()
    mt = tm.at_tau(0.8)
    assert np.max(np.abs(ms.mean - mt.mean)) < 1e-10
    assert np.max(np.abs(ms.second - mt.second)) < 1e-10
    assert np.max(np.abs(ms.third - mt.third)) < 1e-10


def test_averaged_transport_delta_coincides_with_lorentz():
    field = make_preset("normal-dipole", b0=1.0)
    ens = delta_ensemble(v=(2.0, 0.0, 0.0), n=3)
    cfg = IntegratorConfig(step=1e-3)
    _, ha = transport_ensemble_averaged(field, ens, (0.0, 1.0), cfg,
                                        moments="self")
    _, hl = transport_ensemble(field, ens, (0.0, 1.0), cfg)
    assert np.max(np.abs(ha[-1].y - hl[-1].y)) < 1e-10
    assert np.max(np.abs(ha[-1].x - hl[-1].x)) < 1e-10


def test_push_averaged_transported_delta_twin():
    field = make_preset("normal-dipole", b0=1.0)
    y0 = gyro_initial(5.0)
    cfg = IntegratorConfig(step=1e-3)
    ra = push_averaged_transported(field, np.zeros(4), y0,
                                   delta_ensemble(
                                       v=(np.sqrt(24.0), 0, 0)).moments(),
                                   (0.0, 1.0), cfg)
    rl = push_lorentz(field, np.zeros(4), y0, (0.0, 1.0), cfg)
    assert np.max(np.abs(ra.x - rl.x)) < 1e-10
    assert np.max(np.abs(ra.y - rl.y)) < 1e-10


def test_liouville_residual_oracles():
    field = make_preset("normal-dipole", b0=1.0)
    x = np.array([0.1, 0.2, -0.3, 0.4])
    y = lift([0.5, -0.2, 0.1])
    # constants along the flow
    assert abs(liouville_residual(lambda x, y: 1.0, field, x, y)) < 1e-12
    # eta(y,y) is flow-invariant (F antisymmetric)
    f = lambda x, y: (y[0] ** 2 - y[1] ** 2 - y[2] ** 2 - y[3] ** 2) ** 2
    assert abs(liouville_residual(f, field, x, y)) < 1e-8
    # y^1 is not invariant under a dipole rotation
    assert abs(liouville_residual(lambda x, y: y[1], field, x, y)) > 0.1


@pytest.mark.parametrize("preset, kw", [("normal-dipole", {"b0": 1.0}),
                                        ("normal-quad+dipole", {})])
@pytest.mark.parametrize("bunch", ["cap", "delta"])
def test_transported_table_matches_einsum_reference(preset, kw, bunch):
    """The averaged spray of the transported moments, built by matrix
    products, equals the einsum form of the transport and of the table
    (docstring of averaged_table), off shell too."""
    field = make_preset(preset, **kw)
    if bunch == "cap":
        ens = rapidity_cap(300, r0=1.2, r_cap=0.1, seed=4)
    else:
        ens = delta_ensemble(v=(1.5, 0.4, -0.2), n=3)
    tm = TransportedMoments(field, ens.moments())
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    eta = np.diag(signs)
    rng = np.random.default_rng(7)
    for s in (0.0, 0.4, 1.3):
        x = 0.2 * rng.normal(size=4)
        y = 1.1 * ens.y[1] + 0.05 * rng.normal(size=4)
        assert abs(minkowski(y, y) - 1.0) > 1e-2
        R = expm(tm.F * s)
        m = R @ tm.m0.mean
        Q = np.einsum("ma,sb,lc,abc->msl", R, R, R, tm.m0.third)
        Fm = field.mixed(x)
        ref = -0.5 * (np.einsum("ij,k->ijk", Fm, signs * m)
                      + np.einsum("ik,j->ijk", Fm, signs * m)
                      + np.einsum("im,mjk->ijk", Fm,
                                  np.einsum("m,jk->mjk", m, eta)
                                  - np.einsum("msl,s,l->msl", Q, signs,
                                              signs)))
        want = -np.einsum("ijk,j,k->i", ref, y, y) / np.sqrt(minkowski(y, y))
        table = averaged_table(field, x, tm.at_tau(s))
        got = -((table @ y) @ y) / np.sqrt(minkowski(y, y))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(table, np.transpose(table, (0, 2, 1)))


def test_stage_rotation_recurrence_matches_expm():
    field = make_preset("normal-dipole", b0=1.0)
    tm = TransportedMoments(field, rapidity_cap(20, r0=1.0, r_cap=0.1,
                                                seed=1).moments())
    s0, h = 0.25, 5e-3
    tm.on_stage_grid(s0, h)
    for k in range(20001):
        s = s0 + k * 0.5 * h
        R = tm.rotation(s)
        assert tm.rotation(s) is R       # repeated stage: no new step
        if k % 2500 == 0:
            exact = expm(tm.F * s)
            assert np.max(np.abs(R - exact)) <= 1e-11 * np.max(np.abs(exact))
    with pytest.raises(ValueError):
        tm.rotation(s + 2.0 * h)


def test_push_averaged_transported_rk45_matches_rk4():
    field = make_preset("normal-dipole", b0=1.0)
    ens = rapidity_cap(200, r0=1.5, r_cap=0.05, seed=3)
    x0, y0 = np.zeros(4), ens.y[0]
    r4 = push_averaged_transported(field, x0, y0, ens.moments(), (0.0, 1.0),
                                   IntegratorConfig(step=1e-3))
    r45 = push_averaged_transported(field, x0, y0, ens.moments(), (0.0, 1.0),
                                    IntegratorConfig(method="rk45", tol=1e-11))
    assert np.max(np.abs(r4.x[-1] - r45.x[-1])) < 1e-8
    assert np.max(np.abs(r4.y[-1] - r45.y[-1])) < 1e-8
