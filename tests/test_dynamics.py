import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.linalg import expm

from avbeam.connections import (LorentzConnection, TableConnection,
                                averaged_table)
from avbeam import dynamics
from avbeam.distribution import Ensemble, delta_ensemble, lift, rapidity_cap
from avbeam.dynamics import (IntegratorConfig, TrajectoryRecord,
                             TransportedMoments, _integrate, history_at,
                             liouville_residual, push_averaged_transported,
                             push_connection, push_lorentz, to_lab_time,
                             transport_ensemble, transport_ensemble_averaged)
from avbeam.fields import FaradayField, make_preset
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


@pytest.mark.parametrize("kind", ["normal-quad+dipole", "quad45+dipole"])
def test_affine_batched_transport_matches_per_sample_loop(kind):
    """The batched affine field against the same field evaluated sample by
    sample (field.mixed(x) @ y), on a bunch spread in position too."""
    field = make_preset(kind, b0=1.0, b1=0.4)
    looped = FaradayField(field.lowered, gradient=field.gradient_lowered,
                          name="per-sample copy")
    assert field.affine and not looped.affine
    cap = rapidity_cap(40, r0=1.0, r_cap=0.2, seed=4, axis=1)
    x = np.random.default_rng(9).normal(scale=0.5, size=(40, 4))
    x[:, 0] = 0.0
    ens = cap.with_state(x, cap.y)
    cfg = IntegratorConfig(step=1e-2)
    _, batched = transport_ensemble(field, ens, (0.0, 1.0), cfg)
    _, loop = transport_ensemble(looped, ens, (0.0, 1.0), cfg)
    for got, want in ((batched[-1].x, loop[-1].x), (batched[-1].y, loop[-1].y)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_record_state_reuses_its_interpolants():
    """Repeated state() calls give the bits of a fresh interpolant, and the
    cached interpolants stay out of repr and equality."""
    field = make_preset("normal-quad+dipole", b0=1.0, b1=0.4)
    rec = push_lorentz(field, np.zeros(4), gyro_initial(3.0), (0.0, 0.5),
                       IntegratorConfig(step=1e-2))
    taus = np.array([0.0, 0.1234, 0.25, 0.4999])
    fresh = (PchipInterpolator(rec.s, rec.x, axis=0)(taus),
             PchipInterpolator(rec.s, rec.y, axis=0)(taus))
    copy = TrajectoryRecord(rec.s, rec.x, rec.y, rec.kind, rec.stats)
    for _ in range(3):
        for got, want in zip(rec.state(taus), fresh):
            assert np.array_equal(got, want)
    x1, y1 = rec.state(0.1234)
    assert np.array_equal(x1, fresh[0][1]) and np.array_equal(y1, fresh[1][1])
    assert repr(rec) == repr(copy)
    assert "PchipInterpolator" not in repr(rec)


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


def test_averaged_transport_of_a_cap_stays_on_shell_to_t300():
    """The averaged samples follow the degree-1 spray, so an E = 10 cap stays
    near the hyperboloid out to lab time 300; the degree-2 spray
    -<Gamma>(y, y) lagged the moments and overflowed near t = 226."""
    field = make_preset("normal-dipole", b0=1.0)
    ens = rapidity_cap(64, r0=float(np.arccosh(10.0)), r_cap=0.01, seed=11,
                       axis=1, aspect=(0.0, 1.0, 1.0))
    _, hist = transport_ensemble_averaged(field, ens, (0.0, 30.0),
                                          IntegratorConfig(step=5e-3))
    assert np.min(hist[-1].x[:, 0]) > 300.0
    drift = max(np.max(np.abs(minkowski(h.y, h.y) - 1.0)) for h in hist)
    assert drift < 1e-3


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


# ---------------------------------------------------------------------------
# The one integrator against a textbook RK4
# ---------------------------------------------------------------------------

SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def textbook_rk4(rhs, state0, span, step, project=False):
    """Classical RK4 on the even grid of n = round(span / step) steps,
    optionally projecting components 4:8 to eta(y, y) = 1 after each step.
    Keeps going through non-finite states."""
    s0, s1 = span
    n = max(1, int(round((s1 - s0) / step)))
    h = (s1 - s0) / n
    states = [np.array(state0, dtype=float)]
    for i in range(n):
        s, u = s0 + i * h, states[-1]
        k1 = rhs(s, u)
        k2 = rhs(s + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(s + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if project:
            y = u[..., 4:]
            u = np.concatenate(
                [u[..., :4],
                 y / np.sqrt(np.sum(y * y * SIGNS, axis=-1))[..., None]],
                axis=-1)
        states.append(u)
    return s0 + h * np.arange(n + 1), np.array(states)


QUAD_DIPOLE_F0 = make_preset("normal-quad+dipole", b0=1.0, b1=0.4).mixed0


def lorentz_like_rhs(s, st):
    """x' = y, y' = F y + a small time- and position-dependent push."""
    x, y = st[..., :4], st[..., 4:]
    push = 0.05 * np.sin(s) * np.tanh(x[..., ::-1])
    return np.concatenate([y, y @ QUAD_DIPOLE_F0.T + push], axis=-1)


@pytest.mark.parametrize("case", ["orbit", "ensemble", "ensemble-projected"])
def test_integrator_is_textbook_rk4(case):
    ens = rapidity_cap(6, r0=1.0, r_cap=0.2, seed=2)
    state0 = np.concatenate([ens.x + 0.1, ens.y], axis=1)
    if case == "orbit":
        state0 = state0[0]
    project = case == "ensemble-projected"
    span, cfg = (0.25, 1.5), IntegratorConfig(step=1e-2)
    s, hist, drift = _integrate(lorentz_like_rhs, state0, span, cfg, project)
    s_ref, hist_ref = textbook_rk4(lorentz_like_rhs, state0, span, 1e-2,
                                   project)
    assert hist.shape == hist_ref.shape == (126,) + state0.shape
    assert np.array_equal(s, s_ref)
    assert np.array_equal(hist, hist_ref)
    assert drift is None


@pytest.mark.parametrize("shape", [(2,), (4, 2)])
def test_integrator_names_the_nonfinite_step_and_sample(shape):
    """u' = u^2 from u = 1 blows up at s = 1; in the ensemble only sample 2
    starts there, the others sit at the fixed point 0."""

    def rhs(_s, u):
        return u * u

    u0 = np.zeros(shape)
    u0[(0,) if len(shape) == 1 else (2, 0)] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        _, ref = textbook_rk4(rhs, u0, (0.0, 2.0), 1e-2)
        first = int(np.argmax(~np.isfinite(ref).reshape(len(ref), -1)
                              .all(axis=1))) - 1
        with pytest.raises(FloatingPointError) as info:
            _integrate(rhs, u0, (0.0, 2.0), IntegratorConfig(step=1e-2))
    want = f"non-finite state at step {first}"
    if len(shape) == 2:
        want += ", sample 2"
    assert str(info.value) == want


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_reversed_or_empty_span_raises(method):
    """A span that does not increase is refused, not integrated backwards
    in one step: by the integrator and by the exact uniform transport."""
    field = make_preset("constant-B", b=1.0)
    cfg = IntegratorConfig(method=method, step=1e-3)
    ens = delta_ensemble(v=(1.0, 0.0, 0.0), n=2)
    for span in ((0.0, -1.0), (0.0, 0.0), (1.0, 0.5)):
        with pytest.raises(ValueError, match="span"):
            push_lorentz(field, np.zeros(4), gyro_initial(5.0), span, cfg)
        with pytest.raises(ValueError, match="span"):
            transport_ensemble(field, ens, span, cfg)


def test_transport_ensemble_honours_rk45():
    field = make_preset("normal-quad+dipole", b0=1.0, b1=0.4)
    ens = rapidity_cap(8, r0=1.0, r_cap=0.1, seed=6, axis=1)
    t4, h4 = transport_ensemble(field, ens, (0.0, 1.0),
                                IntegratorConfig(step=1e-3))
    t45, h45 = transport_ensemble(field, ens, (0.0, 1.0),
                                  IntegratorConfig(method="rk45", tol=1e-11))
    assert len(t45) != len(t4) and t45[-1] == 1.0
    assert np.max(np.abs(h45[-1].x - h4[-1].x)) < 1e-8
    assert np.max(np.abs(h45[-1].y - h4[-1].y)) < 1e-8


def test_transport_ensemble_averaged_honours_rk45():
    field = make_preset("normal-dipole", b0=1.0)
    ens = rapidity_cap(8, r0=1.0, r_cap=0.1, seed=6, axis=1)
    t4, h4 = transport_ensemble_averaged(field, ens, (0.0, 1.0),
                                         IntegratorConfig(step=1e-3))
    t45, h45 = transport_ensemble_averaged(
        field, ens, (0.0, 1.0), IntegratorConfig(method="rk45", tol=1e-11))
    assert len(t45) != len(t4) and t45[-1] == 1.0
    assert np.max(np.abs(h45[-1].x - h4[-1].x)) < 1e-8
    assert np.max(np.abs(h45[-1].y - h4[-1].y)) < 1e-8


# ---------------------------------------------------------------------------
# Exact kinetic transport in a uniform field
# ---------------------------------------------------------------------------

def spread_cap(n=40):
    """An E = 10 dipole cap spread in position as well as in velocity."""
    cap = rapidity_cap(n, r0=float(np.arccosh(10.0)), r_cap=0.05, seed=4,
                       axis=1, aspect=(0.0, 1.0, 1.0))
    x = np.random.default_rng(9).normal(scale=0.5, size=(n, 4))
    x[:, 0] = 0.0
    return cap.with_state(x, cap.y)


def non_affine_copy(field):
    """The same field evaluated sample by sample through RK4."""
    copy = FaradayField(field.lowered, gradient=field.gradient_lowered,
                        name="per-sample copy")
    assert field.uniform and not copy.affine
    return copy


def test_uniform_transport_matches_rk4():
    field = make_preset("normal-dipole", b0=1.0)
    ens = spread_cap()
    cfg = IntegratorConfig(step=1e-3)
    taus, exact = transport_ensemble(field, ens, (0.0, 1.0), cfg)
    taus_rk, rk = transport_ensemble(non_affine_copy(field), ens, (0.0, 1.0),
                                     cfg)
    assert np.array_equal(taus, taus_rk) and len(exact) == len(rk) == 1001
    for i in (0, 1, 500, -1):
        for got, want in ((exact[i].x, rk[i].x), (exact[i].y, rk[i].y)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.array_equal(exact[0].x, ens.x)
    assert np.array_equal(exact[0].y, ens.y)


def test_uniform_transport_stays_on_the_hyperboloid():
    """R(tau) is a Lorentz transformation to rounding; no projection is
    needed (the E = 10 samples start 2.5e-14 off the shell)."""
    field = make_preset("normal-dipole", b0=1.0)
    _, hist = transport_ensemble(field, spread_cap(), (0.0, 1.0),
                                 IntegratorConfig(step=1e-2))
    drift = max(np.max(np.abs(minkowski(h.y, h.y) - 1.0)) for h in hist)
    assert drift < 1e-13


def test_uniform_transport_takes_no_rk_step(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("an RK step was taken")

    monkeypatch.setattr(dynamics, "_integrate", refuse)
    field = make_preset("normal-dipole", b0=1.0)
    ens = spread_cap(8)
    taus, hist = transport_ensemble(field, ens, (0.0, 0.5))
    assert len(hist) == len(taus) == 501
    _, sliced = transport_ensemble(field, ens, (0.0, 0.5), None, [0.5, 1.0])
    assert len(sliced) == 2
    with pytest.raises(AssertionError):
        transport_ensemble(non_affine_copy(field), ens, (0.0, 0.5))


def test_uniform_transport_ignores_method_and_renormalize():
    """method and renormalize are moot in a uniform field: an rk45 config
    gets the exact states on the grid of its step."""
    field = make_preset("normal-dipole", b0=1.0)
    ens = spread_cap(8)
    want_t, want = transport_ensemble(field, ens, (0.0, 1.0),
                                      IntegratorConfig(step=1e-2))
    for cfg in (IntegratorConfig(method="rk45", tol=1e-6, step=1e-2),
                IntegratorConfig(step=1e-2, renormalize=False)):
        got_t, got = transport_ensemble(field, ens, (0.0, 1.0), cfg)
        assert np.array_equal(got_t, want_t)
        for g, w in zip(got, want):
            assert np.array_equal(g.x, w.x) and np.array_equal(g.y, w.y)


def test_uniform_transport_lab_slices_match_rk4():
    field = make_preset("normal-dipole", b0=1.0)
    ens = spread_cap()
    cfg = IntegratorConfig(step=1e-3)
    times = np.linspace(0.0, 9.0, 7)
    got_t, exact = transport_ensemble(field, ens, (0.0, 1.0), cfg, times)
    _, rk = transport_ensemble(non_affine_copy(field), ens, (0.0, 1.0), cfg,
                               times)
    assert np.array_equal(got_t, times) and len(exact) == 7
    for e, r in zip(exact, rk):
        assert np.max(np.abs(e.x[:, 0] - r.x[:, 0])) < 1e-12
        for got, want in ((e.x, r.x), (e.y, r.y)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Ensemble histories
# ---------------------------------------------------------------------------

def test_history_is_the_eager_list_built_on_demand(monkeypatch):
    """Every element of the lazy history has the bits of the list of
    copied ensembles built from the integrated states."""
    field = make_preset("normal-quad+dipole", b0=1.0, b1=0.4)
    cap = spread_cap(12)
    w = np.linspace(1.0, 2.0, len(cap))
    ens = Ensemble(cap.x, cap.y, w, metadata={"label": "probe"})
    kept = {}
    integrate = dynamics._integrate

    def keep(*args, **kwargs):
        kept["out"] = integrate(*args, **kwargs)
        return kept["out"]

    monkeypatch.setattr(dynamics, "_integrate", keep)
    taus, hist = transport_ensemble(field, ens, (0.0, 0.2),
                                    IntegratorConfig(step=1e-2))
    eager = [ens.with_state(H[:, :4], H[:, 4:]) for H in kept["out"][1]]
    assert np.array_equal(taus, kept["out"][0])
    assert len(hist) == len(eager) == 21
    n = 0
    for got, want in zip(hist, eager):
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
        n += 1
    assert n == 21 and len(list(hist)) == 21
    last = hist[-1]
    assert np.array_equal(last.x, eager[-1].x)
    assert np.array_equal(last.y, eager[-1].y)
    assert np.array_equal(hist[-21].y, eager[0].y)
    assert np.array_equal(last.w, w) and last.metadata == {"label": "probe"}
    assert np.array_equal(last.observer, ens.observer)
    for bad in (21, -22):
        with pytest.raises(IndexError):
            hist[bad]
    with pytest.raises(TypeError):
        hist[1:3]


def test_history_at_refuses_tau_outside_the_span():
    field = make_preset("normal-dipole", b0=1.0)
    taus, hist = transport_ensemble(field, spread_cap(4), (0.0, 0.3),
                                    IntegratorConfig(step=0.1))
    assert np.array_equal(history_at(taus, hist, 0.3 + 1e-15).y, hist[-1].y)
    assert np.array_equal(history_at(taus, hist, 0.12).y, hist[1].y)
    for tau in (-1e-3, 0.301):
        with pytest.raises(ValueError, match="outside"):
            history_at(taus, hist, tau)
