import numpy as np
import pytest

from avbeam.beamline import (averaged_offset, green, integrate_jacobi,
                             particular_solution, preset_system,
                             principal_solutions, HillSystem)
from avbeam.connections import LorentzConnection, TildeConnection
from avbeam.distribution import MomentSet, lift, rapidity_cap
from avbeam.dynamics import (IntegratorConfig, TrajectoryRecord, _integrate,
                             push_lorentz)
from avbeam.geometry import minkowski
from avbeam.fields import make_preset, zero_field

SPAN = (0.0, 2.0)
CFG = IntegratorConfig(step=1e-3)


def principal_errors(system, exact_C, exact_S):
    pp = principal_solutions(system, SPAN, CFG)
    return (np.max(np.abs(pp.C - exact_C(pp.s))),
            np.max(np.abs(pp.S - exact_S(pp.s))), pp)


def test_quadrupole_principal_closed_forms():
    sys3 = preset_system("quadrupole", b1=1.0)["xi3"]   # u'' + u = 0
    eC, eS, pp = principal_errors(sys3, np.cos, np.sin)
    assert eC < 1e-6 and eS < 1e-6
    assert np.max(np.abs(pp.wronskian() - 1.0)) < 1e-9
    # shipped closed form agrees with the integrated principal pair
    assert np.max(np.abs(sys3.closed_form(pp.s, 1.0, 0.0) - pp.C)) < 1e-6
    assert np.max(np.abs(sys3.closed_form(pp.s, 0.0, 1.0) - pp.S)) < 1e-6


def test_defocusing_mode_is_hyperbolic():
    sys1 = preset_system("quadrupole", b1=1.0)["xi1"]   # u'' - u = 0
    eC, eS, pp = principal_errors(sys1, np.cosh, np.sinh)
    assert eC < 1e-5 and eS < 1e-5
    assert np.max(np.abs(pp.wronskian() - 1.0)) < 1e-9


def test_dipole_preset_modes():
    d = preset_system("dipole", rho=2.0)
    assert d["xi1"].K == pytest.approx(-0.25)           # hyperbolic default
    assert preset_system("dipole", rho=2.0, sign=-1.0)["xi1"].K \
        == pytest.approx(0.25)
    # vertical drift: C = 1, S = tau
    eC, eS, _ = principal_errors(d["xi3"], lambda s: np.ones_like(s),
                                 lambda s: s)
    assert eC < 1e-9 and eS < 1e-9


def test_quad45_preset_k_values():
    q = preset_system("quad45", b1=0.5, rho=2.0)
    assert q["xi1"].K == pytest.approx(0.5 + 0.25)
    assert q["xi3"].K == pytest.approx(-0.5)
    assert preset_system("rf", gamma=5.0, e20=0.1, w_rf=2.0)["xi2"].K \
        == pytest.approx(-2.0)
    with pytest.raises(KeyError):
        preset_system("sextupole")


def test_damped_system_closed_form():
    sys2 = preset_system("constant-e", e2=0.8)["xi2"]   # u'' + 0.8 u' = 0
    pp = principal_solutions(sys2, SPAN, CFG)
    exact_S = (1.0 - np.exp(-0.8 * pp.s)) / 0.8
    assert np.max(np.abs(pp.S - exact_S)) < 1e-6
    assert np.max(np.abs(pp.C - 1.0)) < 1e-9
    assert np.max(np.abs(sys2.closed_form(pp.s, 0.0, 1.0) - exact_S)) < 1e-12
    # damped Wronskian decays like exp(-c tau)
    assert np.max(np.abs(pp.wronskian() - np.exp(-0.8 * pp.s))) < 1e-6


def test_green_function_structure():
    pp = principal_solutions(HillSystem(K=1.0), SPAN, CFG)
    G = green(pp)
    for tau, s in [(1.3, 0.4), (0.9, 0.9), (0.2, 1.7)]:
        assert G(tau, s) == pytest.approx(np.sin(tau - s), abs=1e-6)
        assert G(tau, s) == pytest.approx(-G(s, tau), abs=1e-12)
    assert abs(G(1.1, 1.1)) < 1e-12


def test_resonant_particular_solution():
    """u'' + u = cos(tau) resonates: P(tau) = tau sin(tau) / 2."""
    system = HillSystem(K=1.0, p=np.cos)
    pp = principal_solutions(system, SPAN, CFG)
    P = particular_solution(system, pp)
    taus = np.linspace(0.0, 2.0, 41)
    assert np.max(np.abs(P(taus) - 0.5 * taus * np.sin(taus))) < 1e-6


def test_constant_drive_particular_solution():
    """u'' + 2 u = 1 from rest: P = (1 - cos(sqrt(2) tau)) / 2."""
    system = HillSystem(K=2.0, p=1.0)
    pp = principal_solutions(system, SPAN, CFG)
    P = particular_solution(system, pp)
    taus = np.linspace(0.0, 2.0, 41)
    exact = (1.0 - np.cos(np.sqrt(2.0) * taus)) / 2.0
    assert np.max(np.abs(P(taus) - exact)) < 1e-6


def reference_orbit(field, gamma=3.0, span=(0.0, 1.0)):
    y0 = np.array([gamma, np.sqrt(gamma ** 2 - 1.0), 0.0, 0.0])
    return push_lorentz(field, np.zeros(4), y0, span,
                        IntegratorConfig(step=1e-3, renormalize=False)), y0


def test_jacobi_linearity(dipole):
    ref, _ = reference_orbit(dipole)
    conn = LorentzConnection(dipole)
    xi_a = np.array([0.0, 1.0, 0.0, 0.0])
    xi_b = np.array([0.0, 0.0, 1.0, 0.5])
    ra = integrate_jacobi(conn, ref, xi_a, np.zeros(4), (0.0, 1.0), CFG)
    rb = integrate_jacobi(conn, ref, np.zeros(4), xi_b, (0.0, 1.0), CFG)
    rc = integrate_jacobi(conn, ref, 2.0 * xi_a, 3.0 * xi_b, (0.0, 1.0), CFG)
    assert np.max(np.abs(rc.xi - 2.0 * ra.xi - 3.0 * rb.xi)) < 1e-8


def test_jacobi_matches_orbit_variation():
    """The deviation solution reproduces the central-difference variation of
    two neighbouring Lorentz orbits."""
    field = make_preset("normal-quad+dipole", b0=1.0, b1=0.4)
    ref, y0 = reference_orbit(field)
    conn = LorentzConnection(field)
    xi0 = np.array([0.0, 0.3, 0.1, 0.2])
    dxi0 = np.array([0.0, 0.0, 0.1, -0.2])   # eta(y0, dxi0) = 0
    rec = integrate_jacobi(conn, ref, xi0, dxi0, (0.0, 1.0), CFG)
    eps = 1e-5
    cfg = IntegratorConfig(step=1e-3, renormalize=False)
    rp = push_lorentz(field, eps * xi0, y0 + eps * dxi0, (0.0, 1.0), cfg)
    rm = push_lorentz(field, -eps * xi0, y0 - eps * dxi0, (0.0, 1.0), cfg)
    fd = (rp.x - rm.x) / (2.0 * eps)
    err = np.max(np.abs(rec.xi[-1] - fd[-1])) / np.max(np.abs(fd[-1]))
    assert err < 1e-3


def test_principal_pair_is_the_two_single_passes():
    """One pass over (C, S, C', S') gives the bits of two passes over
    (C, C') and (S, S')."""
    system = HillSystem(K=lambda s: 1.0 + 0.5 * np.sin(s), damping=0.3)
    pp = principal_solutions(system, SPAN, CFG)
    K, c = system.k_fn(), system.c_fn()

    def rhs(s, st):
        u, du = st
        return np.array([du, -c(s) * du - K(s) * u])

    sC, C, _ = _integrate(rhs, np.array([1.0, 0.0]), SPAN, CFG)
    sS, S, _ = _integrate(rhs, np.array([0.0, 1.0]), SPAN, CFG)
    assert np.array_equal(pp.s, sC) and np.array_equal(pp.s, sS)
    for got, want in ((pp.C, C[:, 0]), (pp.Cp, C[:, 1]),
                      (pp.S, S[:, 0]), (pp.Sp, S[:, 1])):
        assert np.array_equal(got, want)


RK45 = IntegratorConfig(method="rk45", tol=1e-11)


def test_principal_solutions_honour_rk45():
    system = HillSystem(K=lambda s: 1.0 + 0.5 * np.sin(s), damping=0.3)
    p4 = principal_solutions(system, SPAN, CFG)
    p45 = principal_solutions(system, SPAN, RK45)
    assert len(p45.s) != len(p4.s) and p45.s[-1] == SPAN[1]
    for a, b in ((p45.C, p4.C), (p45.S, p4.S), (p45.Cp, p4.Cp),
                 (p45.Sp, p4.Sp)):
        assert abs(a[-1] - b[-1]) < 1e-8


def test_integrate_jacobi_honours_rk45():
    field = make_preset("normal-quad+dipole", b0=1.0, b1=0.4)
    ref, _ = reference_orbit(field)
    conn = LorentzConnection(field)
    xi0 = np.array([0.0, 0.3, 0.1, 0.2])
    dxi0 = np.array([0.0, 0.0, 0.1, -0.2])
    r4 = integrate_jacobi(conn, ref, xi0, dxi0, (0.0, 1.0), CFG)
    r45 = integrate_jacobi(conn, ref, xi0, dxi0, (0.0, 1.0), RK45)
    assert len(r45.s) != len(r4.s) and r45.s[-1] == 1.0
    assert np.max(np.abs(r45.xi[-1] - r4.xi[-1])) < 1e-8
    assert np.max(np.abs(r45.dxi[-1] - r4.dxi[-1])) < 1e-8


class FiniteDifferenceLorentz:
    """The Lorentz connection under a generic kind, so that the deviation
    equation takes its finite-difference path."""

    kind = "berwald-generic"

    def __init__(self, field):
        self._conn = LorentzConnection(field)

    def coeffs(self, x, y):
        return self._conn.coeffs(x, y)


@pytest.mark.parametrize("kind, params, tol", [
    ("normal-quad+dipole", {"b0": 1.0, "b1": 0.4}, 1e-10),
    ("quad45+dipole", {"b0": 1.0, "b1": 0.4}, 1e-10),
    ("rf-cavity", {"e20": 0.5, "w_rf": 2.0}, 1e-7),
])
def test_closed_form_jacobi_matches_finite_differences(kind, params, tol):
    """Closed-form deviation equation against central differences of the
    connection, with eta(X', xi') != 0, on an on-shell and on an off-shell
    (eta(X', X') = 1.21) reference that moves along x^1 and x^2."""
    field = make_preset(kind, **params)
    y0 = np.array([3.0, 2.0, 2.0, 0.0])
    y0[0] = np.sqrt(1.0 + y0[1:] @ y0[1:])
    ref = push_lorentz(field, np.zeros(4), y0, (0.0, 0.6),
                       IntegratorConfig(step=1e-3, renormalize=False))
    off_shell = TrajectoryRecord(ref.s, ref.x, 1.1 * ref.y)
    xi0 = np.array([0.1, 0.3, -0.2, 0.2])
    dxi0 = np.array([0.5, 0.0, 0.1, -0.2])
    assert abs(minkowski(y0, dxi0)) > 1.0
    cfg = IntegratorConfig(step=5e-3)
    fd_conn = FiniteDifferenceLorentz(field)
    for rec in (ref, off_shell):
        want = integrate_jacobi(fd_conn, rec, xi0, dxi0, (0.0, 0.5), cfg)
        scale = np.max(np.abs(want.xi))
        for conn in (LorentzConnection(field), TildeConnection(field)):
            got = integrate_jacobi(conn, rec, xi0, dxi0, (0.0, 0.5), cfg)
            assert np.max(np.abs(got.xi - want.xi)) <= tol * scale


def delta_moments_along(ref):
    def ms(s):
        y = ref.state(s)[1]
        y = y / np.sqrt(y[0] ** 2 - y[1] ** 2 - y[2] ** 2 - y[3] ** 2)
        return MomentSet.delta(y)

    return ms


def test_offset_vanishes_for_delta_on_orbit(dipole):
    ref, _ = reference_orbit(dipole)
    rep = averaged_offset(dipole, ref, delta_moments_along(ref), (0.0, 1.0))
    assert np.max(np.abs(rep.off1)) < 1e-12
    assert np.max(np.abs(rep.off3)) < 1e-12


def test_offset_vanishes_without_field():
    field = zero_field()
    ref, _ = reference_orbit(field)
    ms = rapidity_cap(300, r0=1.0, r_cap=0.1, seed=3).moments()
    rep = averaged_offset(field, ref, ms, (0.0, 1.0))
    assert np.max(np.abs(rep.off1)) < 1e-14
    assert np.max(np.abs(rep.off3)) < 1e-14


def test_offset_grows_with_spread(dipole):
    ref, _ = reference_orbit(dipole, gamma=np.cosh(1.0))
    ends = []
    for r_cap in (0.05, 0.1, 0.2):
        ms = rapidity_cap(4000, r0=1.0, r_cap=r_cap, seed=7, axis=1).moments()
        rep = averaged_offset(dipole, ref, ms, (0.0, 1.0))
        ends.append(abs(rep.off1[-1]) + abs(rep.off3[-1]))
    assert ends[0] < ends[1] < ends[2]
