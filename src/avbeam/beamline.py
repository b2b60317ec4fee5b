"""Linear beam optics: deviation (Jacobi) equations and collective offsets.

A deviation vector xi along a reference orbit X(tau) obeys

    xi'' + 2 Gamma(X)(xi', X') + xi^l d_l Gamma (X', X') = 0.

For the accelerator presets the transverse/longitudinal components decouple
into scalar Hill-type systems u'' + c u' + K u = p with principal solutions
C (cosine-like) and S (sine-like), Green function
G(tau, s) = S(tau) C(s) - C(tau) S(s) and particular solution
P(tau) = integral of p(s) G(tau, s) / W(s) ds.

The collective offset of a bunch relative to its reference orbit is the
first-order (Born) response of the mean deviation to the moment structure
of the velocity distribution:

    <Off^i>(tau) = int_0^tau [ 2 eps^j X'^k (F^i_j eps_k + F^i_k eps_j)
                   + X'^j X'^k F^i_m (<y^m> eta_jk
                                      - <y^m y^s y^l> eta_js eta_lk) ] ds

for the transverse components i = 1, 3, with eps = <y> - X' the mean
velocity mismatch.  It vanishes identically for a point (delta)
distribution riding exactly on the reference orbit and grows with the
squared velocity spread for extended bunches.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .geometry import minkowski, lower
from .dynamics import IntegratorConfig, _rk4_path


# ---------------------------------------------------------------------------
# Jacobi (deviation) equation along a reference record
# ---------------------------------------------------------------------------

def jacobi_rhs(conn, ref, h=1e-4):
    """Right-hand side of the first-order deviation system.

    State is (xi, xi'); the reference orbit supplies X(tau), X'(tau) by
    interpolation and the connection-gradient term uses central differences
    in the position argument.
    """
    velocity_dependent = conn.kind in ("lorentz", "tilde", "berwald-generic")

    def table(x, y):
        return conn.coeffs(x, y) if velocity_dependent else conn.coeffs(x)

    def rhs(s, state):
        xi, dxi = state[:4], state[4:]
        X, Xd = ref.state(s)
        G = table(X, Xd)
        dG = np.empty((4, 4, 4, 4))     # dG[l, i, j, k] = d_l Gamma^i_jk
        for l in range(4):
            dx = np.zeros(4)
            dx[l] = h
            dG[l] = (table(X + dx, Xd) - table(X - dx, Xd)) / (2.0 * h)
        acc = (-2.0 * np.einsum("ijk,j,k->i", G, dxi, Xd)
               - np.einsum("l,lijk,j,k->i", xi, dG, Xd, Xd))
        return np.concatenate([dxi, acc])

    return rhs


@dataclass
class JacobiRecord:
    s: np.ndarray
    xi: np.ndarray
    dxi: np.ndarray


def integrate_jacobi(conn, ref, xi0, dxi0, span, cfg=None, h=1e-4):
    """Integrate the deviation equation along a reference orbit."""
    cfg = cfg or IntegratorConfig()
    state0 = np.concatenate([np.asarray(xi0, float), np.asarray(dxi0, float)])
    s, states = _rk4_path(jacobi_rhs(conn, ref, h), state0, span, cfg)
    return JacobiRecord(s, states[:, :4], states[:, 4:])


# ---------------------------------------------------------------------------
# Scalar Hill systems
# ---------------------------------------------------------------------------

def _as_fn(v):
    return v if callable(v) else (lambda s, c=float(v): c)


@dataclass
class HillSystem:
    """Scalar deviation equation u'' + c(tau) u' + K(tau) u = p(tau)."""

    K: object = 0.0
    p: object = 0.0
    damping: object = 0.0
    label: str = "u"
    closed_form: object = None    # optional (tau, u0, du0) -> u

    def k_fn(self):
        return _as_fn(self.K)

    def p_fn(self):
        return _as_fn(self.p)

    def c_fn(self):
        return _as_fn(self.damping)


def _const_closed(K):
    """Closed-form homogeneous solution for constant K."""
    if K > 0:
        w = np.sqrt(K)
        return lambda s, u0, du0: u0 * np.cos(w * s) + du0 * np.sin(w * s) / w
    if K < 0:
        w = np.sqrt(-K)
        return lambda s, u0, du0: u0 * np.cosh(w * s) + du0 * np.sinh(w * s) / w
    return lambda s, u0, du0: u0 + du0 * s


def preset_system(kind, **params):
    """Scalar deviation systems of the accelerator presets.

    Returns a dict keyed by deviation component ("xi1", "xi2", "xi3").

    dipole(rho, sign=+1):    xi1'' - sign xi1 / rho^2 = 0; xi3 drifts.
                             The default sign gives the hyperbolically
                             growing horizontal mode; sign=-1 flips it to
                             the oscillatory convention.
    quadrupole(b1):          xi3'' + b1 xi3 = 0, xi1'' - b1 xi1 = 0.
    quad45(b1, rho=None):    xi1'' + (b1 + 1/rho^2) xi1 = 0,
                             xi3'' - b1 xi3 = 0 (rho omitted: pure quad).
    constant-e(e2):          xi2'' + e2 xi2' = 0 with closed form
                             u0 - (du0/e2)(exp(-e2 tau) - 1).
    rf(gamma, e20, w_rf):    xi2'' - 2 gamma e20 w_rf xi2 = 0 (on-crest
                             linearization of the alternating field).
    """
    if kind == "dipole":
        rho = float(params["rho"])
        sign = float(params.get("sign", 1.0))
        K1 = -sign / rho ** 2
        return {"xi1": HillSystem(K1, 0.0, 0.0, "xi1", _const_closed(K1)),
                "xi3": HillSystem(0.0, 0.0, 0.0, "xi3", _const_closed(0.0))}
    if kind == "quadrupole":
        b1 = float(params["b1"])
        rho = params.get("rho")
        K1 = -b1 + (1.0 / float(rho) ** 2 if rho else 0.0)
        return {"xi1": HillSystem(K1, 0.0, 0.0, "xi1", _const_closed(K1)),
                "xi3": HillSystem(b1, 0.0, 0.0, "xi3", _const_closed(b1))}
    if kind == "quad45":
        b1 = float(params["b1"])
        rho = params.get("rho")
        K1 = b1 + (1.0 / float(rho) ** 2 if rho else 0.0)
        return {"xi1": HillSystem(K1, 0.0, 0.0, "xi1", _const_closed(K1)),
                "xi3": HillSystem(-b1, 0.0, 0.0, "xi3", _const_closed(-b1))}
    if kind == "constant-e":
        e2 = float(params["e2"])

        def closed(s, u0, du0, e2=e2):
            return u0 - (du0 / e2) * (np.exp(-e2 * np.asarray(s)) - 1.0)

        return {"xi2": HillSystem(0.0, 0.0, e2, "xi2", closed)}
    if kind == "rf":
        gamma = float(params["gamma"])
        e20 = float(params["e20"])
        w_rf = float(params.get("w_rf", 1.0))
        K = -2.0 * gamma * e20 * w_rf
        return {"xi2": HillSystem(K, 0.0, 0.0, "xi2", _const_closed(K))}
    raise KeyError(f"unknown beamline preset {kind!r}")


@dataclass
class PrincipalPair:
    """Cosine- and sine-like solutions of the homogeneous Hill system."""

    s: np.ndarray
    C: np.ndarray
    S: np.ndarray
    Cp: np.ndarray
    Sp: np.ndarray

    def __post_init__(self):
        self._c = PchipInterpolator(self.s, np.column_stack(
            [self.C, self.Cp]), axis=0)
        self._s = PchipInterpolator(self.s, np.column_stack(
            [self.S, self.Sp]), axis=0)

    def cosine(self, s):
        return self._c(s)[..., 0]

    def sine(self, s):
        return self._s(s)[..., 0]

    def cosine_prime(self, s):
        return self._c(s)[..., 1]

    def sine_prime(self, s):
        return self._s(s)[..., 1]

    def wronskian(self):
        """C S' - S C' on the grid (constant 1 when undamped)."""
        return self.C * self.Sp - self.S * self.Cp


def principal_solutions(system, span, cfg=None):
    """Integrate the homogeneous system for the principal pair.

    C(0) = 1, C'(0) = 0 and S(0) = 0, S'(0) = 1.
    """
    cfg = cfg or IntegratorConfig()
    K, c = system.k_fn(), system.c_fn()

    def rhs(s, st):
        u, du = st
        return np.array([du, -c(s) * du - K(s) * u])

    sC, C = _rk4_path(rhs, np.array([1.0, 0.0]), span, cfg)
    sS, S = _rk4_path(rhs, np.array([0.0, 1.0]), span, cfg)
    assert np.array_equal(sC, sS)
    return PrincipalPair(sC, C[:, 0], S[:, 0], C[:, 1], S[:, 1])


def green(pp):
    """Green function G(tau, s) = S(tau) C(s) - C(tau) S(s)."""

    def G(tau, s):
        return pp.sine(tau) * pp.cosine(s) - pp.cosine(tau) * pp.sine(s)

    return G


def particular_solution(system, pp):
    """Particular response P(tau) = int_0^tau p(s) G(tau, s) / W(s) ds.

    Evaluated as S(tau) I_C(tau) - C(tau) I_S(tau) with cumulative Simpson
    quadrature of p C / W and p S / W on the principal grid; the Wronskian
    factor extends variation of parameters to damped systems.
    """
    from scipy.integrate import cumulative_simpson

    p = system.p_fn()
    pv = np.array([p(s) for s in pp.s])
    W = pp.wronskian()
    ic = cumulative_simpson(pv * pp.C / W, x=pp.s, initial=0.0)
    is_ = cumulative_simpson(pv * pp.S / W, x=pp.s, initial=0.0)
    fi_c = PchipInterpolator(pp.s, ic)
    fi_s = PchipInterpolator(pp.s, is_)

    def P(tau):
        return pp.sine(tau) * fi_c(tau) - pp.cosine(tau) * fi_s(tau)

    return P


# ---------------------------------------------------------------------------
# Collective offset
# ---------------------------------------------------------------------------

@dataclass
class OffsetReport:
    s: np.ndarray
    off1: np.ndarray
    off3: np.ndarray
    integrand1: np.ndarray
    integrand3: np.ndarray

    def at(self, tau):
        return (float(PchipInterpolator(self.s, self.off1)(tau)),
                float(PchipInterpolator(self.s, self.off3)(tau)))


def averaged_offset(field, ref, moments_along, span, n_grid=401,
                    mode="frozen", xi_mean=None, epsilon=None):
    """First-order collective offset of the bunch mean from the reference.

    moments_along: MomentSet or callable tau -> MomentSet giving the
    transported velocity moments along the orbit; eps(tau) is their mean
    minus the reference velocity (an explicit epsilon(tau) override is
    available for synthetic studies).  mode="full" adds the field-gradient
    term xi^l d_l F^i_m (<y^m> eta_jk - <y^m y^s y^l> eta_js eta_lk)
    X'^j X'^k with the supplied mean deviation xi_mean(tau) (zero by
    default, in which case it coincides with the frozen mode for uniform
    fields).
    """
    ms_fn = moments_along if callable(moments_along) else (
        lambda s, m=moments_along: m)
    xi_fn = xi_mean if xi_mean is not None else (lambda s: np.zeros(4))
    grid = np.linspace(span[0], span[1], n_grid)
    integrand = np.zeros((n_grid, 2))
    for n, s in enumerate(grid):
        X, Xd = ref.state(s)
        ms = ms_fn(s)
        Fm = field.mixed(X)
        eps = (ms.mean - Xd) if epsilon is None else np.asarray(epsilon(s), float)
        eps_low = lower(eps)
        Xd_low = lower(Xd)
        quad = 2.0 * ((Fm @ eps) * float(eps_low @ Xd)
                      + (Fm @ Xd) * float(eps_low @ eps))
        bracket = ms.mean * float(minkowski(Xd, Xd)) \
            - np.einsum("msl,s,l->m", ms.third, Xd_low, Xd_low)
        vec = quad + Fm @ bracket
        if mode == "full":
            dF = field.gradient_mixed(X)
            vec = vec + np.einsum("l,lim,m->i", xi_fn(s), dF, bracket)
        elif mode != "frozen":
            raise ValueError(f"unknown offset mode {mode!r}")
        integrand[n] = vec[[1, 3]]

    from scipy.integrate import cumulative_simpson

    off = cumulative_simpson(integrand, x=grid, axis=0, initial=0.0)
    return OffsetReport(grid, off[:, 0], off[:, 1],
                        integrand[:, 0], integrand[:, 1])
