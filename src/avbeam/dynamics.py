"""Numerical integration of particle, ensemble and moment flows.

One integrator, _integrate, takes every RK step in the package: fixed-step
RK4 (default, noise-controlled for twin-trajectory comparisons) or the
adaptive Dormand-Prince pair RK45, as IntegratorConfig.method says, on
states of shape (..., d).  Every entry point that integrates honours the
method: the orbit pushes and the averaged ensemble transport here, the
kinetic transport in a non-uniform field, and beamline's Jacobi
deviations and Hill principal solutions.  It integrates:

* the Lorentz force  dx/dtau = y, dy/dtau = F(x).y,
* auto-parallels     x'' + Gamma(x[, x']) x' x' = 0 of any connection,
* whole ensembles (kinetic transport along characteristics; weights ride
  along unchanged), and
* the closed moment flow m' = F m, Q' = F (x) Q (+ permutations) that the
  raw velocity moments obey exactly in a spatially uniform field.

The one flow taken without RK steps is the kinetic ensemble transport in a
uniform field, which is linear: x(tau) = x0 + P(tau) y0, y(tau) = R(tau) y0
with both propagators from one matrix exponential (_uniform_flow).
Ensemble transports return their history as an EnsembleHistory, which
builds the ensemble of a saved step only when it is indexed.

Trajectories are parameterized by proper time tau; x^0 is lab time, so
records can be resampled at common lab times for the comparison theorems.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .geometry import ETA, lower, minkowski


@dataclass
class IntegratorConfig:
    method: str = "rk4"          # "rk4" or "rk45"
    step: float = 1e-3           # fixed tau step for rk4
    tol: float = 1e-9            # tolerance for rk45
    renormalize: bool | None = None  # project y back to the hyperboloid

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.method == "rk4" and not self.step > 0:
            raise ValueError(f"rk4 needs a positive step, got {self.step!r}")
        if self.method == "rk45" and not self.tol > 0:
            raise ValueError(f"rk45 needs a positive tolerance, got {self.tol!r}")


@dataclass
class TrajectoryRecord:
    s: np.ndarray           # parameter values
    x: np.ndarray           # (n, 4) positions
    y: np.ndarray           # (n, 4) velocities dx/dtau
    kind: str = "tau"       # "tau" or "lab"
    stats: dict = dc_field(default_factory=dict)
    _interp: tuple | None = dc_field(default=None, init=False, repr=False,
                                     compare=False)

    def state(self, s):
        """Interpolated (x, y) at parameter value(s) s (monotone cubic).

        The two interpolants are built on the first call and kept; a record
        is not meant to be changed once it is made.
        """
        if self._interp is None:
            self._interp = (PchipInterpolator(self.s, self.x, axis=0),
                            PchipInterpolator(self.s, self.y, axis=0))
        xi, yi = self._interp
        return xi(s), yi(s)

    @property
    def lab_time(self):
        return self.x[:, 0]


def _renorm(y):
    """Project velocities of shape (..., 4) to the unit hyperboloid."""
    return y / np.sqrt(minkowski(y, y))[..., None]


def _max_drift(y):
    """max |eta(y,y) - 1| over velocities of shape (..., 4)."""
    return float(np.max(np.abs(minkowski(y, y) - 1.0)))


def _rk4_grid(span, cfg):
    """(nsteps, h): the RK4 step count and the step that divides span evenly."""
    s0, s1 = span
    nsteps = max(1, int(round((s1 - s0) / cfg.step)))
    return nsteps, (s1 - s0) / nsteps


def _checked_span(span):
    """span as (s0, s1); ValueError unless it increases."""
    s0, s1 = span
    if not s1 > s0:
        raise ValueError(f"integration span must increase, got {span!r}")
    return s0, s1


def _integrate(rhs, state0, span, cfg, renorm=False):
    """Integrate state' = rhs(s, state) over span, storing every state.

    state0 has shape (..., d): one orbit (d,) or an ensemble (N, d).
    cfg.method "rk4" takes fixed steps on the grid of _rk4_grid; "rk45" is
    the adaptive Dormand-Prince pair of scipy's solve_ivp.  With renorm the
    components 4:8 of the last axis are a velocity projected back to the
    unit hyperboloid: rk4 projects after every step, rk45 projects the
    saved states after the solve.

    Returns (s, hist, drift): the saved parameter values, the states
    stacked along a new first axis, and, for rk45 with renorm, the drift
    max |eta(y,y) - 1| of the saved velocities before their projection,
    which hist no longer shows; drift is None otherwise.
    """
    s0, s1 = _checked_span(span)
    state = np.array(state0, dtype=float)
    if cfg.method == "rk45":
        from scipy.integrate import solve_ivp

        shape = state.shape
        sol = solve_ivp(lambda s, v: rhs(s, v.reshape(shape)).ravel(), span,
                        state.ravel(), method="RK45", rtol=cfg.tol,
                        atol=cfg.tol)
        if not sol.success:
            raise FloatingPointError(sol.message)
        s, hist = sol.t, sol.y.T.reshape((-1,) + shape)
        if not renorm:
            return s, hist, None
        drift = _max_drift(hist[..., 4:])
        hist[..., 4:] = _renorm(hist[..., 4:])
        return s, hist, drift

    nsteps, h = _rk4_grid(span, cfg)
    s = s0 + h * np.arange(nsteps + 1)
    hist = np.empty((nsteps + 1,) + state.shape)
    hist[0] = state
    for i in range(nsteps):
        si = s0 + i * h
        k1 = rhs(si, state)
        k2 = rhs(si + 0.5 * h, state + 0.5 * h * k1)
        k3 = rhs(si + 0.5 * h, state + 0.5 * h * k2)
        k4 = rhs(si + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if renorm:
            state[..., 4:] = _renorm(state[..., 4:])
        if not np.isfinite(state).all():
            msg = f"non-finite state at step {i}"
            if state.ndim > 1:
                bad = int(np.argwhere(~np.isfinite(state))[0][0])
                msg += f", sample {bad}"
            raise FloatingPointError(msg)
        hist[i + 1] = state
    return s, hist, None


def _second_order(acc):
    """Right-hand side of x' = y, y' = acc(s, x, y) on states (..., 8)."""

    def rhs(s, st):
        x, y = st[..., :4], st[..., 4:]
        return np.concatenate([y, acc(s, x, y)], axis=-1)

    return rhs


def _push(acc, x0, y0, span, cfg, renorm):
    """Integrate x' = y, y' = acc(s, x, y) into a proper-time record.

    stats["max_drift"] is max |eta(y,y) - 1| over the saved states as the
    integrator produced them, so with renorm under rk45 it is the drift of
    the solve itself, before the projection (see _integrate).
    """
    s, states, drift = _integrate(_second_order(acc),
                                  np.concatenate([x0, y0]), span, cfg, renorm)
    y = states[:, 4:]
    drift = _max_drift(y) if drift is None else drift
    return TrajectoryRecord(s, states[:, :4], y, "tau",
                            {"steps": len(s) - 1, "max_drift": drift})


def push_lorentz(field, x0, y0, span, cfg=None):
    """Integrate the Lorentz force from (x0, y0) over a proper-time span."""
    cfg = cfg or IntegratorConfig()
    renorm = True if cfg.renormalize is None else cfg.renormalize
    return _push(lambda _s, x, y: field.mixed(x) @ y, x0, y0, span, cfg,
                 renorm)


def push_connection(conn, x0, y0, span, cfg=None):
    """Integrate the auto-parallel equation x'' + Gamma x' x' = 0.

    The spray Gamma(y, y) is integrated as it stands, homogeneous of degree
    2 in y.  For the Lorentz and tilde connections that is the Lorentz
    force times sqrt(eta(y,y)), so the two flows agree on the unit
    hyperboloid and differ in rate once y leaves it.  (The averaged twin of
    the comparison theorems is integrated with degree-1 normalization by
    push_averaged_transported instead.)  Hyperboloid renormalization is off
    by default: a generic connection does not preserve the velocity norm,
    and the drift, stats["max_drift"], is itself a diagnostic.
    """
    cfg = cfg or IntegratorConfig()
    renorm = False if cfg.renormalize is None else cfg.renormalize
    velocity_dependent = conn.kind in ("lorentz", "tilde", "berwald-generic")

    def acc(_s, x, y):
        G = conn.coeffs(x, y) if velocity_dependent else conn.coeffs(x)
        return -np.einsum("ijk,j,k->i", G, y, y)

    return _push(acc, x0, y0, span, cfg, renorm)


def to_lab_time(rec, times=None, n=None):
    """Resample a proper-time record at uniform lab times.

    Lab time along the record is its x^0 component (strictly increasing for
    future-pointing velocities).
    """
    t = rec.x[:, 0]
    if np.any(np.diff(t) <= 0):
        raise ValueError("lab time is not strictly increasing along the record")
    if times is None:
        n = n or len(t)
        times = np.linspace(t[0], t[-1], n)
    times = np.asarray(times, dtype=float)
    xi = PchipInterpolator(t, rec.x, axis=0)(times)
    yi = PchipInterpolator(t, rec.y, axis=0)(times)
    return TrajectoryRecord(times, xi, yi, "lab", dict(rec.stats))


# ---------------------------------------------------------------------------
# Ensemble transport
# ---------------------------------------------------------------------------

class EnsembleHistory:
    """Read-only sequence of the ensembles saved along a transport.

    state(i) gives the positions and velocities, (N, 4) each, of saved
    step i; the Ensemble, with the weights, observer and metadata of the
    initial one, is built only when the step is indexed.  Supports len,
    negative indices and iteration.
    """

    def __init__(self, ens, n, state):
        self._ens, self._n, self._state = ens, n, state

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        i = range(self._n)[i]
        if not isinstance(i, int):
            raise TypeError("an ensemble history is indexed by integers")
        return self._ens.with_state(*self._state(i))


def _uniform_flow(F, taus):
    """Propagators of x' = y, y' = F y at proper time(s) taus.

    Returns (P, R), each of shape taus.shape + (4, 4), with
    R(tau) = expm(F tau) and P(tau) = int_0^tau R, so that
    x(tau) = x0 + P y0 and y(tau) = R y0.  Both are blocks of one 8x8
    exponential (Van Loan, IEEE Trans. Autom. Control 23, 395-404, 1978):
    expm([[0, I], [0, F]] tau) = [[I, P(tau)], [0, R(tau)]].
    """
    from scipy.linalg import expm

    A = np.zeros((8, 8))
    A[:4, 4:] = np.eye(4)
    A[4:, 4:] = F
    U = expm(np.multiply.outer(taus, A))
    return U[..., :4, 4:], U[..., 4:, 4:]


def _transport_uniform(F, ens, tau_span, cfg, lab_times):
    """Kinetic transport in the uniform field F, on the _rk4_grid of
    tau_span, from the propagators of _uniform_flow: no RK step."""
    s0, _ = _checked_span(tau_span)
    nsteps, h = _rk4_grid(tau_span, cfg)
    steps = h * np.arange(nsteps + 1)
    x0, y0 = ens.x, ens.y
    if lab_times is None:
        def state(i):
            P, R = _uniform_flow(F, steps[i])
            return x0 + y0 @ P.T, y0 @ R.T

        return s0 + steps, EnsembleHistory(ens, nsteps + 1, state)
    P, R = _uniform_flow(F, steps)
    hist = np.concatenate([x0 + y0 @ np.swapaxes(P, 1, 2),
                           y0 @ np.swapaxes(R, 1, 2)], axis=-1)
    return _slice_history(ens, s0 + steps, hist, lab_times)


def _transport(acc, ens, tau_span, cfg, lab_times, renorm):
    """Advect every sample with y' = acc(s, x, y) on (N, 4) batches."""
    Y0 = np.concatenate([ens.x, ens.y], axis=1)
    taus, hist, _ = _integrate(_second_order(acc), Y0, tau_span, cfg, renorm)
    return _slice_history(ens, taus, hist, lab_times)


def transport_ensemble(field, ens, tau_span, cfg=None, lab_times=None):
    """Advect every sample with the Lorentz flow (kinetic transport).

    Weights are untouched (collisionless transport: the distribution is
    constant along characteristics).  A uniform field (field.uniform) takes
    no RK step: the flow is linear, x(tau) = x0 + P(tau) y0 and
    y(tau) = R(tau) y0, and every saved state comes from its exact
    propagators (_uniform_flow) on the RK4 grid of cfg.step, whatever
    cfg.method and cfg.renormalize say (R is a Lorentz transformation, so
    y stays on the hyperboloid to rounding).  Any other field is
    integrated as cfg says: a field that declares itself affine is
    evaluated for all samples at once,
    F(x_a) y_a = F(0) y_a + x_a^k (d_k F) y_a, and a general field sample
    by sample.

    Returns (taus, history), an EnsembleHistory of the proper-time states
    when lab_times is None; else (lab_times, history) of ensembles sliced
    at the requested lab times by per-sample monotone interpolation of the
    proper-time states.
    """
    cfg = cfg or IntegratorConfig()
    if field.uniform:
        return _transport_uniform(field.mixed0, ens, tau_span, cfg, lab_times)
    renorm = True if cfg.renormalize is None else cfg.renormalize
    if field.affine:
        F0T = field.mixed0.T
        # dF[k, (i, j)] = d_k F^i_j, so x @ dF is the batch of x^k d_k F
        dF = field.gradient0.reshape(4, 16)

    def acc(_s, x, y):
        if not field.affine:
            return np.array([field.mixed(xa) @ ya for xa, ya in zip(x, y)])
        return y @ F0T + ((x @ dF).reshape(-1, 4, 4) @ y[:, :, None])[:, :, 0]

    return _transport(acc, ens, tau_span, cfg, lab_times, renorm)


def transport_ensemble_averaged(field, ens, tau_span, cfg=None, lab_times=None,
                                moments="self"):
    """Advect every sample with the averaged spray of the samples' moments,

        y' = -<Gamma>(y, y) / sqrt(eta(y, y)),

    homogeneous of degree 1 in y like the Lorentz force: on the unit
    hyperboloid the samples are auto-parallels of the averaged connection,
    and off it they turn at the rate of the moments, as the averaged twin
    of push_averaged_transported does.  The degree-2 spray -<Gamma>(y, y)
    would lag the moments and walk the samples out of the support.

    moments="self"   recompute the averaged coefficients from the moving
                     ensemble at every stage (time-refreshed averaging);
    moments="frozen" use the initial moments throughout;
    a MomentSet or callable x -> MomentSet is used as given.

    Returns (taus, history) or (lab_times, history) as transport_ensemble
    does; the history is an EnsembleHistory over the integrated states.
    """
    from .connections import averaged_table
    from .distribution import MomentSet

    cfg = cfg or IntegratorConfig()
    renorm = False if cfg.renormalize is None else cfg.renormalize
    p = ens.w / ens.w.sum()
    if moments == "frozen":
        moments = ens.moments()

    def acc(_s, x, y):
        if moments == "self":
            ms = MomentSet.from_samples(y, ens.w)
        elif isinstance(moments, MomentSet):
            ms = moments
        else:
            ms = moments(x[0])
        G = averaged_table(field, (p @ x), ms)
        # y^j y^k per sample, contracted with <Gamma>^i_jk and with eta_jk
        yy = (y[:, :, None] * y[:, None, :]).reshape(-1, 16)
        return (-(yy @ G.reshape(4, 16).T)
                / np.sqrt(yy @ ETA.reshape(16))[:, None])

    return _transport(acc, ens, tau_span, cfg, lab_times, renorm)


def _slice_history(ens, taus, hist, lab_times):
    """History of the states hist, (n_tau, N, 8), at the proper times taus;
    or, given lab_times, at those lab times by per-sample monotone
    interpolation in x^0."""
    if lab_times is not None:
        taus = np.asarray(lab_times, dtype=float)
        hist = np.stack([PchipInterpolator(hist[:, a, 0], hist[:, a],
                                           axis=0)(taus)
                         for a in range(hist.shape[1])], axis=1)
    return taus, EnsembleHistory(ens, len(taus),
                                 lambda i: (hist[i, :, :4], hist[i, :, 4:]))


def history_at(taus, hist, tau):
    """The entry of a proper-time history (taus, hist) nearest to tau.

    A tau outside [taus[0], taus[-1]] by more than a rounding slack raises
    ValueError: clamping it to an end entry would put a stencil off centre.
    """
    slack = 1e-9 * (taus[-1] - taus[0])
    if not taus[0] - slack <= tau <= taus[-1] + slack:
        raise ValueError(f"tau = {tau!r} lies outside the history's span "
                         f"[{taus[0]!r}, {taus[-1]!r}]")
    return hist[int(np.argmin(np.abs(taus - tau)))]


# ---------------------------------------------------------------------------
# Moment flow in a uniform field
# ---------------------------------------------------------------------------

class TransportedMoments:
    """Raw moments transported by the Lorentz flow in a uniform field.

    Each sample obeys the linear ODE y' = F y, so the raw moments obey the
    closed tensor equations m(tau) = R m(0) and
    Q(tau) = R (x) R (x) R : Q(0) with R = expm(F tau).  The second moment
    follows the same rule.  Exact for spatially constant fields.
    """

    def __init__(self, field, moments0):
        from scipy.linalg import expm

        self._expm = expm
        self.F = field.mixed(np.zeros(4))
        self.m0 = moments0
        self._cache = {}
        self._grid = None
        self._last = (None, None)

    def on_stage_grid(self, s0, h):
        """Serve rotation() on the RK4 stage grid s0 + k h/2 by recurrence.

        Two expm calls in all, R(s0) and R(h/2); every later grid point
        steps R_{k+1} = R(h/2) R_k, holding only the current R.  RK4 meets
        its stages in order (k, k+1, k+1, k+2, ...), so each later call of
        rotation() must repeat the current grid point or advance it by one.
        """
        self._grid = (s0, h, self._expm(self.F * (0.5 * h)))
        self._k, self._R = 0, self._expm(self.F * s0)

    def rotation(self, tau):
        """R(tau) = expm(F tau): cached by tau, or by recurrence once
        on_stage_grid() is set."""
        if self._grid is not None:
            s0, h, half = self._grid
            k = round(2.0 * (tau - s0) / h)
            if k == self._k + 1:
                self._k, self._R = k, half @ self._R
            elif k != self._k:
                raise ValueError(f"tau = {tau!r} is not the current or next "
                                 "point of the stage grid")
            return self._R
        key = round(float(tau), 15)
        R = self._cache.get(key)
        if R is None:
            R = self._expm(self.F * tau)
            if len(self._cache) > 4096:
                self._cache.clear()
            self._cache[key] = R
        return R

    def at_tau(self, tau):
        """Moments at tau.  A call that gets the same R as the call before
        (RK4's repeated stage points) returns the same MomentSet."""
        from .distribution import MomentSet

        R = self.rotation(tau)
        if R is self._last[0]:
            return self._last[1]
        mean = R @ self.m0.mean
        second = R @ self.m0.second @ R.T
        # R (x) R (x) R : Q0, one index at a time: last, middle, first
        third = np.matmul(R, self.m0.third @ R.T)
        third = (R @ third.reshape(4, 16)).reshape(4, 4, 4)
        self._last = (R, MomentSet(self.m0.vol, mean, second, third))
        return self._last[1]


def push_averaged_transported(field, x0, y0, moments0, span, cfg=None):
    """Averaged twin of the Lorentz flow, with flow-transported moments.

    The coefficient table at curve parameter tau uses the moments of the
    initial ensemble pushed forward by the Lorentz flow for proper time tau
    (uniform-field moment flow, exact): mean m = R m0 and third moment
    Q = R (x) R (x) R : Q0 with R = expm(F tau).  The velocity obeys the
    averaged form of the equation the exact twin integrates,

        y' = -<Gamma>(y, y) / sqrt(eta(y, y)),

    with <Gamma> = averaged_table(field, x, moments at tau) at the current
    point.  RK4 stages lie on the grid tau0 + k h/2, so R comes from two
    expm calls, R(tau0) and R(h/2), and the recurrence R_{k+1} = R(h/2) R_k
    (TransportedMoments.on_stage_grid).  Over 84 000 half-steps of a 5e-3
    step in the dipole field it agrees with expm(F tau) to 1.4e-12
    relative; rk45 stages are off any grid and call expm (cached) per stage
    instead.

    The equation is homogeneous of degree 1 in y like
    y' = F y = -Gamma(y,y)/sqrt(eta(y,y)).  On the unit hyperboloid it is
    the auto-parallel equation of the averaged connection; off it, y turns
    at the rate of the transported moments.  The velocity is not held on the
    hyperboloid: the on-shell gap Gamma(y,y) - <Gamma>(y,y) has a component
    along y, so eta(y,y) - 1 drifts like alpha^3 t in lab time t,
    independently of the energy (stats["max_drift"]; about 3e-5 by t = 20
    and 5e-4 by t = 300 on the alpha = 0.02 dipole benchmark).  The degree-2
    spray y' = -<Gamma>(y,y) would turn such an off-shell y at a rate
    proportional to sqrt(eta(y,y)), lag the moments by a phase that grows
    without bound, and carry y out of the support.
    """
    from .connections import averaged_table

    cfg = cfg or IntegratorConfig()
    renorm = False if cfg.renormalize is None else cfg.renormalize
    tm = TransportedMoments(field, moments0)
    if cfg.method == "rk4":
        tm.on_stage_grid(span[0], _rk4_grid(span, cfg)[1])

    def acc(s, x, y):
        G = averaged_table(field, x, tm.at_tau(s))
        return -((G @ y) @ y) / np.sqrt(lower(y) @ y)

    return _push(acc, x0, y0, span, cfg, renorm)


# ---------------------------------------------------------------------------
# Kinetic residual probe
# ---------------------------------------------------------------------------

def liouville_residual(f, field, x, y, h=1e-3):
    """Finite-difference kinetic-equation residual y.df/dx + (F y).df/dy.

    f is a differentiable phase-space density f(x, y); the residual vanishes
    for densities constant along the Lorentz characteristics.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grad_x = np.empty(4)
    grad_y = np.empty(4)
    for i in range(4):
        dx = np.zeros(4)
        dx[i] = h
        grad_x[i] = (f(x + dx, y) - f(x - dx, y)) / (2.0 * h)
        grad_y[i] = (f(x, y + dx) - f(x, y - dx)) / (2.0 * h)
    acc = field.mixed(x) @ y
    return float(y @ grad_x + acc @ grad_y)
