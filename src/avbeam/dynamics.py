"""Numerical integration of particle, ensemble and moment flows.

Fixed-step RK4 (default, noise-controlled for twin-trajectory comparisons)
and adaptive RK45 integrate:

* the Lorentz force  dx/dtau = y, dy/dtau = F(x).y,
* auto-parallels     x'' + Gamma(x[, x']) x' x' = 0 of any connection,
* whole ensembles (kinetic transport along characteristics; weights ride
  along unchanged), and
* the closed moment flow m' = F m, Q' = F (x) Q (+ permutations) that the
  raw velocity moments obey exactly in a spatially uniform field.

Trajectories are parameterized by proper time tau; x^0 is lab time, so
records can be resampled at common lab times for the comparison theorems.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .geometry import lower, minkowski


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
    n2 = minkowski(y, y)
    return y / np.sqrt(n2) if np.ndim(y) == 1 else y / np.sqrt(n2)[:, None]


def _rk4_grid(span, cfg):
    """(nsteps, h): the RK4 step count and the step that divides span evenly."""
    s0, s1 = span
    nsteps = max(1, int(round((s1 - s0) / cfg.step)))
    return nsteps, (s1 - s0) / nsteps


def _rk4_path(rhs, state0, span, cfg, project=None):
    """Fixed-step RK4 storing every state."""
    s0 = span[0]
    nsteps, h = _rk4_grid(span, cfg)
    state = np.array(state0, dtype=float)
    out_s = [s0]
    out = [state.copy()]
    s = s0
    for i in range(nsteps):
        k1 = rhs(s, state)
        k2 = rhs(s + 0.5 * h, state + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, state + 0.5 * h * k2)
        k4 = rhs(s + h, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if project is not None:
            state = project(state)
        if not np.isfinite(state).all():
            raise FloatingPointError(f"non-finite state at step {i}")
        s = s0 + (i + 1) * h
        out_s.append(s)
        out.append(state.copy())
    return np.array(out_s), np.array(out)


def _rk45_path(rhs, state0, span, cfg):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, span, np.asarray(state0, dtype=float),
                    method="RK45", rtol=cfg.tol, atol=cfg.tol, dense_output=False,
                    max_step=np.inf)
    if not sol.success:
        raise FloatingPointError(sol.message)
    return sol.t, sol.y.T


def _push(acc, x0, y0, span, cfg, renorm):
    """Integrate x' = y, y' = acc(s, x, y) into a proper-time record.

    With renorm the velocity is projected back to the unit hyperboloid:
    rk4 projects after every step, rk45 projects the saved states after the
    solve.  stats["max_drift"] is max |eta(y,y) - 1| over the saved states
    as the integrator produced them, so for rk45 it is the drift of the
    solve itself, before that projection.
    """

    def rhs(s, st):
        x, y = st[:4], st[4:]
        return np.concatenate([y, acc(s, x, y)])

    def project(st):
        st = st.copy()
        st[4:] = _renorm(st[4:])
        return st

    state0 = np.concatenate([x0, y0])
    if cfg.method == "rk45":
        s, states = _rk45_path(rhs, state0, span, cfg)
    else:
        s, states = _rk4_path(rhs, state0, span, cfg,
                              project if renorm else None)
    y = states[:, 4:]
    drift = float(np.max(np.abs(minkowski(y, y) - 1.0)))
    if renorm and cfg.method == "rk45":
        y = _renorm(y)
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

def _vector_rk4(rhs, Y0, span, cfg, project=None):
    """RK4 for an (N, d) state array, storing every state."""
    s0 = span[0]
    nsteps, h = _rk4_grid(span, cfg)
    Y = np.array(Y0, dtype=float)
    taus = [s0]
    states = [Y.copy()]
    for i in range(nsteps):
        s = s0 + i * h
        k1 = rhs(s, Y)
        k2 = rhs(s + 0.5 * h, Y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, Y + 0.5 * h * k2)
        k4 = rhs(s + h, Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if project is not None:
            Y = project(Y)
        if not np.isfinite(Y).all():
            bad = int(np.argwhere(~np.isfinite(Y))[0][0])
            raise FloatingPointError(
                f"non-finite ensemble state at step {i}, sample {bad}")
        taus.append(s0 + (i + 1) * h)
        states.append(Y.copy())
    return np.array(taus), np.array(states)


def transport_ensemble(field, ens, tau_span, cfg=None, lab_times=None):
    """Advect every sample with the Lorentz flow (kinetic transport).

    Weights are untouched (collisionless transport: the distribution is
    constant along characteristics).  A field that declares itself affine
    is evaluated for all samples at once,
    F(x_a) y_a = F(0) y_a + x_a^k (d_k F) y_a; any other field is evaluated
    sample by sample.  Returns the full proper-time history when lab_times
    is None, else ensembles sliced at the requested lab times by per-sample
    monotone interpolation.
    """
    cfg = cfg or IntegratorConfig()
    renorm = True if cfg.renormalize is None else cfg.renormalize
    if field.affine:
        F0T = field.mixed0.T
        # dF[k, (i, j)] = d_k F^i_j, so x @ dF is the batch of x^k d_k F
        dF = None if field.uniform else field.gradient0.reshape(4, 16)

    def rhs(_s, Y):
        x, y = Y[:, :4], Y[:, 4:]
        if not field.affine:
            acc = np.array([field.mixed(xa) @ ya for xa, ya in zip(x, y)])
        elif dF is None:
            acc = y @ F0T
        else:
            acc = y @ F0T + ((x @ dF).reshape(-1, 4, 4)
                             @ y[:, :, None])[:, :, 0]
        return np.concatenate([y, acc], axis=1)

    def project(Y):
        Y = Y.copy()
        Y[:, 4:] = _renorm(Y[:, 4:])
        return Y

    Y0 = np.concatenate([ens.x, ens.y], axis=1)
    taus, hist = _vector_rk4(rhs, Y0, tau_span, cfg,
                             project if renorm else None, )
    return _slice_history(ens, taus, hist, lab_times)


def transport_ensemble_averaged(field, ens, tau_span, cfg=None, lab_times=None,
                                moments="self"):
    """Advect every sample as an auto-parallel of the averaged connection.

    moments="self"   recompute the averaged coefficients from the moving
                     ensemble at every stage (time-refreshed averaging);
    moments="frozen" use the initial moments throughout;
    a MomentSet or callable x -> MomentSet is used as given.
    """
    from .connections import averaged_table
    from .distribution import MomentSet

    cfg = cfg or IntegratorConfig()
    renorm = False if cfg.renormalize is None else cfg.renormalize
    frozen = ens.moments() if moments == "frozen" else None
    static = moments if isinstance(moments, MomentSet) else None
    p = ens.w / ens.w.sum()

    def rhs(_s, Y):
        x, y = Y[:, :4], Y[:, 4:]
        if moments == "self":
            ms = MomentSet.from_samples(y, ens.w)
        elif frozen is not None:
            ms = frozen
        elif static is not None:
            ms = static
        else:
            ms = moments(x[0])
        G = averaged_table(field, (p @ x), ms)
        acc = -np.einsum("ijk,aj,ak->ai", G, y, y)
        return np.concatenate([y, acc], axis=1)

    def project(Y):
        Y = Y.copy()
        Y[:, 4:] = _renorm(Y[:, 4:])
        return Y

    Y0 = np.concatenate([ens.x, ens.y], axis=1)
    taus, hist = _vector_rk4(rhs, Y0, tau_span, cfg,
                             project if renorm else None, )
    return _slice_history(ens, taus, hist, lab_times)


def _slice_history(ens, taus, hist, lab_times):
    """hist: (n_tau, N, 8).  Slice at lab times or return the tau history."""
    if lab_times is None:
        return taus, [ens.with_state(H[:, :4], H[:, 4:]) for H in hist]
    lab_times = np.asarray(lab_times, dtype=float)
    n = hist.shape[1]
    X = np.empty((len(lab_times), n, 4))
    Yv = np.empty((len(lab_times), n, 4))
    for a in range(n):
        t_a = hist[:, a, 0]
        X[:, a, :] = PchipInterpolator(t_a, hist[:, a, :4], axis=0)(lab_times)
        Yv[:, a, :] = PchipInterpolator(t_a, hist[:, a, 4:], axis=0)(lab_times)
    return lab_times, [ens.with_state(X[i], Yv[i]) for i in range(len(lab_times))]


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
