"""Comparison harness: pointwise vs averaged dynamics, exponents, horizons.

The central experiment integrates, from the same initial condition, the
Lorentz force and the auto-parallel flow of the averaged connection (with
moments transported along the particle flow), resamples both at common lab
times and reports the position and velocity separations together with the
theoretical budget curves

    position:  2 (C |F| + C2^2 (1 + B2 alpha)) alpha^2 E^-2 t^2
    velocity:    (K |F| + K2^2 (1 + D2 alpha)) alpha^2 E^-1 t

whose undetermined order-one constants default to 4.  Exponent sweeps fit
log-log slopes of the measured separations against alpha, E and t.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import bar_norm
from .fields import field_norm
from .dynamics import (IntegratorConfig, push_lorentz,
                       push_averaged_transported, to_lab_time,
                       transport_ensemble, transport_ensemble_averaged)

#: Default order-one constants of the separation budgets.
DEFAULT_CONSTANTS = {"C": 4.0, "C2": 4.0, "B2": 4.0, "K": 4.0, "K2": 4.0,
                     "D2": 4.0, "C1": 4.0, "A": 4.0}


@dataclass
class ComparisonReport:
    times: np.ndarray
    pos_sep: np.ndarray
    vel_sep: np.ndarray
    pos_bound: np.ndarray
    vel_bound: np.ndarray
    alpha: float
    energy: float
    f_norm: float
    diagnostics: dict = dc_field(default_factory=dict)

    def within_bounds(self):
        ok_pos = np.all(self.pos_sep <= self.pos_bound + 1e-30)
        ok_vel = np.all(self.vel_sep <= self.vel_bound + 1e-30)
        return bool(ok_pos and ok_vel)


def support_index(ens, which="far"):
    """Index of the sample pick_support_velocity returns.

    "far" picks the sample farthest from the mean (largest deviation,
    i.e. the worst-case representative), "near" the closest one.
    """
    m = ens.moments().mean
    dist = np.linalg.norm(ens.y - m, axis=1)
    return int(np.argmax(dist) if which == "far" else np.argmin(dist))


def pick_support_velocity(ens, which="far"):
    """An initial velocity inside the ensemble support (see support_index)."""
    return ens.y[support_index(ens, which)].copy()


def compare_trajectories(field, ens, x0=None, y0=None, t_end=10.0, n_out=101,
                         cfg=None, constants=None, warn=None):
    """Twin integration from one initial condition; separations vs budgets.

    The exact twin integrates y' = F y = -Gamma(y,y)/sqrt(eta(y,y)); the
    averaged twin integrates the same equation with Gamma replaced by the
    averaged connection of the moments transported by the particle flow
    (push_averaged_transported), so both are homogeneous of degree 1 in y.
    The moments, and with them the support, move with the particle flow
    exactly; the averaged velocity follows them but is not projected onto
    the unit hyperboloid, and diagnostics["norm_drift_averaged"] reports
    max |eta(y,y) - 1| along it (about 5e-4 by t = 300 at alpha = 0.02).
    Both trajectories are resampled at n_out common lab times.  The proper-
    time span starts at about 1.05 t_end / E and grows by a factor 1.25
    until both twins reach lab time t_end; diagnostics["horizon_retries"]
    counts those extensions (each one integrates both twins again).
    """
    cfg = cfg or IntegratorConfig()
    constants = {**DEFAULT_CONSTANTS, **(constants or {})}
    x0 = ens.x[0].copy() if x0 is None else np.asarray(x0, dtype=float)
    y0 = pick_support_velocity(ens) if y0 is None else np.asarray(y0, dtype=float)

    alpha = ens.alpha()
    sup = np.min(np.linalg.norm(ens.y - y0, axis=1))
    if sup > alpha + 1e-12 and warn is not False:
        import warnings

        warnings.warn("initial velocity is outside the ensemble support; "
                      "the comparison bounds do not apply there")
    energy = ens.energy()
    fn = field_norm(field, x0)
    m0 = ens.moments()

    def twins(tau_end):
        rec_l = push_lorentz(field, x0, y0, (0.0, tau_end), cfg)
        try:
            rec_a = push_averaged_transported(field, x0, y0, m0,
                                              (0.0, tau_end), cfg)
        except FloatingPointError as exc:
            if sup <= alpha + 1e-12:
                raise
            raise FloatingPointError(
                f"averaged twin failed ({exc}); its initial velocity lies "
                f"{sup:.6g} from the nearest sample of a bunch of diameter "
                f"alpha = {alpha:.6g}, outside the support, where the "
                "averaged connection need not keep it timelike") from exc
        return rec_l, rec_a

    # proper-time horizon covering lab time t_end (x^0 advances at rate y^0 >= E)
    tau_end = 1.05 * t_end / energy + 10 * cfg.step
    rec_l, rec_a = twins(tau_end)
    retries = 0
    while rec_l.x[-1, 0] < x0[0] + t_end or rec_a.x[-1, 0] < x0[0] + t_end:
        retries += 1
        tau_end *= 1.25
        rec_l, rec_a = twins(tau_end)

    times = x0[0] + np.linspace(0.0, t_end, n_out)
    lab_l = to_lab_time(rec_l, times)
    lab_a = to_lab_time(rec_a, times)

    pos_sep = bar_norm(lab_a.x - lab_l.x)
    vel_sep = bar_norm(lab_a.y - lab_l.y)
    ts = times - x0[0]
    C, C2, B2 = constants["C"], constants["C2"], constants["B2"]
    K, K2, D2 = constants["K"], constants["K2"], constants["D2"]
    pos_bound = 2.0 * (C * fn + C2 ** 2 * (1.0 + B2 * alpha)) \
        * alpha ** 2 * energy ** -2 * ts ** 2
    vel_bound = (K * fn + K2 ** 2 * (1.0 + D2 * alpha)) \
        * alpha ** 2 * energy ** -1 * ts

    from .geometry import minkowski

    e_series = np.abs(lab_l.y[:, 0])
    dlogE = np.max(np.abs(np.gradient(np.log(e_series), times))) if n_out > 2 else 0.0
    diagnostics = {
        "norm_drift_averaged": float(np.max(np.abs(
            minkowski(lab_a.y, lab_a.y) - 1.0))),
        "norm_drift_lorentz": rec_l.stats["max_drift"],
        "dlogE_dt_max": float(dlogE),
        "adiabatic_flag": bool(dlogE > 0.01),
        "horizon_retries": retries,
    }
    return ComparisonReport(ts, pos_sep, vel_sep, pos_bound, vel_bound,
                            alpha, energy, fn, diagnostics)


@dataclass
class ScalingFit:
    param: str
    points: list
    slope: float
    intercept: float
    r2: float


def fit_scaling(points, param="param"):
    """Least-squares power-law fit on log-log axes.

    points: sequence of (value, response), all positive; returns slope,
    intercept and the coefficient of determination R^2.
    """
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 4:
        raise ValueError("need at least 4 sweep points")
    if any(a <= 0 or b <= 0 for a, b in pts):
        raise ValueError("power-law fit needs positive data")
    lx = np.log([a for a, _ in pts])
    ly = np.log([b for _, b in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - np.sum(resid ** 2) / ss_tot
    return ScalingFit(param, pts, float(slope), float(intercept), float(r2))


@dataclass
class ValidityReport:
    t_max_position: float
    t_max_velocity: float
    l_max: float
    weak_flag: bool
    constants: dict


def validity_horizon(E0, alpha, f_norm, beam_length, constants=None):
    """Time and length horizons of the averaged description.

    t_max_position = (L_max / C1)^(1/2) (E0 / alpha) |F|^(-1/2)
    t_max_velocity = K (E0 / alpha) |F|^(-1)
    L_max          = A / |F|
    The field is weak for the beam when L_max exceeds the supplied beam
    length (the averaged description stays controlled along the machine).
    """
    constants = {**DEFAULT_CONSTANTS, **(constants or {})}
    if min(E0, alpha, f_norm, beam_length) <= 0:
        raise ValueError("all horizon inputs must be positive")
    C1, K, A = constants["C1"], constants["K"], constants["A"]
    l_max = A / f_norm
    t1 = np.sqrt(l_max / C1) * (E0 / alpha) / np.sqrt(f_norm)
    t2 = K * (E0 / alpha) / f_norm
    weak = bool(beam_length <= l_max)
    return ValidityReport(float(t1), float(t2), float(l_max), weak,
                          {"C1": C1, "K": K, "A": A})


def distribution_divergence(field, ens, t_end=10.0, n_out=21, cfg=None):
    """Phase-space displacement between kinetic and averaged transports.

    Pushes the same ensemble with the Lorentz flow and with the averaged
    flow (time-refreshed moments) and returns, per lab time, the maximum
    over samples of |x_L - x_A| + |y_L - y_A| in the observer metric — a
    Lipschitz proxy for the pointwise distribution difference.
    """
    cfg = cfg or IntegratorConfig()
    energy = ens.energy()
    tau_end = 1.1 * t_end / energy + 10 * cfg.step
    times = ens.x[0, 0] + np.linspace(0.0, t_end, n_out)
    _, slices_l = transport_ensemble(field, ens, (0.0, tau_end), cfg, times)
    _, slices_a = transport_ensemble_averaged(field, ens, (0.0, tau_end), cfg,
                                              times, moments="self")
    div = np.array([
        float(np.max(bar_norm(sl.x - sa.x) + bar_norm(sl.y - sa.y)))
        for sl, sa in zip(slices_l, slices_a)
    ])
    return times - ens.x[0, 0], div
