"""Mean-field (fluid) closure of the averaged dynamics.

The fluid velocity V is the mean 4-velocity over cells of a co-moving tube
around the ensemble centroid.  The averaged-connection fluid equation

    V^j d_j V^i + <Gamma>^i_jk V^j V^k = residual^i

is not exactly zero: the residual measures the closure error of replacing
kinetic transport by its first moment and scales like the squared
velocity-support diameter alpha^2.  This module computes the residual by
central differences across lab-time slices and tube cells, the normalized
variant

    residual / eta(V,V) + 1/2 (V . d log eta(V,V)) V,

discrete Sobolev norms on a velocity grid, and the theoretical residual
budget

    (vol_E^(1/2)(supp f) / vol(supp f)) <(y^0)^2>^(1/2)
        (sum_k ||d_0 log delta^k||_{0,2}) ||f||_{1,1} alpha^2  +  10 alpha^3

with vol the f-weighted support volume, vol_E the Euclidean one,
delta^k(y) = <y>^k - y^k, all evaluated in the momentary rest frame of the
mean velocity (d_0 is the rest-frame time derivative across adjacent
slices, where <(y^0)^2>^(1/2) ~ 1).  Grid cells where some |delta^k| falls
below 1e-8 alpha are excluded from the log term and counted.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import boost_to_rest, minkowski
from .connections import averaged_table
from .distribution import MomentSet, diameter_alpha
from .dynamics import (IntegratorConfig, TransportedMoments, history_at,
                       transport_ensemble, transport_ensemble_averaged)

#: Cells across the co-moving tube.
DEFAULT_CELLS = 5
#: Tube cell width in units of the positional spread.
WIDTH_FACTOR = 4.0
#: Higher-order allowance coefficient of the residual budget.
ALLOWANCE = 10.0


@dataclass
class FluidSlice:
    """Mean-field data of one ensemble snapshot (one lab time)."""

    t: float                      # lab time of the slice
    centroid: np.ndarray          # weighted mean position (4,)
    V: np.ndarray                 # global weighted mean velocity (4,)
    axis: int                     # tube binning axis (1..3), 0 if degenerate
    centers: np.ndarray           # cell centers along the tube axis
    cell_V: np.ndarray            # (n_cells, 4) per-cell mean velocities
    cell_moments: list            # per-cell MomentSet, None for empty cells
    cell_weight: np.ndarray       # (n_cells,) per-cell total weight
    moments: MomentSet = None     # global MomentSet of the snapshot

    def occupied(self):
        return self.cell_weight > 0


def mean_field(slices, n_cells=DEFAULT_CELLS, width_factor=WIDTH_FACTOR):
    """Co-moving tube average of the velocity field.

    slices: one ensemble or a time-indexed sequence of ensembles.  Cells are
    laid out along the spatial axis of largest positional spread, n_cells
    across, total width width_factor * spread, centred on the weighted
    centroid.  With coincident positions (or n_cells < 2) the tube collapses
    to a single all-enclosing cell whose V is the global moment mean.
    """
    if not hasattr(slices, "moments"):
        return [mean_field(e, n_cells, width_factor) for e in slices]
    ens = slices
    p = ens.w / ens.w.sum()
    centroid = p @ ens.x
    moments = ens.moments()
    V = moments.mean
    t = float(centroid[0])
    spread = np.sqrt(p @ (ens.x[:, 1:] - centroid[1:]) ** 2)
    axis = int(np.argmax(spread)) + 1
    width = width_factor * spread[axis - 1]
    if width <= 0 or n_cells < 2:
        return FluidSlice(t, centroid, V, 0, np.array([centroid[0]]),
                          V[None, :], [moments], np.array([ens.w.sum()]),
                          moments)
    edges = centroid[axis] + np.linspace(-0.5, 0.5, n_cells + 1) * width
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.searchsorted(edges, ens.x[:, axis]) - 1, 0, n_cells - 1)
    cell_V = np.tile(V, (n_cells, 1))
    cell_w = np.zeros(n_cells)
    cell_ms = [None] * n_cells
    for c in range(n_cells):
        sel = idx == c
        if not np.any(sel):
            continue
        cell_w[c] = ens.w[sel].sum()
        cell_ms[c] = MomentSet.from_samples(ens.y[sel], ens.w[sel])
        cell_V[c] = cell_ms[c].mean
    if not np.any(cell_w > 0):
        raise ValueError("all tube cells are empty")
    return FluidSlice(t, centroid, V, axis, centers, cell_V, cell_ms,
                      cell_w, moments)


@dataclass
class ResidualReport:
    residual: np.ndarray          # (4,) fluid-equation residual
    normalized: np.ndarray        # (4,) normalized residual
    V: np.ndarray
    slice: FluidSlice
    diagnostics: dict = dc_field(default_factory=dict)

    def norm(self):
        return float(np.linalg.norm(self.residual))

    def normalized_norm(self):
        return float(np.linalg.norm(self.normalized))


def residual(field, ens, tau=0.05, h_tau=None, cfg=None,
             n_cells=DEFAULT_CELLS, transport="kinetic"):
    """Fluid-equation residual at the tube center by central differences.

    The ensemble is transported to proper times tau -/+ h and the advective
    derivative is assembled from the co-moving slices: the time difference
    at the tracked center cell carries the transport along the tube motion,
    and a spatial correction (V^i - V^0 cdot^i) d_i V from adjacent cells
    removes the part of the tube drift that differs from the fluid flow.
    The averaged-connection quadratic term is evaluated at the centroid
    with the center-slice moments.

    transport selects the advection of the samples: "kinetic" pushes them
    with the Lorentz flow, "averaged" as auto-parallels of the averaged
    connection (the mean field of the averaged kinetic equation).

    The stencil needs tau >= h_tau (h_tau defaults to max(tau/50, 1e-3));
    a tau - h_tau before the start of the transport raises ValueError
    (dynamics.history_at).
    """
    h_tau = h_tau or max(tau / 50.0, 1e-3)
    cfg = cfg or IntegratorConfig(step=min(h_tau / 4.0, 1e-3))
    span_end = tau + h_tau
    if transport == "averaged":
        taus, hist = transport_ensemble_averaged(field, ens, (0.0, span_end),
                                                 cfg, moments="self")
    else:
        taus, hist = transport_ensemble(field, ens, (0.0, span_end), cfg)
    e_m, e_0, e_p = (history_at(taus, hist, s)
                     for s in (tau - h_tau, tau, tau + h_tau))
    sl_m = mean_field(e_m, n_cells)
    sl_0 = mean_field(e_0, n_cells)
    sl_p = mean_field(e_p, n_cells)

    V = sl_0.V
    dt = sl_p.t - sl_m.t
    dV_dt = (sl_p.V - sl_m.V) / dt          # co-moving center difference
    cdot = (sl_p.centroid[1:] - sl_m.centroid[1:]) / dt

    advective = V[0] * dV_dt
    spatial_corr = np.zeros(4)
    if sl_0.axis > 0 and len(sl_0.centers) >= 3:
        c = len(sl_0.centers) // 2
        occ = sl_0.occupied()
        if occ[c - 1] and occ[c + 1]:
            dVi = (sl_0.cell_V[c + 1] - sl_0.cell_V[c - 1]) \
                / (sl_0.centers[c + 1] - sl_0.centers[c - 1])
            a = sl_0.axis
            spatial_corr = (V[a] - V[0] * cdot[a - 1]) * dVi
    adv = advective + spatial_corr

    G = averaged_table(field, sl_0.centroid, sl_0.moments)
    res = adv + np.einsum("ijk,j,k->i", G, V, V)

    g = float(minkowski(V, V))
    g_m = float(minkowski(sl_m.V, sl_m.V))
    g_p = float(minkowski(sl_p.V, sl_p.V))
    dlog_g = V[0] * (np.log(g_p) - np.log(g_m)) / dt
    normalized = res / g + 0.5 * dlog_g * V
    return ResidualReport(res, normalized, V, sl_0,
                          {"eta_VV": g, "V_dlog_eta_VV": float(dlog_g),
                           "dt": float(dt)})


def normalized_residual(field, ens, tau=0.05, h_tau=None, cfg=None,
                        n_cells=DEFAULT_CELLS, transport="kinetic"):
    """Norm-corrected residual (the mean velocity is not unit-normalized)."""
    return residual(field, ens, tau, h_tau, cfg, n_cells, transport).normalized


def noise_floor(field, ens, tau=0.05, h_tau=None, cfg=None,
                n_cells=DEFAULT_CELLS, transport="kinetic"):
    """Richardson estimate of the stencil truncation error of `residual`.

    The central differences are second order in the stencil step, so the
    error of the step-h result is about (4/3) |res(h) - res(h/2)|.  On a
    delta ensemble the true residual vanishes and this is the measured
    noise floor of the whole pipeline.
    """
    h_tau = h_tau or max(tau / 50.0, 1e-3)
    r1 = residual(field, ens, tau, h_tau, cfg, n_cells, transport)
    r2 = residual(field, ens, tau, h_tau / 2.0, cfg, n_cells, transport)
    return float(4.0 / 3.0 * np.linalg.norm(r1.residual - r2.residual))


# ---------------------------------------------------------------------------
# Discrete Sobolev norms on a velocity grid
# ---------------------------------------------------------------------------

def norm_1_1(values, spacing, measure=None):
    """|| f ||_{1,1} = integral of |f| + sum_k |d_k f| (midpoint rule).

    values: n-dimensional grid of cell-centred samples; spacing: per-axis
    cell widths; measure: optional per-cell volume weights (defaults to the
    product of spacings).
    """
    values = np.asarray(values, dtype=float)
    dv = np.prod(spacing) if measure is None else np.asarray(measure, float)
    total = np.abs(values)
    for k in range(values.ndim):
        total = total + np.abs(np.gradient(values, spacing[k], axis=k))
    return float(np.sum(total * dv))


def norm_0_2(values, spacing, measure=None):
    """|| g ||_{0,2} = (integral of |g|^2)^(1/2) (midpoint rule)."""
    values = np.asarray(values, dtype=float)
    dv = np.prod(spacing) if measure is None else np.asarray(measure, float)
    return float(np.sqrt(np.sum(values ** 2 * dv)))


@dataclass
class SobolevEstimate:
    lo: np.ndarray
    hi: np.ndarray
    grid_n: int
    f_1_1: float
    bins: int


def sobolev_norms(density, spacing):
    """Grid estimate of the W^{1,1} norm of a velocity-space density."""
    density = np.asarray(density, dtype=float)
    if np.any(density < 0):
        raise ValueError("density must be nonnegative")
    f11 = norm_1_1(density, spacing)
    return SobolevEstimate(np.zeros(density.ndim), np.asarray(spacing, float)
                           * np.asarray(density.shape),
                           density.shape[0], f11, int(density.size))


@dataclass
class BoundReport:
    bound: float                  # alpha^2 budget term
    allowance: float              # 10 alpha^3 higher-order allowance
    total: float
    vol: float
    vol_E: float
    f_norm_1_1: float
    log_delta_norms: np.ndarray   # (4,) per-component ||d_0 log delta^k||_{0,2}
    y0_factor: float              # <(y^0)^2>^(1/2) in the rest frame (~1)
    excluded: int                 # grid cells dropped by the |delta^k| cutoff
    alpha: float


def bound_rhs(field, ens, tau=0.05, h_tau=None, cfg=None, grid_n=8,
              cutoff_factor=1e-8, allowance=ALLOWANCE, transport="kinetic"):
    """Theoretical residual budget evaluated on a velocity-grid density.

    All ingredients live in the momentary rest frame of the mean velocity
    at proper time tau (the frame in which the observer has no spatial
    components): the slice at tau is binned onto a grid_n^3 grid of
    rest-frame velocities, delta^k(y) = <y>^k - y^k uses rest-frame
    components, and d_0 log |delta^k| is the rest-frame-time derivative at
    fixed grid velocity across adjacent slices.  For spatially constant
    fields the adjacent means come from the exact moment transport, so the
    time stencil can be made small enough that the mean's own motion does
    not mask the deviation field; otherwise the nearest transported slices
    are used.  alpha is the support diameter seen by the mean observer.
    Degenerate (single-point) support returns a zero budget.
    """
    uniform = field.uniform
    if h_tau is None:
        h_tau = 1e-6 if uniform else max(tau / 50.0, 1e-3)
    # with analytic means (uniform field) the step only resolves the slice
    cfg = cfg or IntegratorConfig(
        step=1e-3 if uniform else min(h_tau / 4.0, 1e-3))
    advect = (transport_ensemble_averaged if transport == "averaged"
              else transport_ensemble)
    kw = {"moments": "self"} if transport == "averaged" else {}
    taus, hist_sl = advect(field, ens, (0.0, tau + max(h_tau, 2 * cfg.step)),
                           cfg, **kw)
    e_0 = history_at(taus, hist_sl, tau)
    p = ens.w / ens.w.sum()
    m_0 = p @ e_0.y
    g = minkowski(m_0, m_0)
    lam = boost_to_rest(m_0 / np.sqrt(g))
    yb = e_0.y @ lam.T                           # rest-frame sample velocities
    alpha = diameter_alpha(yb)
    if alpha == 0.0:
        return BoundReport(0.0, 0.0, 0.0, float(ens.w.sum()), 0.0, 0.0,
                           np.zeros(4), 1.0, 0, 0.0)

    if uniform:
        tm = TransportedMoments(field, ens.moments())
        m_m = lam @ tm.at_tau(tau - h_tau).mean
        m_p = lam @ tm.at_tau(tau + h_tau).mean
        # rest-frame time advanced by the centroid between the two slices
        dt = 2.0 * h_tau * np.sqrt(g)
    else:
        e_m = history_at(taus, hist_sl, tau - h_tau)
        e_p = history_at(taus, hist_sl, tau + h_tau)
        m_m, m_p = lam @ (p @ e_m.y), lam @ (p @ e_p.y)
        dt = float((lam @ (p @ (e_p.x - e_m.x)))[0])

    v = yb[:, 1:]
    lo, hi = v.min(axis=0), v.max(axis=0)
    pad = np.maximum(1e-3 * np.maximum(hi - lo, 1e-12), 1e-12)
    lo, hi = lo - pad, hi + pad
    edges = [np.linspace(lo[k], hi[k], grid_n + 1) for k in range(3)]
    spacing = [(hi[k] - lo[k]) / grid_n for k in range(3)]
    weights, _ = np.histogramdd(v, bins=edges, weights=e_0.w)

    cell3 = float(np.prod(spacing))
    occupied = weights > 0
    vol = float(e_0.w.sum())                     # weighted support volume
    vol_E = float(np.sum(occupied) * cell3)      # Euclidean support volume
    f_density = np.where(occupied, weights / cell3, 0.0)
    f11 = norm_1_1(f_density, spacing)

    centers = np.meshgrid(*[0.5 * (e[:-1] + e[1:]) for e in edges],
                          indexing="ij")
    y0 = np.sqrt(1.0 + centers[0] ** 2 + centers[1] ** 2 + centers[2] ** 2)
    y_grid = np.stack([y0, centers[0], centers[1], centers[2]], axis=-1)
    y0_factor = float(np.sqrt(p @ yb[:, 0] ** 2))

    means = [m_m, lam @ m_0, m_p]
    cutoff = cutoff_factor * alpha
    log_norms = np.zeros(4)
    excluded = 0
    for k in range(4):
        d_m = means[0][k] - y_grid[..., k]
        d_0 = means[1][k] - y_grid[..., k]
        d_p = means[2][k] - y_grid[..., k]
        ok = occupied & (np.abs(d_m) >= cutoff) & (np.abs(d_0) >= cutoff) \
            & (np.abs(d_p) >= cutoff)
        excluded += int(np.sum(occupied & ~ok))
        rate = np.zeros_like(d_0)
        rate[ok] = (np.log(np.abs(d_p[ok])) - np.log(np.abs(d_m[ok]))) / dt
        log_norms[k] = float(np.sqrt(np.sum(rate[ok] ** 2 * cell3)))

    bound = (np.sqrt(vol_E) / vol) * y0_factor * log_norms.sum() \
        * f11 * alpha ** 2
    extra = allowance * alpha ** 3
    return BoundReport(float(bound), float(extra), float(bound + extra),
                       vol, vol_E, f11, log_norms, y0_factor, excluded,
                       float(alpha))
