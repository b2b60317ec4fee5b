"""Weighted particle ensembles on the unit hyperboloid.

The one-particle distribution f(x, y) dvol is represented by an empirical
measure: samples (x_a, y_a, w_a) with eta(y_a, y_a) = 1 and y^0 > 0.  All
moments, the diameter alpha and the energy E of the bounds become weighted
sums / extrema over the samples, and support invariance under the particle
flow holds automatically (transport moves the samples themselves).
"""

import csv
import io

import numpy as np

from .geometry import ETA, LAB_OBSERVER, minkowski, sqrt_spd


def lift(v):
    """Lift spatial velocities to the unit hyperboloid: y = (sqrt(1+|v|^2), v)."""
    v = np.atleast_2d(np.asarray(v, dtype=float))
    y0 = np.sqrt(1.0 + np.sum(v * v, axis=1))
    out = np.column_stack([y0, v])
    return out[0] if out.shape[0] == 1 else out


class MomentSet:
    """First, second and third raw velocity moments of an ensemble.

    mean^i   = <y^i>
    second   = <y^i y^j>
    third    = <y^m y^s y^l>   (fully symmetric by construction)
    vol      = total weight
    """

    def __init__(self, vol, mean, second, third):
        self.vol = float(vol)
        self.mean = np.asarray(mean, dtype=float)
        self.second = np.asarray(second, dtype=float)
        self.third = np.asarray(third, dtype=float)

    @classmethod
    def from_samples(cls, y, w):
        y = np.asarray(y, dtype=float)
        w = np.asarray(w, dtype=float)
        vol = w.sum()
        if vol <= 0:
            raise ValueError("total weight must be positive")
        p = w / vol
        mean = p @ y
        py = p[:, None] * y
        second = py.T @ y
        # BLAS products: faster than einsum, and their blocked sums round
        # less on components of order E^3
        yy = (y[:, :, None] * y[:, None, :]).reshape(len(y), 16)
        third = (py.T @ yy).reshape(4, 4, 4)
        return cls(vol, mean, second, third)

    @classmethod
    def delta(cls, y):
        """Moments of a point (delta) distribution at velocity y."""
        y = np.asarray(y, dtype=float)
        return cls(1.0, y, np.outer(y, y), np.einsum("m,s,l->msl", y, y, y))


class Ensemble:
    """Immutable weighted phase-space samples on the unit hyperboloid."""

    def __init__(self, x, y, w=None, observer=LAB_OBSERVER, check=True,
                 metadata=None):
        self.x = np.atleast_2d(np.asarray(x, dtype=float)).copy()
        self.y = np.atleast_2d(np.asarray(y, dtype=float)).copy()
        n = self.y.shape[0]
        if self.x.shape[0] == 1 and n > 1:
            self.x = np.repeat(self.x, n, axis=0)
        self.w = (np.ones(n) if w is None
                  else np.asarray(w, dtype=float).copy())
        self.observer = np.asarray(observer, dtype=float)
        self.metadata = dict(metadata or {})
        if check:
            res = np.abs(minkowski(self.y, self.y) - 1.0)
            if np.max(res) > 1e-8:
                raise ValueError(
                    f"samples leave the unit hyperboloid (max residual {res.max():.3e})")
            if np.any(self.y[:, 0] <= 0):
                raise ValueError("velocities must be future pointing")
            if np.any(self.w < 0) or self.w.sum() <= 0:
                raise ValueError("weights must be nonnegative with positive total")

    def __len__(self):
        return self.y.shape[0]

    def moments(self):
        return MomentSet.from_samples(self.y, self.w)

    def energy(self):
        """E = inf over samples of the lab-frame y^0."""
        return float(np.min(self.y[:, 0]))

    def deltas(self):
        """Per-sample deviation from the mean velocity: delta_a = <y> - y_a."""
        return self.moments().mean[None, :] - self.y

    def alpha(self, bar=None):
        return diameter_alpha(self, bar)

    def with_state(self, x, y):
        """Same weights/metadata with transported positions and velocities."""
        return Ensemble(x, y, self.w, self.observer, check=False,
                        metadata=self.metadata)


def diameter_alpha(ens, bar=None):
    """Diameter alpha: max pairwise observer-metric chord distance of velocities.

    For the lab observer the observer metric is the identity, so this is the
    max pairwise Euclidean distance of the 4-velocity components.  Large
    ensembles go through a convex-hull reduction; small ones are brute force.
    """
    y = ens.y if isinstance(ens, Ensemble) else np.atleast_2d(np.asarray(ens, float))
    if bar is not None:
        y = y @ sqrt_spd(bar).T
    n = y.shape[0]
    if n < 2:
        return 0.0
    pts = np.unique(y, axis=0)
    if pts.shape[0] < 2:
        return 0.0
    if pts.shape[0] > 3000:
        pts = _hull_vertices(pts)
    # every on-shell sample is a hull vertex, so the reduction may be a
    # no-op; bound memory by scanning the Gram matrix in row blocks
    sq = np.sum(pts ** 2, axis=1)
    best = 0.0
    block = max(1, int(4e7) // max(pts.shape[0], 1))
    for i in range(0, pts.shape[0], block):
        d2 = sq[i:i + block, None] + sq[None, :] \
            - 2.0 * (pts[i:i + block] @ pts.T)
        best = max(best, float(d2.max()))
    return float(np.sqrt(max(best, 0.0)))


def _hull_vertices(pts):
    """Vertices of the convex hull of pts, in a full-rank principal subspace."""
    from scipy.spatial import ConvexHull, QhullError

    c = pts.mean(axis=0)
    z = pts - c
    _, s, vt = np.linalg.svd(z, full_matrices=False)
    keep = s > 1e-12 * max(s[0], 1.0)
    z = z @ vt[keep].T
    if z.shape[1] < 2:
        i, j = np.argmin(z[:, 0]), np.argmax(z[:, 0])
        return pts[[i, j]]
    try:
        hull = ConvexHull(z)
        return pts[hull.vertices]
    except QhullError:
        return pts


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def delta_ensemble(v=(0.0, 0.0, 0.0), x0=(0.0, 0.0, 0.0, 0.0), n=1):
    """Point distribution: n identical samples at the lifted velocity."""
    y = lift(np.asarray(v, dtype=float))
    return Ensemble(np.tile(np.asarray(x0, float), (n, 1)),
                    np.tile(y, (n, 1)),
                    metadata={"generator": "delta"})


def _boost_matrix(r0, axis=1):
    """Pure boost of rapidity r0 along a spatial axis."""
    L = np.eye(4)
    c, s = np.cosh(r0), np.sinh(r0)
    L[0, 0] = L[axis, axis] = c
    L[0, axis] = L[axis, 0] = s
    return L


def rapidity_cap(n, r0=0.0, r_cap=0.1, seed=0, axis=1,
                 aspect=(1.0, 1.0, 1.0), x0=(0.0, 0.0, 0.0, 0.0)):
    """Uniform rapidity cap: comoving rapidity ball of radius r_cap, boosted by r0.

    Rapidity vectors u are drawn uniformly from an ellipsoid with semi-axes
    r_cap * aspect (aspect[0] along the boost axis), lifted to the unit
    hyperboloid in the comoving frame and boosted by rapidity r0 along
    `axis`.  aspect=(1,1,1) is the isotropic cap with comoving-frame
    rapidity radius r_cap; aspect=(0,1,1) is a purely transverse cap, whose
    lab-frame diameter stays ~2 r_cap at any boost.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= rng.random(n)[:, None] ** (1.0 / 3.0)
    semi = r_cap * np.asarray(aspect, dtype=float)
    local = np.empty((n, 3))
    # aspect is given relative to the boost axis: component 0 longitudinal
    order = [axis - 1] + [i for i in range(3) if i != axis - 1]
    for k, dim in enumerate(order):
        local[:, dim] = u[:, k] * semi[k]
    r = np.linalg.norm(local, axis=1)
    r_safe = np.where(r > 0, r, 1.0)
    y_rest = np.column_stack([np.cosh(r), np.sinh(r)[:, None] * local / r_safe[:, None]])
    y = y_rest @ _boost_matrix(r0, axis).T
    y[:, 0] = np.sqrt(1.0 + np.sum(y[:, 1:] ** 2, axis=1))  # exact re-lift
    return Ensemble(np.tile(np.asarray(x0, float), (n, 1)), y,
                    metadata={"generator": "rapidity-cap", "r0": r0,
                              "r_cap": r_cap, "seed": seed, "axis": axis,
                              "aspect": tuple(aspect)})


def gaussian_cap(n, r0=0.0, sigma=0.05, trunc=3.0, seed=0, axis=1,
                 aspect=(1.0, 1.0, 1.0), x0=(0.0, 0.0, 0.0, 0.0)):
    """Truncated Gaussian in comoving rapidity, boosted by r0 along `axis`."""
    rng = np.random.default_rng(seed)
    out = np.empty((0, 3))
    while out.shape[0] < n:
        block = rng.standard_normal((2 * n, 3))
        block = block[np.linalg.norm(block, axis=1) <= trunc]
        out = np.vstack([out, block])
    u = out[:n] * sigma
    semi = np.asarray(aspect, dtype=float)
    order = [axis - 1] + [i for i in range(3) if i != axis - 1]
    local = np.empty((n, 3))
    for k, dim in enumerate(order):
        local[:, dim] = u[:, k] * semi[k]
    r = np.linalg.norm(local, axis=1)
    r_safe = np.where(r > 0, r, 1.0)
    y_rest = np.column_stack([np.cosh(r), np.sinh(r)[:, None] * local / r_safe[:, None]])
    y = y_rest @ _boost_matrix(r0, axis).T
    y[:, 0] = np.sqrt(1.0 + np.sum(y[:, 1:] ** 2, axis=1))
    return Ensemble(np.tile(np.asarray(x0, float), (n, 1)), y,
                    metadata={"generator": "gaussian-cap", "r0": r0,
                              "sigma": sigma, "trunc": trunc, "seed": seed,
                              "axis": axis, "aspect": tuple(aspect)})


GENERATORS = {
    "delta": delta_ensemble,
    "rapidity-cap": rapidity_cap,
    "gaussian-cap": gaussian_cap,
}


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

CSV_HEADER = ["t", "x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3", "w"]


def dump_csv(ens, path_or_buf):
    """Write an ensemble as CSV with the mandatory header row."""
    own = isinstance(path_or_buf, (str, bytes))
    f = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for xa, ya, wa in zip(ens.x, ens.y, ens.w):
            writer.writerow([f"{xa[0]:.17g}"]
                            + [f"{v:.17g}" for v in xa]
                            + [f"{v:.17g}" for v in ya]
                            + [f"{wa:.17g}"])
    finally:
        if own:
            f.close()


def load_csv(path_or_buf):
    """Read an ensemble written by dump_csv."""
    own = isinstance(path_or_buf, (str, bytes))
    f = open(path_or_buf, newline="") if own else path_or_buf
    try:
        reader = csv.reader(f)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = np.array([[float(v) for v in row] for row in reader])
    finally:
        if own:
            f.close()
    return Ensemble(rows[:, 1:5], rows[:, 5:9], rows[:, 9])


def dumps_csv(ens):
    buf = io.StringIO()
    dump_csv(ens, buf)
    return buf.getvalue()
