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
            # NaN fails every comparison below, so test finiteness first
            if not all(np.all(np.isfinite(a)) for a in (self.x, self.y, self.w)):
                raise ValueError("positions, velocities and weights must be finite")
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


#: Pair entries per row block of the survivors' pairwise differences.
_PAIR_BLOCK = 1 << 19
#: Relative slack of the pruning radius: covers the rounding of the radii
#: and of the lower bound, so no endpoint of a diameter pair is dropped.
_PRUNE_SLACK = 1e-12


def _dist(d):
    """Euclidean norms along the last axis, from explicit differences."""
    return np.sqrt(np.sum(d * d, axis=-1))


def diameter_alpha(ens, bar=None):
    """Diameter alpha: max pairwise observer-metric chord distance of velocities.

    For the lab observer the observer metric is the identity, so this is the
    max pairwise Euclidean distance of the 4-velocity components; with `bar`
    the samples are first mapped by sqrt(bar).  The result is exact (every
    distance is formed from explicit differences, never from
    |a|^2 + |b|^2 - 2 a.b) and found by pruning:

    * c is the centroid of the samples, r_a = |y_a - c| and r_max = max r_a;
    * a double sweep (the farthest sample q from the farthest sample p from
      the sample farthest from c) gives a pair distance b <= alpha;
    * a pair at distance >= b has, by the triangle inequality
      |y_a - y_b| <= r_a + r_b <= r_a + r_max, both ends at r >= b - r_max.
      Only those samples are kept (less a relative slack of 1e-12 so that
      rounding cannot drop an endpoint), and their maximum pairwise distance
      is scanned in bounded row blocks.

    alpha is the larger of b and that maximum.  The dipole benchmark's
    transverse caps keep 60 to 400 of 20 000 samples; a set the pruning
    cannot shrink (samples on a sphere about c) is scanned whole, still
    exactly.  Non-finite samples raise ValueError.
    """
    y = ens.y if isinstance(ens, Ensemble) else np.atleast_2d(np.asarray(ens, float))
    if bar is not None:
        y = y @ sqrt_spd(bar).T
    if not np.all(np.isfinite(y)):
        raise ValueError("diameter_alpha needs finite samples")
    if y.shape[0] < 2:
        return 0.0
    r = _dist(y - y.mean(axis=0))
    r_max = float(r.max())
    p = y[int(np.argmax(_dist(y - y[int(np.argmax(r))])))]
    b = float(_dist(y - p).max())
    if b == 0.0:                # every sample equals p
        return 0.0
    z = y[r >= (b - r_max) - _PRUNE_SLACK * r_max]
    block = max(1, _PAIR_BLOCK // z.shape[0])
    for i in range(0, z.shape[0], block):
        b = max(b, float(_dist(z[i:i + block, None, :] - z[None, :, :]).max()))
    return b


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


def _boosted_cap(u, semi, r0, axis, x0, metadata):
    """Ensemble of the comoving rapidity vectors u[:, k] * semi[k]
    (k = 0 along the boost axis), lifted and boosted by r0 along `axis`."""
    n = len(u)
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
                    metadata=metadata)


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
    return _boosted_cap(u, semi, r0, axis, x0,
                        {"generator": "rapidity-cap", "r0": r0,
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
    return _boosted_cap(out[:n] * sigma, np.asarray(aspect, dtype=float), r0,
                        axis, x0,
                        {"generator": "gaussian-cap", "r0": r0,
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
