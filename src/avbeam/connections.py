"""Connection coefficients for charged-particle flows.

The Lorentz force dy/dtau = F.y is the auto-parallel equation
x'' + Gamma(x, x') x' x' = 0 of a velocity-dependent (Berwald-type)
connection with quadratic spray G^i(x,y) = -sqrt(eta(y,y)) F^i_j y^j.
Its coefficients split as Gamma = L + T (flat inertial frame):

    L^i_jk = -( F^i_j y_k + F^i_k y_j ) / (2 sqrt(eta(y,y)))
    T^i_jk = -(F y)^i (eta_jk - y_j y_k / eta(y,y)) / (2 sqrt(eta(y,y)))

T is transversal: T(y, y) = 0.  Dropping T gives the "tilde" connection
with identical auto-parallels on the unit hyperboloid but different
off-shell structure.  Averaging Gamma against a velocity distribution
gives an affine connection that depends only on the first and third
moments; its difference to the pointwise connection admits an exact
algebraic decomposition in the deviation delta = <y> - y.
"""

import numpy as np

from .geometry import ETA, lower, minkowski


class LorentzConnection:
    """Velocity-dependent connection whose auto-parallels are Lorentz orbits."""

    kind = "lorentz"

    def __init__(self, field):
        self.field = field

    def _parts(self, x, y):
        y = np.asarray(y, dtype=float)
        n2 = minkowski(y, y)
        if n2 <= 0:
            raise ValueError("connection defined only for timelike y (eta(y,y) > 0)")
        sq = np.sqrt(n2)
        Fm = self.field.mixed(x)
        ylow = lower(y)
        L = -(np.einsum("ij,k->ijk", Fm, ylow)
              + np.einsum("ik,j->ijk", Fm, ylow)) / (2.0 * sq)
        Fy = Fm @ y
        T = -np.einsum("i,jk->ijk", Fy,
                       ETA - np.outer(ylow, ylow) / n2) / (2.0 * sq)
        return L, T

    def coeffs(self, x, y):
        L, T = self._parts(x, y)
        return L + T

    def L_part(self, x, y):
        return self._parts(x, y)[0]

    def T_part(self, x, y):
        return self._parts(x, y)[1]

    def spray(self, x, y):
        """G^i(x,y) = Gamma^i_jk y^j y^k = -sqrt(eta(y,y)) F^i_j y^j."""
        y = np.asarray(y, dtype=float)
        n2 = minkowski(y, y)
        if n2 <= 0:
            raise ValueError("spray defined only for timelike y")
        return -np.sqrt(n2) * (self.field.mixed(x) @ y)


class TildeConnection(LorentzConnection):
    """Lorentz connection with the transversal part removed (Gamma = L)."""

    kind = "tilde"

    def coeffs(self, x, y):
        return self.L_part(x, y)

    def spray(self, x, y):
        y = np.asarray(y, dtype=float)
        return np.einsum("ijk,j,k->i", self.coeffs(x, y), y, y)


#: eta_js eta_kl as a (4, 4) sign table: lowers the last two indices of <y y y>
_ETA_ETA = np.outer(np.diag(ETA), np.diag(ETA))


def averaged_table(field, x, moments):
    """Coefficient table of the velocity-averaged Lorentz connection at x.

    <Gamma>^i_jk = -1/2 (F^i_j <y>_k + F^i_k <y>_j)
                   -1/2 F^i_m (<y^m> eta_jk - eta_js eta_kl <y^m y^s y^l>)

    For a delta distribution at y on the unit hyperboloid this contracts back
    to the pointwise Lorentz coefficients.
    """
    Fm = field.mixed(x)
    m = moments.mean
    L = Fm[:, :, None] * lower(m)                       # F^i_j <y>_k
    B = m[:, None, None] * ETA - moments.third * _ETA_ETA
    table = (Fm @ B.reshape(4, 16)).reshape(4, 4, 4)
    table += L
    table += L.transpose(0, 2, 1)
    # exact (j,k) symmetrization: rounding in the third-moment contraction
    # must not leave a spurious torsion
    return -0.25 * (table + table.transpose(0, 2, 1))


class TableConnection:
    """Affine connection given by an explicit coefficient table map x -> table."""

    kind = "custom"

    def __init__(self, table_fn):
        self._fn = table_fn if callable(table_fn) else (lambda x, t=table_fn: t)

    def coeffs(self, x, y=None):
        return np.asarray(self._fn(x), dtype=float)


def average_numeric(conn, ens, x=None):
    """Ensemble average of velocity-dependent coefficients (numeric oracle).

    Weighted mean of Gamma^i_jk(x, y_a) over the ensemble's velocity samples;
    the closed-form averaged coefficients must reproduce it exactly.
    """
    if x is None:
        x = ens.x[0]
    p = ens.w / ens.w.sum()
    table = np.zeros((4, 4, 4))
    for wa, ya in zip(p, ens.y):
        table += wa * conn.coeffs(x, ya)
    return TableConnection(lambda _x, t=table: t)


def berwald_from_spray(spray, h=1e-4):
    """Connection from the velocity Hessian: Gamma^i_jk = 1/2 d^2 G^i / dy^j dy^k."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")

    def table(x, y):
        y = np.asarray(y, dtype=float)
        G = np.empty((4, 4, 4))
        for j in range(4):
            ej = np.zeros(4)
            ej[j] = h
            for k in range(j, 4):
                if j == k:
                    val = (spray(x, y + ej) - 2.0 * spray(x, y)
                           + spray(x, y - ej)) / (h * h)
                else:
                    ek = np.zeros(4)
                    ek[k] = h
                    val = (spray(x, y + ej + ek) - spray(x, y + ej - ek)
                           - spray(x, y - ej + ek) + spray(x, y - ej - ek)
                           ) / (4.0 * h * h)
                G[:, j, k] = val
                G[:, k, j] = val
        return 0.5 * G

    class BerwaldConnection:
        kind = "berwald-generic"

        def coeffs(self, x, y):
            return table(x, y)

    return BerwaldConnection()


def torsion(conn, x, y=None):
    """Torsion table Gamma^i_jk - Gamma^i_kj (zero for all shipped constructions)."""
    t = conn.coeffs(x, y) if y is not None else conn.coeffs(x)
    return t - np.transpose(t, (0, 2, 1))


def difference(field, moments, x, y, tol=1e-8):
    """Exact acceleration gap between pointwise and averaged connections.

    For y on the unit hyperboloid, with m = <y>, delta = m - y and
    d = eta(m, y) - 1, the gap

        exact^i = (Gamma^i_jk(x,y) - <Gamma>^i_jk(x)) y^j y^k

    decomposes exactly into

        leading = -F.delta * d
        O2      = -1/2 F.( m (d^2 + yC2y) + 2 (1+d) C2.y )
        O3      = +1/2 F.( C3 : y y )

    where C2, C3 are the second and third central velocity moments and
    contractions with y use the lowered index.  Returns
    (exact, leading, O2, O3).
    """
    y = np.asarray(y, dtype=float)
    if abs(minkowski(y, y) - 1.0) > tol:
        raise ValueError("difference evaluated off the unit hyperboloid")
    conn = LorentzConnection(field)
    exact = (np.einsum("ijk,j,k->i", conn.coeffs(x, y), y, y)
             - np.einsum("ijk,j,k->i", averaged_table(field, x, moments), y, y))

    Fm = field.mixed(x)
    m = moments.mean
    delta = m - y
    ylow = lower(y)
    d = float(m @ ylow) - 1.0

    C2 = moments.second - np.outer(m, m)
    C3 = (-2.0 * np.einsum("m,s,l->msl", m, m, m)
          + np.einsum("m,sl->msl", m, moments.second)
          + np.einsum("s,ml->msl", m, moments.second)
          + np.einsum("l,ms->msl", m, moments.second)
          - moments.third)

    C2y = C2 @ ylow
    yC2y = float(ylow @ C2y)
    C3yy = np.einsum("msl,s,l->m", C3, ylow, ylow)

    leading = -(Fm @ delta) * d
    O2 = -0.5 * (Fm @ (m * (d * d + yC2y) + 2.0 * (1.0 + d) * C2y))
    O3 = 0.5 * (Fm @ C3yy)
    return exact, leading, O2, O3
