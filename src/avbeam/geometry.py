"""Minkowski metric and boosts to an observer's rest frame.

The flat metric eta = diag(1,-1,-1,-1) acts on 4-vectors.  A unit timelike
observer U turns it into the positive definite metric

    eta_bar_U(X, Y) = -eta(X, Y) + 2 eta(X, U) eta(Y, U).

Every norm, diameter and distance in this package is measured by the lab
observer U = (1,0,0,0), for which eta_bar is the identity: they are
Euclidean norms of the components.  To measure for another observer u,
boost to its rest frame first: with L = boost_to_rest(u), eta_bar_u = L^T L,
so eta_bar_u distances are Euclidean distances of the boosted components.
"""

import numpy as np

# Flat Minkowski metric, signature (+,-,-,-).  Its own inverse.
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def minkowski(x, y):
    """eta(x, y) for 4-vectors (broadcasts over leading axes)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    return np.sum(x * y * signs, axis=-1)


def lower(y):
    """Lower the index of a (batch of) 4-vector(s): y_i = eta_ij y^j."""
    y = np.asarray(y, dtype=float)
    signs = np.array([1.0, -1.0, -1.0, -1.0])
    return y * signs


def boost_to_rest(u):
    """Pure Lorentz boost L with L u = (1, 0, 0, 0) for unit timelike u.

    Applying L to 4-vectors expresses them in the momentary rest frame of
    the observer u; Euclidean distances of boosted components equal
    eta_bar(u) chord distances of the originals.
    """
    u = np.asarray(u, dtype=float)
    if abs(minkowski(u, u) - 1.0) > 1e-8 or u[0] <= 0:
        raise ValueError("boost_to_rest needs a future unit timelike vector")
    g = u[0]
    v = u[1:]
    s = np.linalg.norm(v)
    L = np.eye(4)
    if s == 0.0:
        return L
    n = v / s
    L[0, 0] = g
    L[0, 1:] = L[1:, 0] = -s * n
    L[1:, 1:] = np.eye(3) + (g - 1.0) * np.outer(n, n)
    return L
