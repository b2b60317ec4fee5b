"""Reference computations the benchmark checks the program against.

Nothing here calls ``avbeam``: each reference is computed from the inputs
by a route of its own (pairwise differences instead of the Gram-matrix
scan, closed forms instead of integration, the budget formulas written out
from their published form).
"""

import numpy as np

#: Minkowski metric, signature (+,-,-,-).
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

#: Order-one constants of the separation budgets and horizons (all 4).
BUDGET_CONSTANTS = {"C": 4.0, "C2": 4.0, "B2": 4.0, "K": 4.0, "K2": 4.0,
                    "D2": 4.0, "C1": 4.0, "A": 4.0}


def brute_alpha(y, block=256):
    """Exact maximum pairwise Euclidean distance of the rows of y.

    Forms the differences y_a - y_b directly, block by block, so the result
    carries none of the cancellation of |a|^2 + |b|^2 - 2 a.b.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    best = 0.0
    for i in range(0, y.shape[0], block):
        d = y[i:i + block, None, :] - y[None, :, :]
        best = max(best, float(np.max(np.einsum("abk,abk->ab", d, d))))
    return float(np.sqrt(best))


def alpha_lower_bound(y):
    """Largest distance between the two extreme samples of any coordinate.

    Every such pair is a pair of samples, so the diameter is at least this.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    pairs = zip(np.argmin(y, axis=0), np.argmax(y, axis=0))
    return max(float(np.linalg.norm(y[i] - y[j])) for i, j in pairs)


def field_norm(F_lowered):
    """Spectral norm of the mixed tensor F^i_j = eta^ik F_kj (lab observer)."""
    return float(np.linalg.norm(ETA @ np.asarray(F_lowered, float), 2))


def separation_budget(alpha, energy, f_norm, t):
    """Position and velocity budgets of the twin comparison at lab times t.

    position: 2 (C |F| + C2^2 (1 + B2 alpha)) alpha^2 E^-2 t^2
    velocity:   (K |F| + K2^2 (1 + D2 alpha)) alpha^2 E^-1 t
    """
    c = BUDGET_CONSTANTS
    t = np.asarray(t, dtype=float)
    pos = 2.0 * (c["C"] * f_norm + c["C2"] ** 2 * (1.0 + c["B2"] * alpha)) \
        * alpha ** 2 / energy ** 2 * t ** 2
    vel = (c["K"] * f_norm + c["K2"] ** 2 * (1.0 + c["D2"] * alpha)) \
        * alpha ** 2 / energy * t
    return pos, vel


def t_max_position(energy, alpha, f_norm):
    """Position horizon sqrt(L_max / C1) (E / alpha) |F|^-1/2, L_max = A/|F|."""
    c = BUDGET_CONSTANTS
    l_max = c["A"] / f_norm
    return float(np.sqrt(l_max / c["C1"]) * (energy / alpha)
                 / np.sqrt(f_norm))


def loglog_slope(points):
    """Least-squares slope and r^2 of log(response) against log(value)."""
    x, y = np.log(np.asarray(points, dtype=float)).T
    A = np.column_stack([x, np.ones_like(x)])
    (slope, icpt), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + icpt)
    ss = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 - float(np.sum(resid ** 2)) / ss if ss else 1.0


def gyration(gamma, b):
    """Radius and lab-time period of gyromotion in a constant field b."""
    return np.sqrt(gamma ** 2 - 1.0) / b, 2.0 * np.pi * gamma / b


def hill_principal(K, c, s):
    """Principal pair (C, S) of u'' + c u' + K u = 0 with constant K, c.

    Only the two families the presets have: undamped (c = 0) with any K,
    and the damped drift K = 0.
    """
    s = np.asarray(s, dtype=float)
    if c != 0.0:
        if K != 0.0:
            raise ValueError("damped reference only for K = 0")
        return np.ones_like(s), (1.0 - np.exp(-c * s)) / c
    if K > 0:
        w = np.sqrt(K)
        return np.cos(w * s), np.sin(w * s) / w
    if K < 0:
        w = np.sqrt(-K)
        return np.cosh(w * s), np.sinh(w * s) / w
    return np.ones_like(s), s


def hill_wronskian(c, s):
    """Abel's formula: C S' - S C' = exp(-c s) for constant damping c."""
    return np.exp(-c * np.asarray(s, dtype=float))


def hill_unit_response(K, c, s):
    """Solution of u'' + c u' + K u = 1 with u(0) = u'(0) = 0."""
    s = np.asarray(s, dtype=float)
    if c != 0.0:
        if K != 0.0:
            raise ValueError("damped reference only for K = 0")
        return s / c - (1.0 - np.exp(-c * s)) / c ** 2
    if K > 0:
        return (1.0 - np.cos(np.sqrt(K) * s)) / K
    if K < 0:
        return (np.cosh(np.sqrt(-K) * s) - 1.0) / -K
    return 0.5 * s ** 2
