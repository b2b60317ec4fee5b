"""External electromagnetic fields as Faraday 2-form data.

A field is a map from a spacetime point x to the antisymmetric lowered-index
matrix F_ij(x).  Units are dimensionless (charge = mass = c = 1) and the
force convention is dy/dtau = +F.y with the mixed tensor
F^i_j = eta^{ik} F_kj; a charge_sign flag on the presets flips the sign.

The accelerator presets (dipole, quadrupoles, longitudinal electric field,
RF cavity) reproduce the standard matrix layouts of transverse and
longitudinal linear beam dynamics and carry analytic spatial derivatives.
"""

import numpy as np

from .geometry import ETA


class FaradayField:
    """Antisymmetric field-strength tensor with optional analytic gradient.

    evaluator(x) -> 4x4 lowered matrix F_ij;
    gradient(x)  -> (4,4,4) array dF[k,i,j] = d_k F_ij (optional; finite
    differences are used when absent).

    affine=True declares F(x) = F(0) + x^k d_k F with a constant analytic
    gradient; the field then carries mixed0 = F^i_j(0) and
    gradient0 = d_k F^i_j, so ensembles can be evaluated in one batch
    (dynamics.transport_ensemble).  uniform is true for an affine field
    whose declared gradient is zero: F does not depend on x, and kinetic
    transport takes the exact linear flow instead of RK steps.
    """

    def __init__(self, evaluator, gradient=None, name="custom", fd_step=1e-4,
                 *, affine=False):
        self._eval = evaluator
        self._grad = gradient
        self.name = name
        self.fd_step = fd_step
        self.affine = bool(affine)
        self.mixed0 = self.gradient0 = None
        if self.affine:
            if gradient is None:
                raise ValueError("an affine field needs its analytic gradient")
            self.mixed0 = ETA @ self.lowered(np.zeros(4))
            self.gradient0 = self.gradient_mixed(np.zeros(4))
        self.uniform = self.affine and not np.any(self.gradient0)

    def lowered(self, x):
        """F_ij(x) with both indices down."""
        return np.asarray(self._eval(np.asarray(x, dtype=float)), dtype=float)

    def mixed(self, x):
        """F^i_j(x) = eta^{ik} F_kj(x)."""
        return ETA @ self.lowered(x)

    def gradient_lowered(self, x, h=None):
        """dF[k,i,j] = d_k F_ij by analytic rule or central differences."""
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(x), dtype=float)
        h = self.fd_step if h is None else h
        out = np.empty((4, 4, 4))
        for k in range(4):
            dx = np.zeros(4)
            dx[k] = h
            out[k] = (self.lowered(x + dx) - self.lowered(x - dx)) / (2.0 * h)
        return out

    def gradient_mixed(self, x, h=None):
        """dF[k,i,j] = d_k F^i_j."""
        g = self.gradient_lowered(x, h)
        return np.einsum("il,klj->kij", ETA, g)


def check_closed(field, x, h=1e-4):
    """Residual of the closedness condition dF = 0 at x.

    Returns the maximum over index triples (i,j,k) of
    |d_i F_jk + d_j F_ki + d_k F_ij| with central-difference derivatives.
    Nonzero residuals flag either a non-closed 2-form or a broken
    antisymmetry in the evaluator.
    """
    x = np.asarray(x, dtype=float)
    dF = np.empty((4, 4, 4))
    for k in range(4):
        dx = np.zeros(4)
        dx[k] = h
        dF[k] = (field.lowered(x + dx) - field.lowered(x - dx)) / (2.0 * h)
    cyc = (np.einsum("ijk->ijk", dF)
           + np.einsum("jki->ijk", dF)
           + np.einsum("kij->ijk", dF))
    return float(np.max(np.abs(cyc)))


class Potential:
    """1-form potential A_i(x) with optional analytic Jacobian dA[i,j] = d_i A_j."""

    def __init__(self, evaluator, jacobian=None, name="potential"):
        self._eval = evaluator
        self._jac = jacobian
        self.name = name

    def __call__(self, x):
        return np.asarray(self._eval(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x, h=1e-4):
        if self._jac is not None:
            return np.asarray(self._jac(np.asarray(x, dtype=float)), dtype=float)
        x = np.asarray(x, dtype=float)
        out = np.empty((4, 4))
        for i in range(4):
            dx = np.zeros(4)
            dx[i] = h
            out[i] = (self(x + dx) - self(x - dx)) / (2.0 * h)
        return out


def from_potential(A, h=1e-4, name=None):
    """Faraday field F_ij = d_i A_j - d_j A_i from a potential 1-form."""

    def evaluator(x):
        J = A.jacobian(x, h)
        return J - J.T

    return FaradayField(evaluator, name=name or f"d({A.name})", fd_step=h)


def field_norm(field, x=None, bar=None):
    """Observer-metric operator norm of the mixed tensor F^i_j at x."""
    from .geometry import op_norm

    if x is None:
        x = np.zeros(4)
    return op_norm(field.mixed(x), bar)


# ---------------------------------------------------------------------------
# Preset catalog
# ---------------------------------------------------------------------------

def _const(M, name):
    M = np.asarray(M, dtype=float)
    zero_grad = np.zeros((4, 4, 4))
    return FaradayField(lambda x: M, gradient=lambda x: zero_grad, name=name,
                        affine=True)


def zero_field():
    return _const(np.zeros((4, 4)), "zero")


def _const_12(b, charge_sign, name):
    """Constant field with F_12 = b, F_21 = -b: rotation in the (1,2) plane."""
    F = np.zeros((4, 4))
    F[1, 2], F[2, 1] = b, -b
    return _const(charge_sign * F, name)


def constant_b(b=1.0, charge_sign=1.0):
    """Constant magnetic field along spatial axis 3: rotation in the (1,2) plane."""
    return _const_12(b, charge_sign, f"constant-B({b})")


def constant_e(e=1.0, axis=1, charge_sign=1.0):
    """Constant electric field along a spatial axis (hyperbolic motion)."""
    F = np.zeros((4, 4))
    F[0, axis], F[axis, 0] = e, -e
    return _const(charge_sign * F, f"constant-E({e},axis={axis})")


def normal_dipole(b0=1.0, charge_sign=1.0):
    """Normal bending dipole: F_12 = b0, F_21 = -b0."""
    return _const_12(b0, charge_sign, f"normal-dipole({b0})")


def skew_dipole(b0=1.0, charge_sign=1.0):
    """Skew dipole: sign-flipped layout of the normal dipole."""
    return _const_12(-b0, charge_sign, f"skew-dipole({b0})")


def normal_quad_dipole(b0=0.0, b1=1.0, charge_sign=1.0):
    """Normal quadrupole gradient b1 superposed on a dipole b0.

    F_12 = b0 - b1 x^1, F_23 = b1 x^3 (antisymmetric completion); linear in
    the transverse coordinates, with the analytic gradient supplied.
    """

    def evaluator(x):
        F = np.zeros((4, 4))
        F[1, 2] = b0 - b1 * x[1]
        F[2, 1] = -F[1, 2]
        F[2, 3] = b1 * x[3]
        F[3, 2] = -F[2, 3]
        return charge_sign * F

    grad = np.zeros((4, 4, 4))
    grad[1, 1, 2], grad[1, 2, 1] = -b1, b1
    grad[3, 2, 3], grad[3, 3, 2] = b1, -b1
    grad = charge_sign * grad
    return FaradayField(evaluator, gradient=lambda x: grad,
                        name=f"normal-quad+dipole({b0},{b1})", affine=True)


def quad45_dipole(b0=0.0, b1=1.0, charge_sign=1.0):
    """45-degree rotated quadrupole superposed on a dipole.

    F_12 = b0 + b1 x^3, F_23 = -b1 x^1; the sign of the F_23 completion is
    fixed by closedness (dF = 0), which the conventional layout with
    F_23 = +b1 x^1 violates.
    """

    def evaluator(x):
        F = np.zeros((4, 4))
        F[1, 2] = b0 + b1 * x[3]
        F[2, 1] = -F[1, 2]
        F[2, 3] = -b1 * x[1]
        F[3, 2] = -F[2, 3]
        return charge_sign * F

    grad = np.zeros((4, 4, 4))
    grad[3, 1, 2], grad[3, 2, 1] = b1, -b1
    grad[1, 2, 3], grad[1, 3, 2] = -b1, b1
    grad = charge_sign * grad
    return FaradayField(evaluator, gradient=lambda x: grad,
                        name=f"quad45+dipole({b0},{b1})", affine=True)


def longitudinal_e(e2, charge_sign=1.0):
    """Longitudinal electric field F_02 = E2(x^2); e2 is a scalar or callable."""
    if callable(e2):
        def evaluator(x):
            F = np.zeros((4, 4))
            v = e2(x[2])
            F[0, 2], F[2, 0] = v, -v
            return charge_sign * F

        return FaradayField(evaluator, name="longitudinal-E(fn)")
    F = np.zeros((4, 4))
    F[0, 2], F[2, 0] = e2, -e2
    return _const(charge_sign * F, f"longitudinal-E({e2})")


def rf_cavity(e20=0.1, w_rf=1.0, charge_sign=1.0):
    """Alternating longitudinal field F_02 = E2(0) sin(w_rf x^2)."""

    def evaluator(x):
        F = np.zeros((4, 4))
        v = e20 * np.sin(w_rf * x[2])
        F[0, 2], F[2, 0] = v, -v
        return charge_sign * F

    def gradient(x):
        g = np.zeros((4, 4, 4))
        dv = e20 * w_rf * np.cos(w_rf * x[2])
        g[2, 0, 2], g[2, 2, 0] = dv, -dv
        return charge_sign * g

    return FaradayField(evaluator, gradient=gradient,
                        name=f"rf-cavity({e20},{w_rf})")


PRESETS = {
    "zero": zero_field,
    "constant-B": constant_b,
    "constant-E": constant_e,
    "normal-dipole": normal_dipole,
    "skew-dipole": skew_dipole,
    "normal-quad+dipole": normal_quad_dipole,
    "quad45+dipole": quad45_dipole,
    "longitudinal-E": longitudinal_e,
    "rf-cavity": rf_cavity,
}


def make_preset(kind, **params):
    """Instantiate a catalog preset by name with keyword parameters."""
    if kind not in PRESETS:
        raise KeyError(f"unknown field preset {kind!r}; have {sorted(PRESETS)}")
    return PRESETS[kind](**params)
