import numpy as np
import pytest

from avbeam.fields import (FaradayField, Potential, PRESETS, check_closed,
                           field_norm, from_potential, make_preset)
from avbeam.geometry import ETA


def test_zero_preset():
    f = make_preset("zero")
    assert np.array_equal(f.lowered([0.3, 1.0, -2.0, 0.7]), np.zeros((4, 4)))


def test_normal_dipole_layout():
    f = make_preset("normal-dipole", b0=1.0)
    F = f.lowered(np.random.default_rng(0).normal(size=4))
    expect = np.zeros((4, 4))
    expect[1, 2], expect[2, 1] = 1.0, -1.0
    assert np.array_equal(F, expect)


def test_rf_cavity_substitution():
    f = make_preset("rf-cavity", e20=0.1, w_rf=2.0)
    x = np.array([0.0, 0.0, np.pi / 4.0, 0.0])
    F = f.lowered(x)
    assert F[0, 2] == pytest.approx(0.1 * np.sin(np.pi / 2.0))
    assert F[2, 0] == pytest.approx(-0.1)


def test_mixed_is_eta_contraction(rng):
    f = make_preset("normal-quad+dipole", b0=0.5, b1=2.0)
    x = rng.normal(size=4)
    assert np.array_equal(f.mixed(x), ETA @ f.lowered(x))


def test_all_presets_antisymmetric_and_closed(rng):
    params = {"longitudinal-E": {"e2": 0.3}}
    for kind in PRESETS:
        f = make_preset(kind, **params.get(kind, {}))
        for _ in range(10):
            x = rng.normal(size=4)
            F = f.lowered(x)
            assert np.allclose(F, -F.T, atol=1e-14), kind
            assert check_closed(f, x) < 1e-10, kind


def test_check_closed_flags_corrupted_field():
    """Hand oracle: with only F_12 = x^1 x^2 populated (antisymmetry broken),
    the cyclic sum d_1 F_12 + d_1 F_21 + d_2 F_11 = x^2, so the residual at
    x = (0,1,1,0) is 1."""

    def evaluator(x):
        F = np.zeros((4, 4))
        F[1, 2] = x[1] * x[2]
        return F

    bad = FaradayField(evaluator, name="corrupted")
    res = check_closed(bad, np.array([0.0, 1.0, 1.0, 0.0]), h=1e-3)
    assert res > 0.5
    assert res == pytest.approx(1.0, rel=1e-6)


def test_gradient_analytic_matches_finite_difference(rng):
    f = make_preset("rf-cavity", e20=0.2, w_rf=1.5)
    x = rng.normal(size=4)
    fd = FaradayField(f.lowered, name="fd-copy")
    assert np.allclose(f.gradient_lowered(x), fd.gradient_lowered(x, h=1e-5),
                       atol=1e-8)


def test_from_potential_exact_gradient_gauge():
    """F = dA; pure-gauge A = d(lambda) contributes nothing (d^2 = 0)."""
    A = Potential(lambda x: np.array([x[1], x[0], 0.0, 0.0]), name="A")
    f = from_potential(A)
    x = np.array([0.2, -0.4, 1.0, 0.3])
    assert np.allclose(f.lowered(x), 0.0, atol=1e-10)  # A is d(x0 x1)


def test_from_potential_constant_b_and_gauge_invariance(rng):
    """A = (0, 0, b x^1, 0) gives the constant-B layout; adding d(lambda)
    for a cubic lambda changes F by < 1e-6."""
    b = 1.3

    def base(x):
        return np.array([0.0, 0.0, b * x[1], 0.0])

    def lam_grad(x):
        # gradient of lambda = x0 x1 x2 + x3^3
        return np.array([x[1] * x[2], x[0] * x[2], x[0] * x[1],
                         3.0 * x[3] ** 2])

    f0 = from_potential(Potential(base), h=1e-4)
    f1 = from_potential(Potential(lambda x: base(x) + lam_grad(x)), h=1e-4)
    for _ in range(5):
        x = rng.normal(size=4)
        F0, F1 = f0.lowered(x), f1.lowered(x)
        assert F0[1, 2] == pytest.approx(b, abs=1e-8)
        assert np.max(np.abs(F0 - F1)) < 1e-6
        assert check_closed(f0, x, h=1e-3) < 1e-8


def test_field_norm_oracles():
    assert field_norm(make_preset("zero")) == 0.0
    # longitudinal E: mixed tensor has singular values e2
    assert field_norm(make_preset("longitudinal-E", e2=0.7)) == \
        pytest.approx(0.7)
    assert field_norm(make_preset("constant-B", b=2.0)) == pytest.approx(2.0)


def test_charge_sign_flips():
    fp = make_preset("normal-dipole", b0=1.0, charge_sign=1.0)
    fm = make_preset("normal-dipole", b0=1.0, charge_sign=-1.0)
    x = np.zeros(4)
    assert np.array_equal(fp.lowered(x), -fm.lowered(x))


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        make_preset("sextupole")


def probed_uniformity(field):
    """The two-point probe that field.uniform replaces: F(0) == F(x) for one
    fixed x."""
    x = np.array([0.3, -0.7, 0.9, 0.4])
    return bool(np.allclose(field.lowered(np.zeros(4)), field.lowered(x),
                            atol=1e-14))


@pytest.mark.parametrize("kind", sorted(PRESETS))
def test_presets_declare_the_probed_uniformity(kind):
    params = {"longitudinal-E": {"e2": 0.3}}
    f = make_preset(kind, **params.get(kind, {}))
    assert f.uniform is probed_uniformity(f)


def test_declared_uniformity_follows_the_gradient():
    assert make_preset("normal-quad+dipole", b0=1.0, b1=0.0).uniform
    assert make_preset("quad45+dipole", b0=1.0, b1=0.0).uniform
    assert not make_preset("normal-quad+dipole", b0=1.0, b1=0.4).uniform
    ramp = make_preset("longitudinal-E", e2=lambda z: 0.3 * z)
    assert not ramp.affine and not ramp.uniform
    assert not make_preset("rf-cavity").affine


def test_affine_presets_match_their_declaration(rng):
    for kind in ("normal-quad+dipole", "quad45+dipole", "normal-dipole",
                 "constant-E"):
        f = make_preset(kind)
        assert f.affine, kind
        for _ in range(5):
            x = rng.normal(size=4)
            expect = f.mixed0 + np.tensordot(x, f.gradient0, axes=1)
            assert np.allclose(f.mixed(x), expect, rtol=0.0, atol=1e-14), kind
            assert np.array_equal(f.gradient_mixed(x), f.gradient0), kind


def test_affine_field_needs_its_gradient():
    with pytest.raises(ValueError, match="gradient"):
        FaradayField(lambda x: np.zeros((4, 4)), affine=True)
