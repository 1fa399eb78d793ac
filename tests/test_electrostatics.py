import numpy as np
import pytest
from scipy.constants import hbar

from phonongate.electrostatics import (
    BeamParams,
    BucklingError,
    FieldProfile,
    clamped_mode_shape,
    mode_integrals,
    nonlinearity_enhancement,
    tuned_frequency,
    zero_point_motion,
)

L = 0.5e-6


def flat_profile(w1, w2, n=501):
    x = np.linspace(0, L, n)
    return FieldProfile(L, x, np.full(n, w1), np.full(n, w2))


def beam():
    return BeamParams.from_beta(m_star=1e-18, omega_m0=2 * np.pi * 28.6e6, beta=1e8)


def test_mode_integrals_constant_field_constant_mode():
    c = 3.7e-4
    f0, _ = mode_integrals(flat_profile(c, 0.0), lambda x: np.full_like(x, 1 / np.sqrt(L)))
    assert f0 == pytest.approx(c * np.sqrt(L), rel=1e-12)


def test_mode_integrals_constant_curvature_normalized_mode():
    c = 2.2e5
    _, w00 = mode_integrals(flat_profile(0.0, c, n=20001), lambda x: clamped_mode_shape(x, L))
    assert w00 == pytest.approx(c, rel=1e-6)


def test_mode_integrals_zero_field():
    f0, _ = mode_integrals(flat_profile(0.0, 1.0), lambda x: clamped_mode_shape(x, L))
    assert f0 == 0.0


def test_mode_integrals_linear_in_samples():
    rng = np.random.default_rng(2)
    x = np.linspace(0, L, 101)
    w1a, w1b = rng.normal(size=101), rng.normal(size=101)
    w2 = np.zeros(101)
    mode = lambda xv: clamped_mode_shape(xv, L)
    fa, _ = mode_integrals(FieldProfile(L, x, w1a, w2), mode)
    fb, _ = mode_integrals(FieldProfile(L, x, w1b, w2), mode)
    fab, _ = mode_integrals(FieldProfile(L, x, 2 * w1a + 3 * w1b, w2), mode)
    assert fab == pytest.approx(2 * fa + 3 * fb, rel=1e-12)


def test_profile_needs_two_samples():
    with pytest.raises(ValueError):
        FieldProfile(L, [0.0], [1.0], [1.0])


def test_profile_sample_validation():
    with pytest.raises(ValueError):
        FieldProfile(L, [0.0, 2 * L], [0, 0], [0, 0])
    with pytest.raises(ValueError):
        FieldProfile(L, [L / 2, L / 4], [0, 0], [0, 0])


def test_profile_from_csv(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("x,w1,w2\n0.0,1.0,2.0\n2.5e-7,1.5,2.5\n5e-7,2.0,3.0\n")
    prof = FieldProfile.from_csv(path, L)
    assert prof.x.size == 3
    assert prof.w1[1] == 1.5


def test_profile_from_csv_header_mandatory(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.0,1.0,2.0\n5e-7,2.0,3.0\n")
    with pytest.raises(ValueError):
        FieldProfile.from_csv(path, L)


@pytest.mark.parametrize("body, length, field", [
    ("0,1,1\nnan,1,1\n", L, "x"),
    ("0,1,1\n2.5e-7,inf,1\n", L, "w1"),
    (None, float("nan"), "L"),
])
def test_profile_refuses_non_finite_input(tmp_path, body, length, field):
    # NaN passes every ordering check, and mode_integrals would return (nan, nan)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        if body is None:
            FieldProfile(length, [0.0, L], [1.0, 1.0], [1.0, 1.0])
        else:
            path = tmp_path / "profile.csv"
            path.write_text("x,w1,w2\n" + body)
            FieldProfile.from_csv(path, length)


def test_tuned_frequency_unsoftened():
    p = beam()
    assert tuned_frequency(p, 0.0) == p.omega_m0


def test_tuned_frequency_arithmetic():
    p = beam()
    w00 = 0.75 * p.m_star * p.omega_m0**2
    assert tuned_frequency(p, w00) == pytest.approx(p.omega_m0 / 2, rel=1e-12)
    assert tuned_frequency(p, -w00) == pytest.approx(p.omega_m0 / 2, rel=1e-12)


def test_tuned_frequency_buckling():
    p = beam()
    with pytest.raises(BucklingError):
        tuned_frequency(p, p.m_star * p.omega_m0**2)


def test_tuned_frequency_monotone():
    p = beam()
    scale = p.m_star * p.omega_m0**2
    ratios = np.linspace(0.0, 0.99, 40)
    freqs = [tuned_frequency(p, r * scale) for r in ratios]
    assert np.all(np.diff(freqs) < 0)


def test_enhancement_values():
    w0 = 2 * np.pi * 28.6e6
    assert nonlinearity_enhancement(w0, w0) == pytest.approx(1.0)
    # the published field example: halved frequency quadruples the quartic term
    assert nonlinearity_enhancement(w0, w0 / 2) == pytest.approx(4.0, rel=1e-12)
    assert nonlinearity_enhancement(w0, w0 / np.sqrt(2)) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        nonlinearity_enhancement(w0, 0.0)


def test_enhancement_composes_with_softening():
    p = beam()
    scale = p.m_star * p.omega_m0**2
    for ratio in (0.1, 0.5, 0.9):
        w_m = tuned_frequency(p, ratio * scale)
        assert nonlinearity_enhancement(p.omega_m0, w_m) == pytest.approx(
            1.0 / (1.0 - ratio), rel=1e-12
        )


def test_clamped_shape_boundary_conditions():
    assert clamped_mode_shape(0.0, L) == pytest.approx(0.0, abs=1e-9)
    assert clamped_mode_shape(L, L) == pytest.approx(0.0, abs=1e-6 / np.sqrt(L) * 1e-3)


def test_clamped_shape_normalized():
    x = np.linspace(0, L, 100001)
    norm = np.trapezoid(clamped_mode_shape(x, L) ** 2, x)
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_clamped_shape_peaks_at_center():
    x = np.linspace(0, L, 1001)
    vals = clamped_mode_shape(x, L)
    assert np.argmax(vals) == 500


def test_clamped_shape_domain():
    with pytest.raises(ValueError):
        clamped_mode_shape(-0.1 * L, L)
    with pytest.raises(ValueError):
        clamped_mode_shape(1.1 * L, L)


def test_beam_params_consistency():
    p = beam()
    chi = zero_point_motion(p.m_star, p.omega_m0)
    assert p.lambda0 == pytest.approx(p.beta * chi**4 / (2 * hbar), rel=1e-12)
    with pytest.raises(ValueError):
        BeamParams(p.m_star, p.omega_m0, p.beta, p.lambda0 * 1.01)


def test_zero_point_motion_errors():
    with pytest.raises(ValueError):
        zero_point_motion(-1.0, 1.0)
