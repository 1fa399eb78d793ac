"""Electrostatic frequency softening of clamped nanobeams.

Tip electrodes impose an energy density whose first and second transverse
derivatives (w1 = dW/dy|0, w2 = d2W/dy2|0) soften the fundamental mode and
thereby boost the quartic nonlinearity. Callers supply w1, w2 on a sample
grid; computing them from electrode geometry is out of scope.

The static force bias is assumed tuned to cancel the radiation-pressure
deflection, so no simulation ever carries a static displacement term; only
the frequency softening (W00) and the drive pulses enter the dynamics.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

HBAR_SI = 6.62607015e-34 / (2 * np.pi)  # J s, exact in the 2019 SI
# first positive root of cos(kL)*cosh(kL) = 1 (clamped-clamped fundamental)
CLAMPED_ROOT = 4.730040744862704


class BucklingError(ValueError):
    """Softening reached or exceeded the intrinsic restoring force."""


def zero_point_motion(m_star: float, omega: float) -> float:
    """chi_ZPM = sqrt(hbar / (2 m* omega)) in meters."""
    if m_star <= 0 or omega <= 0:
        raise ValueError("mass and frequency must be positive")
    return np.sqrt(HBAR_SI / (2.0 * m_star * omega))


@dataclass(frozen=True)
class FieldProfile:
    """Sampled electrostatic energy-density derivatives along one beam.

    x in meters on [0, L]; w1 in J/m^2, w2 in J/m^3. The screened
    polarizabilities are carried for documentation only.
    """

    L: float
    x: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    alpha_par: float | None = None
    alpha_perp: float | None = None

    def __post_init__(self):
        x, w1, w2 = (np.asarray(a, dtype=float) for a in (self.x, self.w1, self.w2))
        for name, value in (("L", self.L), ("x", x), ("w1", w1), ("w2", w2)):
            if not np.all(np.isfinite(value)):  # NaN passes every comparison below
                raise ValueError(f"{name} must be finite")
        if self.L <= 0:
            raise ValueError("beam length must be positive")
        if x.size < 2:
            raise ValueError("need at least 2 samples for quadrature")
        if x.shape != w1.shape or x.shape != w2.shape:
            raise ValueError("x, w1, w2 must have equal length")
        if np.any(np.diff(x) <= 0):
            raise ValueError("samples must be strictly sorted in x")
        if x[0] < 0 or x[-1] > self.L:
            raise ValueError("samples must lie within [0, L]")
        for name, arr in (("x", x), ("w1", w1), ("w2", w2)):
            object.__setattr__(self, name, arr)

    @classmethod
    def from_csv(cls, path, L: float, alpha_par=None, alpha_perp=None) -> "FieldProfile":
        """Load a profile from a CSV file with mandatory header x,w1,w2 (SI units)."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["x", "w1", "w2"]:
                raise ValueError(f"{path}: mandatory header row 'x,w1,w2' missing")
            rows = [[float(v) for v in row[:3]] for row in reader if row]
        data = np.asarray(rows, dtype=float)
        if data.size == 0:
            raise ValueError(f"{path}: no samples")
        return cls(L, data[:, 0], data[:, 1], data[:, 2], alpha_par, alpha_perp)


@dataclass(frozen=True)
class BeamParams:
    """Intrinsic mechanical parameters of one nanobeam.

    lambda0 must equal beta * chi_ZPM^4 / (2 hbar) for the intrinsic
    frequency; use `from_beta` to build a consistent set.
    """

    m_star: float
    omega_m0: float
    beta: float
    lambda0: float

    def __post_init__(self):
        if self.m_star <= 0 or self.omega_m0 <= 0:
            raise ValueError("mass and intrinsic frequency must be positive")
        expected = self.beta * self.chi_zpm**4 / (2.0 * HBAR_SI)
        scale = max(abs(expected), abs(self.lambda0), 1e-300)
        if abs(self.lambda0 - expected) > 1e-10 * scale:
            raise ValueError(
                f"lambda0 = {self.lambda0} inconsistent with beta (expected {expected})"
            )

    @property
    def chi_zpm(self) -> float:
        return zero_point_motion(self.m_star, self.omega_m0)

    @classmethod
    def from_beta(cls, m_star: float, omega_m0: float, beta: float) -> "BeamParams":
        chi = zero_point_motion(m_star, omega_m0)
        return cls(m_star, omega_m0, beta, beta * chi**4 / (2.0 * HBAR_SI))


def clamped_mode_shape(x, L: float):
    """Fundamental clamped-clamped Euler-Bernoulli shape, unit L2 norm on [0, L].

    The standard coefficient convention gives the shape an L2 norm of exactly
    sqrt(L), so the normalization constant is 1/sqrt(L).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > L):
        raise ValueError("x outside [0, L]")
    k = CLAMPED_ROOT / L
    sigma = (np.cosh(CLAMPED_ROOT) - np.cos(CLAMPED_ROOT)) / (
        np.sinh(CLAMPED_ROOT) - np.sin(CLAMPED_ROOT)
    )
    shape = (np.cosh(k * x) - np.cos(k * x)) - sigma * (np.sinh(k * x) - np.sin(k * x))
    out = shape / np.sqrt(L)
    return out if out.ndim else float(out)


def mode_integrals(profile: FieldProfile, mode) -> tuple[float, float]:
    """Trapezoidal F0 = int w1*phi dx and W00 = int w2*phi^2 dx on the sample grid."""
    phi = np.asarray(mode(profile.x), dtype=float)
    if phi.shape != profile.x.shape:
        raise ValueError("mode function must evaluate pointwise on the sample grid")
    f0 = float(np.trapezoid(profile.w1 * phi, profile.x))
    w00 = float(np.trapezoid(profile.w2 * phi**2, profile.x))
    return f0, w00


def tuned_frequency(params: BeamParams, W00: float) -> float:
    """Softened frequency omega_m = omega_m0 * sqrt(1 - |W00|/(m* omega_m0^2))."""
    limit = params.m_star * params.omega_m0**2
    ratio = abs(W00) / limit
    if ratio >= 1.0:
        raise BucklingError(
            f"|W00| = {abs(W00)} reaches the buckling threshold m*omega_m0^2 = {limit}"
        )
    return params.omega_m0 * np.sqrt(1.0 - ratio)


def nonlinearity_enhancement(omega_m0: float, omega_m: float) -> float:
    """Quartic-term boost lambda/lambda0 = (omega_m0/omega_m)^2."""
    if omega_m0 <= 0 or omega_m <= 0:
        raise ValueError("frequencies must be positive")
    return (omega_m0 / omega_m) ** 2
