"""System Hamiltonian assembly and the effective cavity-mediated exchange
between gate qubits.

All rates are angular frequencies (rad/s) with hbar = 1. JSON configs carry
frequencies in Hz under mandatory `*_hz` keys and are multiplied by 2*pi on
ingestion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duffing import DuffingSpectrum
from .fockspace import annihilation_op, embed, quadrature_op
from .schema import check, check_fields


class ResonanceProximityError(ValueError):
    """Detuning too close to a beam transition for the dispersive treatment."""


# dataclass field -> JSON key for Hz-valued entries (x 2*pi on load)
_HZ_KEYS = {
    "Delta": "Delta_hz",
    "g_G": "g_G_hz",
    "G_tilde": "G_tilde_hz",
    "omega_G": "omega_G_hz",
    "lam": "lambda_hz",
    "kappa": "kappa_hz",
    "gamma_m": "gamma_m_hz",
    "eps_L": "eps_L_hz",
}
_PLAIN_KEYS = {"n_th": "n_th", "T": "T", "Q": "Q"}
_KEYS = {**_HZ_KEYS, **_PLAIN_KEYS}


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of one scenario (angular frequencies, rad/s).

    Delta may carry either sign; every rate must be nonnegative, and Q
    positive. Optional fields default to None and are filled by the scenario
    runner (gamma_m from Q, n_th from T) when absent. eps_L, the published
    drive amplitude, is recorded and echoed but read by nothing.
    """

    Delta: float = 0.0
    g_G: float = 0.0
    G_tilde: float = 0.0
    omega_G: float = 0.0
    lam: float = 0.0
    kappa: float = 0.0
    gamma_m: float | None = None
    n_th: float | None = None
    eps_L: float | None = None
    T: float | None = None
    Q: float | None = None

    def __post_init__(self):
        check_fields(self, _KEYS)
        for name in ("g_G", "G_tilde", "omega_G", "kappa", "gamma_m", "n_th", "Q", "T"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")
        if self.Q == 0:
            raise ValueError("Q must be positive (a lossless beam is gamma_m_hz = 0), got 0")
        if self.gamma_m is not None and self.Q and self.omega_G:
            expected = self.omega_G / self.Q
            if abs(self.gamma_m - expected) > 1e-10 * max(abs(expected), 1e-300):
                raise ValueError(
                    f"gamma_m = {self.gamma_m} inconsistent with omega_G/Q = {expected}"
                )

    @classmethod
    def from_config(cls, mapping: dict) -> "PhysicalParams":
        """Build from a JSON-style mapping; frequencies must use `*_hz` keys."""
        known = set(_KEYS.values())
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown parameter keys {sorted(unknown)}; expected {sorted(known)}")
        kw = {f: check("float", key, mapping[key]) for f, key in _KEYS.items() if key in mapping}
        kw.update((f, 2.0 * np.pi * kw[f]) for f in _HZ_KEYS if f in kw)
        return cls(**kw)

    def to_config(self) -> dict:
        """Inverse of `from_config`: the set fields under their JSON keys, frequencies in Hz."""
        return {key: v / (2.0 * np.pi) if f in _HZ_KEYS else v
                for f, key in _KEYS.items() if (v := getattr(self, f)) is not None}


@dataclass(frozen=True)
class EffectiveGateParams:
    """Exchange rate and Stark shifts of the dispersive gate Hamiltonian."""

    Omega: float
    stark_shifts: tuple[float, float]
    X_G: float
    omega_G: float


def cavity_quadrature(dim: int, convention: str = "symmetric") -> np.ndarray:
    """X_c as (a+a†)/sqrt(2) ("symmetric") or a+a† ("bare").

    The bare form is the drive-phase-fixed quadrature (alpha real positive);
    the symmetric form mirrors the beam normalization, with g_G absorbing
    the residual sqrt(2).
    """
    if convention == "symmetric":
        return quadrature_op(dim)
    if convention == "bare":
        a = annihilation_op(dim)
        return a + a.conj().T
    raise ValueError(f"quadrature convention must be 'symmetric' or 'bare', got {convention!r}")


def system_hamiltonian(
    p: PhysicalParams, dims: tuple[int, ...], quadrature_convention: str = "symmetric"
) -> np.ndarray:
    """Linearized cavity + two driven Duffing beams on dims (cavity, beam, beam):

    H = -Delta a†a + sum_j g_G X_c X_j - G_tilde X_1 X_2
        + sum_j [omega_G b_j†b_j + (lam/2)(b_j† + b_j)^4]
    """
    if len(dims) != 3:
        raise ValueError(f"space must have exactly 3 factors (cavity, beam, beam), got {len(dims)}")
    a = embed(annihilation_op(dims[0]), dims, 0)
    x_c = embed(cavity_quadrature(dims[0], quadrature_convention), dims, 0)
    x1, x2 = (embed(quadrature_op(dims[slot]), dims, slot) for slot in (1, 2))
    beams = []
    for slot, x_j in ((1, x1), (2, x2)):
        b = embed(annihilation_op(dims[slot]), dims, slot)
        quartic = np.linalg.matrix_power(b + b.conj().T, 4)
        beams.append(p.g_G * (x_c @ x_j) + p.omega_G * (b.conj().T @ b) + (0.5 * p.lam) * quartic)
    # the beam terms summed first, so that H is exactly invariant under the beam swap
    h = (-p.Delta) * (a.conj().T @ a) + (beams[0] + beams[1])
    return h - p.G_tilde * (x1 @ x2)


def exchange_rate(Delta: float, omega_G: float, g_G: float, X_G_sq: float) -> float:
    """Second-order exchange rate Omega = Delta X_G^2 g_G^2 / (Delta^2 - omega_G^2);
    ValueError at |Delta| = omega_G, where it diverges."""
    if Delta**2 == omega_G**2:
        raise ValueError("the exchange rate needs |Delta| != omega_G; it diverges there")
    return float(Delta * X_G_sq * g_G**2 / (Delta**2 - omega_G**2))


def effective_gate_hamiltonian(spec: DuffingSpectrum, g_G: float, Delta: float) -> EffectiveGateParams:
    """Second-order exchange rate Omega = Delta X_G^2 g_G^2 / (Delta^2 - omega_G^2)
    and the per-level Stark sums, from a beam spectrum.

    Guards the dispersive assumption: every |Delta - delta_nm| within the
    trusted block must exceed 10 |g_G|.
    """
    k = spec.dim_trust
    for n in range(k):
        for m in range(k):
            if n == m:
                continue
            gap = abs(Delta - spec.delta[n, m])
            if gap < 10.0 * abs(g_G):
                raise ResonanceProximityError(
                    f"|Delta - delta[{n},{m}]| = {gap} < 10 g_G = {10*abs(g_G)}"
                )
    x10 = abs(spec.X[0, 1])
    omega_g = spec.delta[1, 0]
    omega = exchange_rate(Delta, omega_g, g_G, x10**2)
    shifts = []
    for level in (0, 1):
        s = 0.0
        for m in range(k):
            s += abs(spec.X[level, m]) ** 2 / (Delta + spec.delta[level, m])
        shifts.append(0.5 * g_G**2 * s)
    return EffectiveGateParams(float(omega), (shifts[0], shifts[1]), float(x10), float(omega_g))

