"""System Hamiltonian assembly, the effective cavity-mediated exchange
between gate qubits, and the beams' loss rates.

All rates are angular frequencies (rad/s) with hbar = 1. JSON configs carry
frequencies in Hz under mandatory `*_hz` keys and are multiplied by 2*pi on
ingestion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duffing import DuffingSpectrum, duffing_hamiltonian
from .fockspace import annihilation_op, embed, quadrature_op
from .schema import check, check_fields

HBAR_SI = 6.62607015e-34 / (2 * np.pi)  # J s, exact in the 2019 SI
KB_SI = 1.380649e-23  # J/K, exact in the 2019 SI


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
    positive. Optional fields default to None; `beam_loss` fills gamma_m from
    Q and n_th from T when absent, and a given one must agree with them.
    eps_L, the published drive amplitude, is recorded and echoed but read by
    nothing.
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
        # a given rate must agree with the rule it follows from, to 1e-10 relative
        for name, given, rule, derived in self._loss_rules():
            if None not in (given, derived) and abs(given - derived) > 1e-10 * max(derived, 1e-300):
                raise ValueError(f"{name} = {given} inconsistent with {rule} = {derived}")

    def _loss_rules(self) -> tuple[tuple[str, float | None, str, float | None], ...]:
        """(name, given value, rule, derived value) of each beam loss rate:
        gamma_m = omega_G/Q and n_th = thermal_occupation(omega_G, T), each
        derived value None without omega_G and its source, Q or T."""
        w, Q, T = self.omega_G, self.Q, self.T
        return (("gamma_m", self.gamma_m, "omega_G/Q", w / Q if Q and w else None),
                ("n_th", self.n_th, "thermal_occupation(omega_G, T)",
                 thermal_occupation(w, T) if T is not None and w else None))

    def beam_loss(self) -> tuple[float, float]:
        """(gamma_m, n_th) of each beam: the given value, or else the one its
        rule derives, each 0 without Q or T (or without omega_G)."""
        return tuple(given if given is not None else derived or 0.0
                     for _, given, _, derived in self._loss_rules())

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


def thermal_occupation(omega: float, T: float) -> float:
    """Bose-Einstein occupation 1/(exp(hbar omega / kB T) - 1); 0, its limit,
    at T = 0 and wherever hbar omega / kB T overflows or kB T underflows."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if T < 0:
        raise ValueError("temperature must be nonnegative")
    with np.errstate(over="ignore", divide="ignore"):
        return float(1.0 / np.expm1(np.float64(HBAR_SI * omega) / (KB_SI * T)))


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

    each beam's last term `duffing.duffing_hamiltonian`, embedded at its slot.
    """
    if len(dims) != 3:
        raise ValueError(f"space must have exactly 3 factors (cavity, beam, beam), got {len(dims)}")
    a = embed(annihilation_op(dims[0]), dims, 0)
    x_c = embed(cavity_quadrature(dims[0], quadrature_convention), dims, 0)
    x1, x2 = (embed(quadrature_op(dims[slot]), dims, slot) for slot in (1, 2))
    beams = [p.g_G * (x_c @ x_j) + embed(duffing_hamiltonian(p.omega_G, p.lam, dims[slot]), dims, slot)
             for slot, x_j in ((1, x1), (2, x2))]
    # the beam terms summed first, so that H is exactly invariant under the beam swap
    h = (-p.Delta) * (a.conj().T @ a) + (beams[0] + beams[1])
    return h - p.G_tilde * (x1 @ x2)


def exchange_rate(Delta: float, omega_G: float, g_G: float, X_G_sq: float) -> float:
    """Second-order exchange rate Omega = Delta X_G^2 g_G^2 / (Delta^2 - omega_G^2);
    ValueError at |Delta| = omega_G, where it diverges, and inf where a square
    overflows; its callers refuse a rate that is not finite."""
    try:
        if Delta**2 == omega_G**2:
            raise ValueError("the exchange rate needs |Delta| != omega_G; it diverges there")
        return float(Delta * X_G_sq * g_G**2 / (Delta**2 - omega_G**2))
    except OverflowError:  # a square past the float range
        return np.inf


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

