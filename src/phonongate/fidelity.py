"""The closed-form CNOT fidelity curves, the initial-state families and
`bloch_grid`, their Bloch-sphere quadrature.

Every initial-state family yields its kets as one (k, 4) array
(`InitialStateFamily.kets`): the named kets of a label list, or a Bloch grid
evaluated in one broadcast expression. Each (theta, phi) family is one row
of `BLOCH_FAMILIES`; a separable product is the product of two qubit rows.
`gate_fidelity_closed` broadcasts over such a batch.

The master-equation route takes its fidelities from density matrices
itself (`runner.master_fidelity_series`): the squared convention is the
overlap <u|rho|u>/tr(P rho) with the CNOT target u in the qubit subspace of
projector P, and the amplitude convention its square root, which common
master-equation toolkits use for a pure target and the reproduced figure
data follows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .schema import check_fields

FIDELITY_SLACK = 1e-9


def _clamp(value, slack: float = FIDELITY_SLACK):
    value = np.asarray(value, dtype=float)
    if np.any(value < -slack) or np.any(value > 1.0 + slack):
        raise ValueError(f"fidelity {value} outside [-{slack}, 1+{slack}]")
    out = np.clip(value, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _check_normalized(v: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """v with every ket along axis 0 checked to have unit norm."""
    v = np.asarray(v, dtype=complex)
    n = np.linalg.norm(v, axis=0)
    if np.any(abs(n - 1.0) > atol):
        raise ValueError(f"state norm {n} deviates from 1 beyond {atol}")
    return v


def gate_fidelity_closed(a, b, c, d, Omega_t):
    """Closed-form F_G(t) = |<psi_in| CNOT U_gate(t) |psi_in>|^2 for
    |psi_in> = a|00> + b|01> + c|10> + d|11>. The amplitudes and Omega_t
    broadcast: (k, 1) amplitudes of k kets and (n_t,) angles give (k, n_t)."""
    v = _check_normalized(np.array([a, b, c, d]))
    a, b, c, d = v
    Omega_t = np.asarray(Omega_t, dtype=float)
    cos1, cos2 = np.cos(Omega_t), np.cos(2 * Omega_t)
    sin1, sin2 = np.sin(Omega_t), np.sin(2 * Omega_t)
    amp = (
        abs(a) ** 2 + abs(d) ** 2 - 1j * a * np.conj(b) + 1j * d * np.conj(c)
        + ((d - 1j * c) * np.conj(a) - (c - 1j * d) * np.conj(b)
           + (1j * a + b) * np.conj(c) - (a + 1j * b) * np.conj(d)) * cos1
        - (abs(b) ** 2 - 1j * b * np.conj(a) + c * (np.conj(c) + 1j * np.conj(d))) * cos2
        + (1.0 + 1j * (b * np.conj(a) + a * np.conj(b) - d * np.conj(c) - c * np.conj(d))) * sin1
        + (1j * c * np.conj(a) - c * np.conj(b) + b * (np.conj(c) + 1j * np.conj(d))) * sin2
    )
    return _clamp(0.25 * np.abs(amp) ** 2)


def avg_fidelity_entangled(Omega_t):
    """Bloch average over Schmidt-form entangled inputs:
    (6 sin(Ot) - cos(2 Ot) + 5) / 12. Omega_t may be an array."""
    return (6 * np.sin(Omega_t) - np.cos(2 * Omega_t) + 5.0) / 12.0


def avg_fidelity_separable(Omega_t):
    """Two-sphere average over product inputs:
    (12 sin - 4 sin3 - 7 cos2 + cos4 + 12) / 36. Omega_t may be an array."""
    o = np.asarray(Omega_t, dtype=float)
    out = (12 * np.sin(o) - 4 * np.sin(3 * o) - 7 * np.cos(2 * o) + np.cos(4 * o) + 12.0) / 36.0
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# initial-state families


_S2, _S3 = 1 / np.sqrt(2), 1 / np.sqrt(3)
# the two-qubit kets the figure scenarios name, in the fixed basis order
NAMED_STATES = {
    "00": [1, 0, 0, 0],
    "01": [0, 1, 0, 0],
    "10": [0, 0, 1, 0],
    "11": [0, 0, 0, 1],
    "psi1": [_S2, _S2, 0, 0],
    "psi2": [_S2, 0, _S2, 0],
    "psi3": [0, _S2, 0, _S2],
    "psi4": [0, 0, _S2, _S2],
    "varphi1": [_S3, _S3, _S3, 0],
    "varphi2": [_S3, _S3, 0, _S3],
    "varphi3": [_S3, 0, _S3, _S3],
    "varphi4": [0, _S3, _S3, _S3],
    "four_equal": [0.5, 0.5, 0.5, 0.5],
}


def named_state(name: str) -> np.ndarray:
    """The ket NAMED_STATES gives a name."""
    if name not in NAMED_STATES:
        raise ValueError(f"unknown state name {name!r}; known: {sorted(NAMED_STATES)}")
    return np.asarray(NAMED_STATES[name], dtype=complex)


# (theta, phi) family -> (c, p, s, q): the family's ket at (theta, phi) is
# cos(theta/2) e^{i p phi} c + sin(theta/2) e^{i q phi} s
BLOCH_FAMILIES = {
    "schmidt": ((1, 0, 0, 0), 0, (0, 0, 0, 1), 1),
    "Phi1": ((0, _S2, _S2, 0), -1, (1, 0, 0, 0), 0),
    "Phi2": ((0, _S2, 0, _S2), -1, (1, 0, 0, 0), 0),
    "Phi3": ((0, 0, _S2, _S2), -1, (1, 0, 0, 0), 0),
    "Phi4": ((0, 0, _S2, _S2), -1, (0, 1, 0, 0), 0),
    "Psi": ((0, 0, _S2, _S2), -1, (_S2, _S2, 0, 0), 0),
}
_QUBIT = ((1, 0), 0, (0, 1), 1)  # cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>


def _sphere_ket(row, theta, phi) -> np.ndarray:
    """A BLOCH_FAMILIES-style row at scalar or array angles: (..., len(c))."""
    c, p, s, q = row
    half, phi = np.asarray(theta)[..., None] / 2, np.asarray(phi)[..., None]
    return np.cos(half) * np.exp(1j * p * phi) * c + np.sin(half) * np.exp(1j * q * phi) * s


def bloch_family(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The (theta, phi) -> (..., 4) kets of one BLOCH_FAMILIES row."""
    if name not in BLOCH_FAMILIES:
        raise ValueError(f"unknown Bloch family {name!r}; known: {sorted(BLOCH_FAMILIES)}")
    return partial(_sphere_ket, BLOCH_FAMILIES[name])


def separable_state(theta1, phi1, theta2, phi2) -> np.ndarray:
    """The product of two qubit kets on their Bloch spheres, broadcast: (..., 4)."""
    q1, q2 = _sphere_ket(_QUBIT, theta1, phi1), _sphere_ket(_QUBIT, theta2, phi2)
    prod = q1[..., :, None] * q2[..., None, :]
    return prod.reshape(prod.shape[:-2] + (4,))


LABEL_KINDS = ("fixed-list", "named-superposition")
# initial-state kind -> the keys of the config's `initial` sub-document it takes
_KIND_KEYS = {"fixed-list": ("labels",), "named-superposition": ("labels",),
              "schmidt-entangled": ("family", "grid"), "separable-product": ("grid",)}


@dataclass(frozen=True)
class InitialStateFamily:
    """Initial-state set for a scenario; owns the config's `initial`
    sub-document except `cavity_fock`, a scenario field.

    kind "fixed-list" / "named-superposition": `labels` names the kets.
    kind "schmidt-entangled": `family` names the (theta, phi)
    parametrization and `grid` the (n_theta, n_phi) sampling. kind
    "separable-product": two-sphere sampling with `grid` per sphere.
    `kets()` yields every kind's kets as one (k, 4) array.
    """

    kind: str
    labels: tuple[str, ...] = ()
    family: str | None = None
    grid: tuple[int, int] = (16, 16)

    def __post_init__(self):
        check_fields(self)
        if self.kind not in _KIND_KEYS:
            raise ValueError(f"unknown family kind {self.kind!r}; known: {sorted(_KIND_KEYS)}")
        if self.kind in LABEL_KINDS:
            if not self.labels or len(set(self.labels)) < len(self.labels):
                raise ValueError(f"{self.kind} needs distinct labels, got {list(self.labels)}")
            for lbl in self.labels:
                named_state(lbl)
        elif self.labels:
            raise ValueError(f"{self.kind} takes a grid, not labels")
        elif min(self.grid) < 8:
            raise ValueError("Bloch grids need at least 8 points per angle")
        if self.kind == "schmidt-entangled":
            object.__setattr__(self, "family", self.family or "schmidt")
            bloch_family(self.family)
        elif self.family is not None:
            raise ValueError(f"{self.kind} takes no family")

    @property
    def size(self) -> int:
        """The number of kets `kets()` yields, worked out without building them."""
        if self.kind in LABEL_KINDS:
            return len(self.labels)
        k = (self.grid[0] - 2) * self.grid[1]  # the two pole rows are dropped
        return k * k if self.kind == "separable-product" else k

    def kets(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The family's (k, 4) kets and their quadrature weights: a label
        list's kets in label order with weights None, or `bloch_grid`."""
        if self.kind in LABEL_KINDS:
            return np.array([NAMED_STATES[lbl] for lbl in self.labels], dtype=complex), None
        return bloch_grid(self)

    @classmethod
    def from_mapping(cls, doc: dict) -> "InitialStateFamily":
        """Parse the `initial` sub-document (`kind` defaults to fixed-list)."""
        doc = {"kind": "fixed-list", **doc}
        unknown = set(doc) - {"kind", *_KIND_KEYS.get(str(doc["kind"]), ())}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)} for initial kind {doc['kind']!r}")
        return cls(**doc)

    def to_mapping(self) -> dict:
        return {"kind": self.kind, **{key: getattr(self, key) for key in _KIND_KEYS[self.kind]}}


def bloch_grid(family: InitialStateFamily) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 4) kets and sin(theta)-weighted trapezoid weights of the
    family's Bloch grid: (theta, phi) points with theta outermost, or for
    separable-product every pair of points on two spheres, the first sphere
    outermost. The theta = 0 and theta = pi pole rows carry zero weight and
    are dropped."""
    n_theta, n_phi = family.grid
    thetas = np.linspace(0.0, np.pi, n_theta)[1:-1]
    phis = np.linspace(0.0, 2 * np.pi, n_phi)
    w_p = np.ones(n_phi); w_p[0] = w_p[-1] = 0.5
    weights = np.outer(np.sin(thetas), w_p).reshape(-1)
    theta, phi = (a.reshape(-1) for a in np.meshgrid(thetas, phis, indexing="ij"))
    if family.kind != "separable-product":
        return bloch_family(family.family)(theta, phi), weights
    kets = separable_state(theta[:, None], phi[:, None], theta, phi).reshape(-1, 4)
    return kets, np.outer(weights, weights).reshape(-1)
