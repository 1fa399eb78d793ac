"""State and gate fidelities, the closed-form CNOT fidelity curves, the
initial-state families and `bloch_grid`, their Bloch-sphere quadrature.

`state_fidelity` is the overlap convention <target|rho|target>. The master-
equation figure pipeline additionally reports `amplitude_fidelity`, its
square root, which is the convention common master-equation toolkits use
for a pure target and the one the reproduced figure data follows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fockspace import QuantumState
from .gates import cnot_sequence, ideal_cnot
from .schema import check_fields

FIDELITY_SLACK = 1e-9

_CNOT = ideal_cnot().data


def _clamp(value, slack: float = FIDELITY_SLACK):
    value = np.asarray(value, dtype=float)
    if np.any(value < -slack) or np.any(value > 1.0 + slack):
        raise ValueError(f"fidelity {value} outside [-{slack}, 1+{slack}]")
    out = np.clip(value, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def state_fidelity(rho: QuantumState, target: QuantumState) -> float:
    """<target|rho|target> for a density matrix against a pure target."""
    if target.kind != "ket":
        raise ValueError("target must be a ket")
    if rho.space != target.space:
        raise ValueError("state and target live on different spaces")
    mat = rho.to_density().data
    return _clamp(float(np.real(target.data.conj() @ mat @ target.data)))


def amplitude_fidelity(rho: QuantumState, target: QuantumState) -> float:
    """sqrt(<target|rho|target>), the amplitude-convention fidelity."""
    return float(np.sqrt(state_fidelity(rho, target)))


def _check_normalized(v: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > atol:
        raise ValueError(f"state norm {n} deviates from 1 beyond {atol}")
    return v


def gate_fidelity_closed(a: complex, b: complex, c: complex, d: complex, Omega_t):
    """Closed-form F_G(t) = |<psi_in| CNOT U_gate(t) |psi_in>|^2 for
    |psi_in> = a|00> + b|01> + c|10> + d|11>. Omega_t may be an array."""
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


def gate_fidelity_matrix(psi_in: np.ndarray, Omega_t: float) -> float:
    """Matrix-path F_G through the composed gate sequence; the cross-check
    partner of gate_fidelity_closed."""
    v = _check_normalized(psi_in)
    u = cnot_sequence(Omega_t, 1.0).data
    return _clamp(float(abs(v.conj() @ _CNOT.conj().T @ u @ v) ** 2))


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


def named_state(name: str) -> np.ndarray:
    """Two-qubit kets used by the figure scenarios, in the fixed basis order."""
    s2, s3 = 1 / np.sqrt(2), 1 / np.sqrt(3)
    table = {
        "00": [1, 0, 0, 0],
        "01": [0, 1, 0, 0],
        "10": [0, 0, 1, 0],
        "11": [0, 0, 0, 1],
        "psi1": [s2, s2, 0, 0],
        "psi2": [s2, 0, s2, 0],
        "psi3": [0, s2, 0, s2],
        "psi4": [0, 0, s2, s2],
        "varphi1": [s3, s3, s3, 0],
        "varphi2": [s3, s3, 0, s3],
        "varphi3": [s3, 0, s3, s3],
        "varphi4": [0, s3, s3, s3],
        "four_equal": [0.5, 0.5, 0.5, 0.5],
    }
    if name not in table:
        raise ValueError(f"unknown state name {name!r}; known: {sorted(table)}")
    return np.asarray(table[name], dtype=complex)


def schmidt_state(theta: float, phi: float) -> np.ndarray:
    """cos(theta/2)|00> + e^{i phi} sin(theta/2)|11>."""
    return np.array([np.cos(theta / 2), 0, 0, np.exp(1j * phi) * np.sin(theta / 2)], dtype=complex)


def separable_state(theta1: float, phi1: float, theta2: float, phi2: float) -> np.ndarray:
    q1 = np.array([np.cos(theta1 / 2), np.exp(1j * phi1) * np.sin(theta1 / 2)])
    q2 = np.array([np.cos(theta2 / 2), np.exp(1j * phi2) * np.sin(theta2 / 2)])
    return np.kron(q1, q2).astype(complex)


def bloch_family(name: str) -> Callable[[float, float], np.ndarray]:
    """(theta, phi)-parameterized families; every sample is normalized
    explicitly before use."""
    s2 = 1 / np.sqrt(2)

    def make(weights_one: Sequence[int]):
        def state(theta: float, phi: float) -> np.ndarray:
            v = np.zeros(4, dtype=complex)
            head, tail = weights_one[0], weights_one[1:]
            v[head] = np.sin(theta / 2)
            for idx in tail:
                v[idx] += s2 * np.exp(-1j * phi) * np.cos(theta / 2)
            return v / np.linalg.norm(v)

        return state

    families = {
        "schmidt": lambda th, ph: schmidt_state(th, ph),
        "Phi1": make((0, 1, 2)),
        "Phi2": make((0, 1, 3)),
        "Phi3": make((0, 2, 3)),
        "Phi4": make((1, 2, 3)),
    }

    def psi_family(theta: float, phi: float) -> np.ndarray:
        v = np.array(
            [np.sin(theta / 2), np.sin(theta / 2),
             np.exp(-1j * phi) * np.cos(theta / 2), np.exp(-1j * phi) * np.cos(theta / 2)],
            dtype=complex) * s2
        return v / np.linalg.norm(v)

    families["Psi"] = psi_family
    if name not in families:
        raise ValueError(f"unknown Bloch family {name!r}; known: {sorted(families)}")
    return families[name]


LABEL_KINDS = ("fixed-list", "named-superposition")
# initial-state kind -> the keys of the config's `initial` sub-document it takes
_KIND_KEYS = {"fixed-list": ("labels",), "named-superposition": ("labels",),
              "schmidt-entangled": ("family", "grid"), "separable-product": ("grid",)}


@dataclass(frozen=True)
class InitialStateFamily:
    """Initial-state set for a scenario; owns the config's `initial`
    sub-document except `cavity_fock`, a scenario field.

    kind "fixed-list" / "named-superposition": `labels` names the kets of
    `members`. kind "schmidt-entangled": `family` names the (theta, phi)
    parametrization and `grid` the (n_theta, n_phi) sampling. kind
    "separable-product": two-sphere sampling with `grid` per sphere.
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
    def members(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(label, ket) pairs of a label list."""
        return tuple((lbl, named_state(lbl)) for lbl in self.labels)

    @classmethod
    def from_labels(cls, labels: Sequence[str], kind: str = "fixed-list") -> "InitialStateFamily":
        return cls(kind, tuple(labels))

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
    separable-product every pair of points on two spheres. The theta = 0 and
    theta = pi pole rows carry zero weight and are dropped."""
    n_theta, n_phi = family.grid
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi)
    w_t = np.sin(thetas)
    w_t[0] = w_t[-1] = 0.0  # sin(pi) rounds to 1.2e-16, not 0
    w_p = np.ones(n_phi); w_p[0] = w_p[-1] = 0.5
    weights = np.outer(w_t, w_p).reshape(-1)
    points = [(th, ph) for th in thetas for ph in phis]
    if family.kind == "separable-product":
        points = [p1 + p2 for p1 in points for p2 in points]
        weights = np.outer(weights, weights).reshape(-1)
        make = separable_state
    else:
        make = bloch_family(family.family)
    keep = np.flatnonzero(weights > 0.0)
    return np.array([make(*points[i]) for i in keep]), weights[keep]
