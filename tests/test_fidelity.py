from dataclasses import replace

import numpy as np
import pytest

from phonongate.fidelity import (
    LABEL_KINDS,
    InitialStateFamily,
    avg_fidelity_entangled,
    avg_fidelity_separable,
    bloch_family,
    bloch_grid,
    gate_fidelity_closed,
    named_state,
    separable_state,
)
from phonongate.gates import cnot_sequence, ideal_cnot
from phonongate.runner import figure_config

from oracles import gate_fidelity_matrix


def test_gate_fidelity_closed_basis_curves():
    ots = np.linspace(0.0, 2 * np.pi, 100)
    f00 = gate_fidelity_closed(1, 0, 0, 0, ots)
    assert np.max(np.abs(f00 - 0.25 * np.abs(1 + np.sin(ots)) ** 2)) <= 1e-12
    f01 = gate_fidelity_closed(0, 1, 0, 0, ots)
    assert np.max(np.abs(f01 - 0.25 * np.abs(np.cos(2 * ots) - np.sin(ots)) ** 2)) <= 1e-12


def test_gate_fidelity_closed_point_values():
    assert gate_fidelity_closed(1, 0, 0, 0, np.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity_closed(1, 0, 0, 0, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert gate_fidelity_closed(0, 1, 0, 0, 0.0) == pytest.approx(0.25, abs=1e-12)


def test_gate_fidelity_closed_matches_matrix_path():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        ot = rng.uniform(0.0, 4 * np.pi)
        worst = max(worst, abs(gate_fidelity_closed(*v, ot) - gate_fidelity_matrix(v, ot)))
    assert worst <= 1e-10


def test_gate_fidelity_closed_rejects_unnormalized():
    with pytest.raises(ValueError):
        gate_fidelity_closed(1.0, 1.0, 0.0, 0.0, 0.5)
    # one unnormalized ket in a batch
    kets = np.array([named_state("00"), [1.0, 1.0, 0.0, 0.0], named_state("psi1")])
    with pytest.raises(ValueError):
        gate_fidelity_closed(*kets.T[:, :, None], np.array([0.1, 0.5]))


def test_gate_fidelity_closed_broadcasts_over_a_ket_batch():
    # (k, 1) amplitudes and (n_t,) angles give (k, n_t), each row the
    # single-ket call to rounding (array and scalar complex products may
    # round apart); (k,) amplitudes and one angle give (k,)
    rng = np.random.default_rng(7)
    kets = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    ots = np.linspace(0.0, 4 * np.pi, 37)
    batch = gate_fidelity_closed(*kets.T[:, :, None], ots)
    assert batch.shape == (5, 37)
    single = np.array([gate_fidelity_closed(*v, ots) for v in kets])
    assert np.max(np.abs(batch - single)) <= 1e-15
    at = gate_fidelity_closed(*kets.T, ots[3])
    assert at.shape == (5,) and np.max(np.abs(at - single[:, 3])) <= 1e-15


def test_avg_entangled_values():
    assert avg_fidelity_entangled(np.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert avg_fidelity_entangled(0.0) == pytest.approx(1 / 3, abs=1e-12)


def test_avg_separable_values():
    assert avg_fidelity_separable(np.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert avg_fidelity_separable(0.0) == pytest.approx(1 / 6, abs=1e-12)


def test_averages_exactly_one_at_quarter_periods():
    for k in range(3):
        ot = np.pi / 2 + 2 * np.pi * k
        assert abs(avg_fidelity_entangled(ot) - 1.0) <= 1e-12
        assert abs(avg_fidelity_separable(ot) - 1.0) <= 1e-12


def test_fidelities_bounded_on_random_sample():
    rng = np.random.default_rng(3)
    for _ in range(300):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        f = gate_fidelity_matrix(v, rng.uniform(0, 2 * np.pi))
        assert -1e-9 <= f <= 1.0 + 1e-9


def test_named_states_normalized():
    for name in ("00", "01", "10", "11", "psi1", "psi2", "psi3", "psi4",
                 "varphi1", "varphi2", "varphi3", "varphi4", "four_equal"):
        assert np.linalg.norm(named_state(name)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        named_state("bell")


def test_schmidt_and_separable_states():
    v = bloch_family("schmidt")(np.pi / 3, 0.7)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[1] == 0.0 and v[2] == 0.0
    w = separable_state(0.4, 0.1, 1.2, 2.2)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


def test_bloch_families_normalized():
    rng = np.random.default_rng(5)
    for name in ("schmidt", "Phi1", "Phi2", "Phi3", "Phi4", "Psi"):
        fn = bloch_family(name)
        for _ in range(10):
            v = fn(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        bloch_family("Phi9")


def written_out(name, theta, phi):
    """Each (theta, phi) family from its formula, independently of the table:
    (..., 4) kets."""
    c, s, r = np.cos(theta / 2), np.sin(theta / 2), 1 / np.sqrt(2)
    e, z = np.exp(-1j * phi) * c * r, np.zeros_like(theta)
    return np.stack({
        "schmidt": [c, z, z, np.exp(1j * phi) * s],
        "Phi1": [s, e, e, z],
        "Phi2": [s, e, z, e],
        "Phi3": [s, z, e, e],
        "Phi4": [z, s, e, e],
        "Psi": [r * s, r * s, e, e],
    }[name], axis=-1)


@pytest.mark.parametrize("name", ["schmidt", "Phi1", "Phi2", "Phi3", "Phi4", "Psi"])
def test_bloch_family_table_matches_the_formulas(name):
    theta, phi = np.meshgrid([0.0, 0.3, np.pi / 2, 2.0, np.pi], [0.0, 1.1, np.pi, 2 * np.pi],
                             indexing="ij")
    kets = bloch_family(name)(theta, phi)
    assert kets.shape == (5, 4, 4)
    assert np.max(np.abs(kets - written_out(name, theta, phi))) <= 1e-15
    # scalar angles give one ket
    assert np.array_equal(bloch_family(name)(theta[1, 1], phi[1, 1]), kets[1, 1])


def test_separable_state_broadcasts():
    t1, p1, t2, p2 = np.array([0.0, 0.4, np.pi]), 0.1, np.array([[1.2], [3.0]]), 2.2
    q = lambda t, p: np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])
    kets = separable_state(t1, p1, t2, p2)
    assert kets.shape == (2, 3, 4)
    for i in range(2):
        for j in range(3):
            assert np.max(np.abs(kets[i, j] - np.kron(q(t1[j], p1), q(t2[i, 0], p2)))) <= 1e-15


@pytest.mark.parametrize("kind", ["schmidt-entangled", "separable-product"])
def test_bloch_grid_matches_a_double_loop(kind):
    # theta outermost, the pole rows dropped, the first sphere outermost
    family = "Phi3" if kind == "schmidt-entangled" else None
    kets, weights = bloch_grid(InitialStateFamily(kind, family=family, grid=(9, 8)))
    thetas, phis = np.linspace(0.0, np.pi, 9), np.linspace(0.0, 2 * np.pi, 8)
    points, w = [], []
    for i in range(1, 8):
        for j in range(8):
            points.append((thetas[i], phis[j]))
            w.append(np.sin(thetas[i]) * (0.5 if j in (0, 7) else 1.0))
    if kind == "separable-product":
        expected = [separable_state(*p1, *p2) for p1 in points for p2 in points]
        w = [w1 * w2 for w1 in w for w2 in w]
    else:
        expected = [bloch_family("Phi3")(*p) for p in points]
    assert np.array_equal(kets, np.array(expected))
    assert np.array_equal(weights, np.array(w))


@pytest.mark.parametrize("family", [
    InitialStateFamily("fixed-list", ("00", "11")),
    InitialStateFamily("named-superposition", ("psi1", "varphi2", "four_equal")),
    InitialStateFamily("schmidt-entangled", family="Psi", grid=(9, 8)),
    InitialStateFamily("separable-product", grid=(8, 10)),
])
def test_size_counts_the_kets_without_building_them(family):
    kets, weights = family.kets()
    assert family.size == len(kets) and kets.shape == (family.size, 4)
    if family.kind in LABEL_KINDS:
        assert weights is None
    else:
        assert weights.shape == (family.size,)


def test_family_structure():
    # Phi1 at theta = pi: pure |00>; at theta = 0: (|01>+|10>)/sqrt(2)
    fn = bloch_family("Phi1")
    top = fn(np.pi, 0.3)
    assert abs(top[0]) == pytest.approx(1.0, abs=1e-12)
    bottom = fn(0.0, 0.0)
    assert abs(bottom[1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(bottom[2]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def bloch_average(family, evaluator):
    """The bloch_grid quadrature of evaluator(kets), one row per ket: weights
    over their sum."""
    kets, weights = bloch_grid(family)
    return weights @ evaluator(np.array(kets)) / weights.sum()


def gate_fidelities(ots):
    """The matrix path of oracles.gate_fidelity_matrix, |<v|CNOT† U_Gate(ot)|v>|^2,
    for a (n, 4) batch of kets at every ot: an (n, len(ots)) array."""
    gates = np.stack([ideal_cnot().conj().T @ cnot_sequence(ot, 1.0) for ot in ots])
    return lambda kets: np.abs(np.einsum("ni,kij,nj->nk", kets.conj(), gates, kets)) ** 2


def test_bloch_average_constant_evaluator():
    fam = InitialStateFamily("schmidt-entangled", grid=(16, 16))
    assert np.allclose(bloch_average(fam, lambda kets: np.full((len(kets), 4), 0.37)), 0.37)


def test_bloch_average_matches_entangled_closed_form():
    ots = np.array([0.0, 0.4, 1.0, np.pi / 2, 2.2])
    fam = InitialStateFamily("schmidt-entangled", grid=(64, 64))
    out = bloch_average(fam, gate_fidelities(ots))
    assert np.max(np.abs(out - avg_fidelity_entangled(ots))) <= 1e-3


def test_bloch_average_separable_consistency():
    # two-sphere weighting against an independently coded trapezoid
    ots = np.array([0.4, 2.2])
    out = bloch_average(InitialStateFamily("separable-product", grid=(12, 8)),
                        gate_fidelities(ots))
    thetas = np.linspace(0, np.pi, 12)
    phis = np.linspace(0, 2 * np.pi, 8)
    wt = np.ones(12); wt[0] = wt[-1] = 0.5
    wp = np.ones(8); wp[0] = wp[-1] = 0.5
    w1 = np.outer(wt * np.sin(thetas), wp).reshape(-1)
    states = np.array([separable_state(t1, p1, t2, p2)
                       for t1 in thetas for p1 in phis for t2 in thetas for p2 in phis])
    weights = np.outer(w1, w1).reshape(-1)
    expected = weights @ gate_fidelities(ots)(states) / weights.sum()
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_bloch_average_grid_floor():
    fam = InitialStateFamily("schmidt-entangled", grid=(16, 16))
    with pytest.raises(ValueError):
        bloch_average(replace(fam, grid=(4, 16)), lambda kets: np.zeros((len(kets), 2)))


def test_family_validation():
    with pytest.raises(ValueError):
        InitialStateFamily("fixed-list")
    with pytest.raises(ValueError):
        InitialStateFamily("schmidt-entangled", grid=(4, 4))
    with pytest.raises(ValueError):
        InitialStateFamily("mystery")
    fam = InitialStateFamily("fixed-list", ("00", "psi1"))
    kets, weights = fam.kets()
    assert np.array_equal(kets, [named_state("00"), named_state("psi1")]) and weights is None
    with pytest.raises(ValueError):
        InitialStateFamily("fixed-list", ("00", "00"))
    with pytest.raises(ValueError):
        InitialStateFamily("fixed-list", ("00",), family="Psi")
    with pytest.raises(ValueError):
        InitialStateFamily("schmidt-entangled", ("00",))
    with pytest.raises(ValueError):
        InitialStateFamily.from_mapping({"kind": "fixed-list", "labels": ["00"], "grid": [8, 8]})
    # labels are stored, kets derived, so families compare by value
    assert fam == InitialStateFamily("fixed-list", ["00", "psi1"])
    assert InitialStateFamily.from_mapping(fam.to_mapping()) == fam


def test_bloch_grid_drops_both_pole_rows():
    kets, weights = bloch_grid(figure_config("fig10").initial)
    # 16 x 16 points less the theta = 0 and theta = pi rows
    assert len(kets) == len(weights) == 14 * 16 == 224
    assert weights.min() > 0.05
