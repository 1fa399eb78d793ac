import numpy as np
import pytest

from phonongate.duffing import (
    TruncationError,
    duffing_hamiltonian,
    duffing_spectrum,
)

from oracles import truncation_convergence

W = 2 * np.pi * 28.6e6
PAPER_RATIO = 209e3 / 28.6e6


def test_harmonic_limit_diagonal():
    h = duffing_hamiltonian(W, 0.0, 8)
    assert np.allclose(h, np.diag(W * np.arange(8)))


def test_quartic_diagonal_rule():
    # operator-algebra oracle: <n|(b+b†)^4|n> = 6n^2 + 6n + 3; the truncation
    # cuts the up-up-down-down path for the top two levels, so check n < dim-2
    lam = 0.03 * W
    dim = 10
    h = duffing_hamiltonian(W, lam, dim)
    n = np.arange(dim - 2)
    expected = W * n + 0.5 * lam * (6 * n**2 + 6 * n + 3)
    assert np.allclose(np.diag(h).real[: dim - 2], expected, rtol=1e-13)


def test_hamiltonian_hermitian():
    h = duffing_hamiltonian(W, 0.1 * W, 12)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12 * np.max(np.abs(h))


def test_truncation_too_small():
    with pytest.raises(TruncationError):
        duffing_hamiltonian(W, 0.0, 3)


def test_two_levels_hold_a_constant_quartic_term():
    # the truncated (b + b†)^4 is the identity on two levels; omega_m may be 0
    lam = 0.03 * W
    for omega in (W, 0.0):
        assert np.array_equal(duffing_hamiltonian(omega, lam, 2), np.diag([0.5 * lam, omega + 0.5 * lam]))


def test_spectrum_harmonic_x10():
    s = duffing_spectrum(W, 0.0, dim=16, dim_trust=4)
    assert abs(s.X[1, 0]) == pytest.approx(1 / np.sqrt(2), rel=1e-12)
    assert np.all(np.diff(s.energies) > 0)


def test_spectrum_first_order_gap():
    lam = 1e-5 * W
    s = duffing_spectrum(W, lam, dim=24, dim_trust=4)
    gap = s.energies[1] - s.energies[0]
    assert gap == pytest.approx(W + 6 * lam, rel=1e-6)


def test_spectrum_x10_perturbative():
    # second-order perturbation oracle: the leading eigenvector correction is
    # |0'> = |0> - (lam/2w)(3 sqrt2 |2> + ...), giving
    # X10 = 1/sqrt2 - (3/sqrt2)(lam/w) + O((lam/w)^2)
    lam = 1e-5 * W
    s = duffing_spectrum(W, lam, dim=24, dim_trust=4)
    predicted = 1 / np.sqrt(2) - (3 / np.sqrt(2)) * (lam / W)
    assert abs(s.X[1, 0]) == pytest.approx(predicted, abs=5e-9)


def test_spectrum_delta_antisymmetric():
    s = duffing_spectrum(W, PAPER_RATIO * W, dim=16, dim_trust=4)
    assert np.array_equal(s.delta, -s.delta.T)


def test_spectrum_dim_trust_bounds():
    with pytest.raises(ValueError, match="dim_trust"):
        duffing_spectrum(W, 0.0, 8, 5)  # > dim - 4
    with pytest.raises(ValueError, match="dim_trust"):
        duffing_spectrum(W, 0.0, 8, 1)


def test_completeness():
    s = duffing_spectrum(W, PAPER_RATIO * W, dim=16, dim_trust=4)
    xsq = s.X @ s.X
    direct = s.eigvecs.conj().T @ np.linalg.matrix_power(
        (np.diag(np.sqrt(np.arange(1, 16)), 1) + np.diag(np.sqrt(np.arange(1, 16)), -1)) / np.sqrt(2), 2
    ) @ s.eigvecs
    for n in range(4):
        for k in range(4):
            assert abs(xsq[n, k] - direct[n, k]) <= 1e-10


def test_parity_selection_rule():
    # at negligible lam the eigenstates keep harmonic parity: X_nm = 0 for
    # same-parity level pairs
    s = duffing_spectrum(W, 1e-8 * W, dim=16, dim_trust=4)
    for n in range(4):
        for m in range(4):
            if (n - m) % 2 == 0 and n != m:
                assert abs(s.X[n, m]) < 1e-6


@pytest.mark.parametrize("dim", [16, 24])
def test_spectrum_is_exactly_parity_split(dim):
    # the quartic term keeps the Fock parity, so at the paper's lam/w every
    # eigenstate n is exactly zero on the Fock levels of the other parity, and
    # the deflection, which flips parity, has exact zeros between levels of one
    s = duffing_spectrum(W, PAPER_RATIO * W, dim=dim, dim_trust=4)
    fock = np.arange(dim)
    for n in range(dim):
        assert not np.any(s.eigvecs[fock % 2 != n % 2, n])
    n, m = np.indices((dim, dim))
    assert not np.any(s.X[((n - m) % 2 == 0) & (n != m)])


def test_truncation_convergence_levels():
    # measured: 12 -> 16 changes E0..E3 by 3.6e-7 (top level dominates),
    # 16 -> 24 by 3.1e-10
    drift_12_16 = truncation_convergence(W, PAPER_RATIO * W, 4, 12, 16)
    drift_16_24 = truncation_convergence(W, PAPER_RATIO * W, 4, 16, 24)
    assert drift_12_16 < 1e-6
    assert drift_16_24 < 1e-8


def test_phase_convention_deterministic():
    a = duffing_spectrum(W, PAPER_RATIO * W, 16, 4)
    b = duffing_spectrum(W, PAPER_RATIO * W, 16, 4)
    assert np.array_equal(a.eigvecs, b.eigvecs)
    assert np.all(np.diag(a.eigvecs).real >= 0)
