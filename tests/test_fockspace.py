import numpy as np
import pytest

from phonongate.fockspace import annihilation_op, embed, parity, quadrature_op

from oracles import fock_density, ket_density, partial_trace

SZ = np.diag([1.0, -1.0]).astype(complex)


def test_annihilation_two_level():
    assert np.array_equal(annihilation_op(2), [[0, 1], [0, 0]])


def test_annihilation_sqrt_rule():
    b = annihilation_op(3)
    assert b[0, 1] == 1.0
    assert b[1, 2] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(b) == 2


def test_number_from_ladder_product():
    b = annihilation_op(4)
    n = b.conj().T @ b
    assert np.allclose(np.diag(n), [0, 1, 2, 3])
    assert np.allclose(n, np.diag([0, 1, 2, 3]))


def test_invalid_dimension():
    for dim in (0, 1, -3):
        with pytest.raises(ValueError):
            annihilation_op(dim)
        with pytest.raises(ValueError):
            quadrature_op(dim)


def test_quadrature_two_level():
    s = 1 / np.sqrt(2)
    assert np.allclose(quadrature_op(2), [[0, s], [s, 0]])


def test_quadrature_entry_and_symmetry():
    x = quadrature_op(3)
    assert x[1, 2] == pytest.approx(1.0)  # sqrt(2)/sqrt(2)
    for dim in (2, 5, 9):
        x = quadrature_op(dim)
        assert np.array_equal(x, x.conj().T)


def test_embed_sigma_z_slots():
    dims = (2, 2)
    assert np.allclose(np.diag(embed(SZ, dims, 1)), [1, -1, 1, -1])
    assert np.allclose(np.diag(embed(SZ, dims, 0)), [1, 1, -1, -1])


def test_embed_different_slots_commute():
    dims = (3, 2)
    b = embed(annihilation_op(3), dims, 0)
    bd = embed(annihilation_op(2).conj().T, dims, 1)
    comm = b @ bd - bd @ b
    assert np.max(np.abs(comm)) == 0.0


def test_embed_errors():
    dims = (3, 2)
    with pytest.raises(ValueError):
        embed(annihilation_op(2), dims, 0)  # dimension mismatch
    with pytest.raises(ValueError):
        embed(annihilation_op(3), dims, 2)  # slot out of range


def test_embed_is_homomorphism():
    rng = np.random.default_rng(7)
    dims = (3, 4, 2)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = embed(a @ b, dims, 0)
        rhs = embed(a, dims, 0) @ embed(b, dims, 0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_truncated_commutator():
    # [b, b†] = I except on the top level which the truncation corrupts
    for dim in (2, 5, 12):
        b = annihilation_op(dim)
        comm = b @ b.conj().T - b.conj().T @ b
        diag = np.diag(comm).real
        assert np.allclose(diag[: dim - 1], 1.0)
        assert diag[-1] == pytest.approx(1.0 - dim)


def test_expectation_basics():
    b = annihilation_op(4)
    assert np.trace(b.conj().T @ b @ fock_density((4,), [1])).real == pytest.approx(1.0)
    assert np.trace(quadrature_op(4) @ fock_density((4,), [0])) == pytest.approx(0.0)


def test_expectation_hermitian_real():
    rng = np.random.default_rng(11)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    v /= np.linalg.norm(v)
    val = v.conj() @ quadrature_op(5) @ v
    assert abs(val.imag) <= 1e-10 * max(abs(val), 1.0)


def test_partial_trace_product_state():
    dims = (3, 2)
    rho_q = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    cav = np.zeros((3, 3), dtype=complex)
    cav[1, 1] = 1.0
    reduced = partial_trace(np.kron(cav, rho_q), dims, [1])
    assert np.allclose(reduced, rho_q, atol=1e-12)


def test_partial_trace_bell():
    dims = (2, 2)
    bell = ket_density([1, 0, 0, 1])
    for keep in ([0], [1]):
        reduced = partial_trace(bell, dims, keep)
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    dims = (2, 3, 2)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    for keep in ([0], [1], [0, 2], [0, 1, 2]):
        reduced = partial_trace(rho, dims, keep)
        assert abs(np.trace(reduced).real - 1.0) <= 1e-10


def test_partial_trace_embed_consistency():
    rng = np.random.default_rng(9)
    dims = (2, 3)
    a = rng.normal(size=(3, 3))
    a = a + a.T
    rho_c = np.diag([0.3, 0.7]).astype(complex)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    rho_b = np.outer(v, v.conj())
    rho_b /= np.trace(rho_b).real
    rho = np.kron(rho_c, rho_b)
    full = np.trace(embed(a, dims, 1) @ rho)
    marginal = np.trace(a @ partial_trace(rho, dims, [1]))
    assert abs(full - marginal) <= 1e-10


def test_partial_trace_invalid_keep():
    rho = fock_density((2, 2), [0, 0])
    for keep in ([], [1, 0], [0, 0], [2]):
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 2), keep)


def test_space_parity_follows_the_basis_ordering():
    dims = (3, 2, 4)
    for occ in [(0, 0, 0), (1, 0, 0), (2, 1, 3), (0, 1, 2), (1, 1, 1)]:
        index = np.ravel_multi_index(occ, dims)
        assert parity(dims)[index] == sum(occ) % 2
    assert parity(dims).shape == (24,)
