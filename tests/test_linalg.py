import re

import numpy as np
import pytest

from mns.errors import ValidationError
from mns.fidelity import worst_case_fidelity
from mns.linalg import as_isometry, as_matrix, dagger, random_density_matrix, tensor
from mns.noise import collective_xz, dfs_check, lindblad_to_kraus
from mns.objective import objective_of_unitary
from oracles import (
    block_projector,
    commutator,
    direct_sum_embed,
    haar_random_unitary,
    partial_trace_1,
    partial_trace_2,
    pauli_basis,
    random_pure_state,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValidationError):
        as_matrix(np.zeros((2, 3)), "m")
    with pytest.raises(ValidationError):
        as_matrix(np.array([[np.nan, 0], [0, 0]]), "m")
    with pytest.raises(ValidationError):
        as_matrix(np.zeros(4), "m")


def test_as_isometry_returns_contiguous_complex_rows():
    v = as_isometry(np.asfortranarray(np.eye(3, 5)), 3, 1, 5)
    assert v.dtype == np.complex128 and v.flags.c_contiguous
    assert np.array_equal(v, np.eye(3, 5))
    with pytest.raises(ValidationError, match="orthonormal"):
        as_isometry(np.full((1, 2), np.nan), 1, 1, 2)


MODEL = collective_xz(3, 1.0, 1.0)
# every function that takes an encoding, called on (V, n1, n2)
ENCODING_CONSUMERS = {
    "dfs_check": lambda v, n1, n2: dfs_check(lindblad_to_kraus(MODEL, 1e-3), v, n1, n2),
    "objective_of_unitary": lambda v, n1, n2: objective_of_unitary(
        lindblad_to_kraus(MODEL, 1e-3), v, n1, n2
    ),
    "worst_case_fidelity": lambda v, n1, n2: worst_case_fidelity(MODEL, [0.5], [v], (n1, n2)),
}


@pytest.mark.parametrize("consumer", sorted(ENCODING_CONSUMERS))
@pytest.mark.parametrize(
    "v, n1, n2, message",
    [
        (haar_random_unitary(8, 1), 2, 2, "need encoded rows of shape (4, 8), got (8, 8)"),
        (1.01 * haar_random_unitary(8, 1)[:4], 2, 2, "not orthonormal"),
        (haar_random_unitary(8, 1)[:4], 0, 2, "(0,2) must be >= 1"),
    ],
    ids=["square-unitary", "rows-not-orthonormal", "n1-zero"],
)
def test_encoding_consumers_refuse_what_is_not_encoded_rows(consumer, v, n1, n2, message):
    # an encoding is its n1*n2 orthonormal rows V, and a full unitary is not
    with pytest.raises(ValidationError, match=re.escape(message)):
        ENCODING_CONSUMERS[consumer](v, n1, n2)


def test_pauli_basis_dim1_is_scalar_identity():
    basis = pauli_basis(1)
    assert len(basis.elements) == 1
    assert np.array_equal(basis.elements[0], np.eye(1))


def test_pauli_basis_dim2_matches_qubit_paulis():
    basis = pauli_basis(2)
    expected = [np.eye(2) / np.sqrt(2), X / np.sqrt(2), Y / np.sqrt(2), Z / np.sqrt(2)]
    assert len(basis.elements) == 4
    got = {tuple(np.round(e.reshape(-1), 12)) for e in basis.elements}
    want = {tuple(np.round(e.reshape(-1), 12)) for e in expected}
    assert got == want
    # index 0 must be the normalized identity specifically
    assert np.allclose(basis.elements[0], np.eye(2) / np.sqrt(2), atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_pauli_basis_gram_matrix_is_identity(dim):
    elements = pauli_basis(dim).elements
    assert len(elements) == dim * dim
    gram = np.array(
        [[np.trace(a @ b) for b in elements] for a in elements], dtype=complex
    )
    assert np.abs(gram - np.eye(dim * dim)).max() <= 1e-12
    for e in elements:
        assert np.abs(e - dagger(e)).max() <= 1e-12


def test_pauli_basis_rejects_dim_zero():
    with pytest.raises(ValidationError):
        pauli_basis(0)


def test_tensor_basics():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))
    assert np.array_equal(tensor(Z, np.eye(2)), np.diag([1, 1, -1, -1]).astype(complex))
    rng = np.random.default_rng(0)
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
    assert np.allclose(tensor(a, b) @ tensor(c, d), tensor(a @ c, b @ d), atol=1e-13)


def _with_negative_zeros(rng, shape, complex_entries: bool) -> np.ndarray:
    """Normal draws with about a third of the real (and imaginary) parts -0.0."""
    def part():
        return np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape))

    return part() + 1j * part() if complex_entries else part()


def _kron_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The bit patterns of np.kron of the complex128 factors."""
    return np.kron(a.astype(np.complex128), b.astype(np.complex128)).view(np.uint64)


@pytest.mark.parametrize("complex_entries", [False, True])
def test_tensor_is_bitwise_np_kron(complex_entries):
    # tensor forms np.kron's products without its wrapper: every bit agrees,
    # the sign of every zero included, for one matrix or a stack of them
    rng = np.random.default_rng(28)
    sizes = (1, 2, 3, 8, 64)
    for p, q in ((p, q) for p in sizes for q in sizes):
        a = _with_negative_zeros(rng, (p, q), complex_entries)
        for shape in ((1, 1), (2, 3), (8, 8)):
            b = _with_negative_zeros(rng, shape, complex_entries)
            assert np.array_equal(tensor(a, b).view(np.uint64), _kron_bits(a, b))
            assert np.array_equal(tensor(b, a).view(np.uint64), _kron_bits(b, a))
    stack = _with_negative_zeros(rng, (6, 3, 3), complex_entries)
    assert np.array_equal(tensor(stack, np.eye(4) / 4).view(np.uint64), _kron_bits(stack, np.eye(4) / 4))


def test_tensor_associativity_on_integer_matrices():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[0, 1], [1, 0]])
    c = np.array([[2, 0], [0, 5]])
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


def _partial_trace_2_indexsum(m, n1, n2):
    # independent index-summation oracle: out[i, i'] = sum_j <i,j|M|i',j>
    out = np.zeros((n1, n1), dtype=complex)
    for i in range(n1):
        for ip in range(n1):
            for j in range(n2):
                out[i, ip] += m[i * n2 + j, ip * n2 + j]
    return out


def test_partial_trace_2_product_state():
    rng = np.random.default_rng(1)
    rho1 = random_density_matrix(2, rng)
    assert np.allclose(partial_trace_2(tensor(rho1, np.eye(2) / 2), 2, 2), rho1, atol=1e-14)
    assert np.allclose(partial_trace_2(np.eye(4) / 4, 2, 2), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_2_matches_index_sum_oracle():
    rng = np.random.default_rng(2)
    for n1, n2 in [(2, 2), (2, 3), (3, 2)]:
        m = rng.standard_normal((n1 * n2, n1 * n2)) + 1j * rng.standard_normal((n1 * n2, n1 * n2))
        m = m + dagger(m)
        got = partial_trace_2(m, n1, n2)
        assert np.allclose(got, _partial_trace_2_indexsum(m, n1, n2), atol=1e-13)
        assert abs(np.trace(got) - np.trace(m)) <= 1e-12


def test_partial_trace_2_linear():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = partial_trace_2(2.5 * a - 1j * b, 2, 2)
    rhs = 2.5 * partial_trace_2(a, 2, 2) - 1j * partial_trace_2(b, 2, 2)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_partial_trace_1_traces_first_factor():
    rng = np.random.default_rng(4)
    rho1 = random_density_matrix(2, rng)
    rho2 = random_density_matrix(3, rng)
    assert np.allclose(partial_trace_1(tensor(rho1, rho2), 2, 3), rho2, atol=1e-14)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValidationError):
        partial_trace_2(np.eye(4), 2, 3)


def test_direct_sum_embed():
    out = direct_sum_embed(np.eye(4) / 4, 8)
    assert np.allclose(out, np.diag([0.25] * 4 + [0.0] * 4), atol=0)
    rng = np.random.default_rng(5)
    rho1 = random_density_matrix(2, rng)
    emb = direct_sum_embed(tensor(rho1, np.eye(2) / 2), 8)
    assert abs(np.trace(emb) - 1.0) <= 1e-12
    with pytest.raises(ValidationError):
        direct_sum_embed(np.eye(4), 3)


def test_block_projector_is_projector():
    p = block_projector(4, 8)
    assert np.array_equal(p, p @ p)
    assert np.array_equal(p, dagger(p))
    assert np.trace(p) == 4


def test_commutator():
    assert np.allclose(commutator(X, Z), X @ Z - Z @ X, atol=0)
    assert np.abs(commutator(Z, Z)).max() == 0


def test_haar_random_unitary():
    for dim in (2, 4, 8):
        u = haar_random_unitary(dim, np.random.default_rng(0))
        assert np.abs(dagger(u) @ u - np.eye(dim)).max() <= 1e-12
    a = haar_random_unitary(4, np.random.default_rng(7))
    b = haar_random_unitary(4, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_random_states():
    rng = np.random.default_rng(6)
    psi = random_pure_state(4, rng)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    rho = random_density_matrix(4, rng)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.abs(rho - dagger(rho)).max() <= 1e-14
    assert np.linalg.eigvalsh(rho).min() >= -1e-14
