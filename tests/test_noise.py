import numpy as np
import pytest

from mns.errors import ValidationError
from mns.linalg import dagger, tensor
from mns.noise import (
    PAULI_X,
    PAULI_Z,
    KrausChannel,
    LindbladModel,
    collective_dfs_encoding,
    collective_operator,
    collective_xz,
    collective_z_with_local_dephasing,
    default_dt,
    dfs_check,
    lindblad_to_kraus,
    perturbed_collective,
    qubit_operator,
    random_perturbation_unitary,
    residuals,
)
from oracles import (
    basis_state_encoding,
    commutator,
    excitation_subspace,
    haar_random_unitary,
    identity_channel,
    kraus_apply,
    partial_trace_1,
    random_density_matrix,
    random_kraus_channel,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def test_qubit_operator_placement():
    assert np.array_equal(qubit_operator(PAULI_Z, 1, 3), _kron3(Z, I2, I2))
    assert np.array_equal(qubit_operator(PAULI_Z, 2, 3), _kron3(I2, Z, I2))
    assert np.array_equal(qubit_operator(PAULI_X, 3, 3), _kron3(I2, I2, X))
    with pytest.raises(ValidationError):
        qubit_operator(PAULI_Z, 0, 3)
    with pytest.raises(ValidationError):
        qubit_operator(PAULI_Z, 4, 3)


def test_collective_operators_against_kron_sums():
    sz = collective_operator(PAULI_Z, 3)
    sz_oracle = _kron3(Z, I2, I2) + _kron3(I2, Z, I2) + _kron3(I2, I2, Z)
    assert np.array_equal(sz, sz_oracle)
    assert np.array_equal(np.diagonal(sz).real, np.array([3, 1, 1, -1, 1, -1, -1, -3]))
    sx = collective_operator(PAULI_X, 3)
    sx_oracle = _kron3(X, I2, I2) + _kron3(I2, X, I2) + _kron3(I2, I2, X)
    assert np.array_equal(sx, sx_oracle)


def test_lindblad_model_validation():
    with pytest.raises(ValidationError):
        LindbladModel(0, ())
    with pytest.raises(ValidationError):
        LindbladModel(1, ((-0.5, Z),))
    with pytest.raises(ValidationError):
        LindbladModel(2, ((1.0, Z),))  # wrong operator dimension
    model = LindbladModel(1, ((0.5, Z), (2.0, X)))
    assert model.dim == 2
    assert model.max_rate() == 2.0
    assert LindbladModel(1, ()).max_rate() == 0.0


def test_collective_xz_terms():
    model = collective_xz(3, gamma_x=0.7, gamma_z=1.3)
    assert model.n_qubits == 3
    rates = [r for r, _ in model.terms]
    assert rates == [0.7, 1.3]
    assert np.array_equal(model.terms[0][1], collective_operator(PAULI_X, 3))
    assert np.array_equal(model.terms[1][1], collective_operator(PAULI_Z, 3))


def test_collective_z_with_local_dephasing_terms():
    model = collective_z_with_local_dephasing(3, 1.0, 0.1, [0.33, 0.47, 0.85])
    assert len(model.terms) == 4
    assert model.terms[0][0] == 1.0
    assert np.allclose([r for r, _ in model.terms[1:]], [0.033, 0.047, 0.085])
    for k in range(1, 4):
        assert np.array_equal(model.terms[k][1], qubit_operator(PAULI_Z, k, 3))
    with pytest.raises(ValidationError):
        collective_z_with_local_dephasing(3, 1.0, 0.1, [0.5, 0.5])
    with pytest.raises(ValidationError):
        collective_z_with_local_dephasing(3, 1.0, -0.1, [0.5, 0.5, 0.5])


def test_perturbed_collective_identity_recovers_plain_model():
    model = perturbed_collective(3, 1.0, 1.0, np.eye(8))
    plain = collective_xz(3, 1.0, 1.0)
    for (r1, op1), (r2, op2) in zip(model.terms, plain.terms):
        assert r1 == r2
        assert np.abs(op1 - op2).max() <= 1e-15
    with pytest.raises(ValidationError):
        perturbed_collective(3, 1.0, 1.0, np.diag([1.0, 1, 1, 1, 1, 1, 1, 2.0]))


def test_perturbation_unitary_global():
    assert np.array_equal(random_perturbation_unitary(8, 0.0, "global", seed=0), np.eye(8))
    v = random_perturbation_unitary(8, 0.1, "global", seed=3)
    assert np.abs(dagger(v) @ v - np.eye(8)).max() <= 1e-12
    assert np.array_equal(v, random_perturbation_unitary(8, 0.1, "global", seed=3))
    with pytest.raises(ValidationError):
        random_perturbation_unitary(8, -0.1, "global")
    with pytest.raises(ValidationError):
        random_perturbation_unitary(8, 0.1, "sideways")


def _tensor_split_rank(m: np.ndarray, d_left: int) -> float:
    # realignment test: A (x) B realigns to a rank-1 matrix
    d_right = m.shape[0] // d_left
    r = m.reshape(d_left, d_right, d_left, d_right).transpose(0, 2, 1, 3)
    s = np.linalg.svd(r.reshape(d_left * d_left, d_right * d_right), compute_uv=False)
    return float(s[1] / s[0])


def test_perturbation_unitary_local_tensor_structure():
    assert np.array_equal(random_perturbation_unitary(8, 0.0, "local-tensor", seed=0), np.eye(8))
    v = random_perturbation_unitary(8, 0.05, "local-tensor", seed=11)
    assert np.abs(dagger(v) @ v - np.eye(8)).max() <= 1e-12
    assert _tensor_split_rank(v, 2) <= 1e-12
    # second factor must itself split as 2 (x) 2
    r = v.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 16)
    u_, s, vh = np.linalg.svd(r)
    b = (s[0] * vh[0]).reshape(4, 4)
    assert _tensor_split_rank(b, 2) <= 1e-12
    with pytest.raises(ValidationError):
        random_perturbation_unitary(6, 0.05, "local-tensor")


def test_perturbation_grows_with_delta():
    sx = collective_operator(PAULI_X, 3)
    dist = []
    for delta in (0.0, 0.02, 0.05, 0.1):
        v = random_perturbation_unitary(8, delta, "global", seed=5)
        dist.append(np.linalg.norm(v @ sx @ dagger(v) - sx))
    assert dist[0] == 0.0
    assert all(b > a + 1e-12 for a, b in zip(dist, dist[1:]))


def test_lindblad_to_kraus_dephasing_closed_form():
    gamma, dt = 0.8, 1e-3
    ch = lindblad_to_kraus(LindbladModel(1, ((gamma, PAULI_Z),)), dt)
    assert len(ch.operators) == 2
    assert np.abs(ch.operators[0] - (1 - gamma * dt / 2) * np.eye(2)).max() <= 1e-15
    assert np.abs(ch.operators[1] - np.sqrt(gamma * dt) * Z).max() <= 1e-15
    assert ch.dt == dt


def test_lindblad_to_kraus_drops_zero_rate_terms():
    ch = lindblad_to_kraus(LindbladModel(1, ((0.0, X), (1.0, Z))), 1e-3)
    assert len(ch.operators) == 2
    empty = lindblad_to_kraus(LindbladModel(1, ()), 1e-3)
    assert len(empty.operators) == 1
    assert np.array_equal(empty.operators[0], np.eye(2))
    with pytest.raises(ValidationError):
        lindblad_to_kraus(LindbladModel(1, ((1.0, Z),)), 0.0)


def test_kraus_channel_matches_euler_step():
    # one step of the channel equals the explicit Euler step up to O(dt^2)
    model = collective_xz(2, 1.0, 0.5)
    rng = np.random.default_rng(0)
    rho = random_density_matrix(4, rng)

    def euler(rho, dt):
        out = rho.copy()
        for rate, v in model.terms:
            vv = dagger(v) @ v
            out = out + dt * rate * (v @ rho @ dagger(v) - 0.5 * (vv @ rho + rho @ vv))
        return out

    for dt in (1e-3, 5e-4):
        ch = lindblad_to_kraus(model, dt)
        diff = np.linalg.norm(kraus_apply(ch, rho) - euler(rho, dt))
        assert diff <= 50.0 * dt * dt


def test_completeness_defect_exact_value_and_dt_scaling():
    model = collective_xz(3, 1.0, 1.0)
    a = sum(rate * dagger(v) @ v for rate, v in model.terms)
    defects = {}
    for dt in (1e-3, 5e-4):
        ch = lindblad_to_kraus(model, dt)
        defect = ch.completeness_defect()
        oracle = dt * dt / 4.0 * np.linalg.norm(a @ a)
        assert abs(defect - oracle) <= 1e-10 * oracle
        defects[dt] = defect
    ratio = defects[1e-3] / defects[5e-4]
    assert 3.5 <= ratio <= 4.5


def test_models_and_channels_compare_and_hash_by_identity():
    # their fields are arrays, so value equality has no single truth value
    for build in (lambda: collective_xz(3), lambda: lindblad_to_kraus(collective_xz(3))):
        a, b = build(), build()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_kraus_channel_validation():
    with pytest.raises(ValidationError):
        KrausChannel(dim=2, operators=())
    with pytest.raises(ValidationError):
        KrausChannel(dim=2, operators=(np.eye(3),))
    with pytest.raises(ValidationError):
        KrausChannel(dim=2, operators=(0.5 * np.eye(2),))  # incomplete without dt
    with pytest.raises(ValidationError):
        KrausChannel(dim=2, operators=(np.eye(2),), dt=-1.0)


def test_channel_apply_preserves_trace_of_exact_channels():
    rng = np.random.default_rng(1)
    ch = random_kraus_channel(4, 3, seed=rng)
    assert ch.completeness_defect() <= 1e-12
    rho = random_density_matrix(4, rng)
    out = kraus_apply(ch, rho)
    assert abs(np.trace(out).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(0.5 * (out + dagger(out))).min() >= -1e-12
    ident = identity_channel(4)
    assert np.array_equal(kraus_apply(ident, rho), rho)


def test_default_dt():
    assert default_dt(collective_xz(2, 0.5, 2.0)) == 1e-3 / 2.0
    assert default_dt(LindbladModel(1, ())) == 1e-3


def test_dfs_check_exact_encoding_passes():
    ch = lindblad_to_kraus(collective_xz(3, 1.0, 1.0), 1e-3)
    ok, defect, _ = dfs_check(ch, collective_dfs_encoding(), 2, 2)
    assert ok
    assert defect <= 1e-12


DFS_DIMS = ((2, 2), (2, 3), (3, 1))


def _channels():
    # a Hermitian first-order set and a non-Hermitian exact one
    return lindblad_to_kraus(collective_xz(3, 1.0, 1.0), 1e-3), random_kraus_channel(8, 3, seed=11)


def test_dfs_check_residuals_give_every_encoded_commutator():
    # [E_k, V^dag (X (x) I) V] = r_k (X (x) I) V - V^dag (X (x) I) r~_k^dag,
    # with r~_k the residual of E_k^dag, against explicit commutators
    rng = np.random.default_rng(5)
    for ch in _channels():
        ops = ch.operators
        for n1, n2 in DFS_DIMS:
            v = haar_random_unitary(8, rng)[: n1 * n2]
            explicit = {}
            for name, stack in (("r", ops), ("r~", dagger(ops))):
                blocks = [partial_trace_1(v @ e @ dagger(v), n1, n2) / n1 for e in stack]
                explicit[name] = np.array(
                    [e @ dagger(v) - dagger(v) @ tensor(np.eye(n1), mk) for e, mk in zip(stack, blocks)]
                )
                r = residuals(stack, v[None], n1, n2)[0][0]
                assert np.allclose(r.reshape(len(ops), 8, n1 * n2), explicit[name], atol=1e-14)
            x = tensor(rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1)), np.eye(n2))
            for e, r, rt in zip(ops, explicit["r"], explicit["r~"]):
                lhs = commutator(e, dagger(v) @ x @ v)
                assert np.allclose(lhs, r @ x @ v - dagger(v) @ x @ dagger(rt), atol=1e-14)
            norms = [np.linalg.norm(r) + np.linalg.norm(rt) for r, rt in zip(explicit["r"], explicit["r~"])]
            ok, defect, per_operator = dfs_check(ch, v, n1, n2)
            assert np.allclose(per_operator, norms, rtol=1e-13, atol=0)
            assert defect == max(per_operator)


def test_dfs_check_defect_does_not_depend_on_the_factor_bases():
    # r_k at (A (x) B) V is r_k (A (x) B)^dag: the same Frobenius norm
    for seed, ch in enumerate(_channels()):
        for n1, n2 in DFS_DIMS:
            v = haar_random_unitary(8, seed)[: n1 * n2]
            a, b = haar_random_unitary(n1, seed + 1), haar_random_unitary(n2, seed + 2)
            defect = dfs_check(ch, v, n1, n2)[1]
            assert defect > 1e-2
            assert abs(dfs_check(ch, tensor(a, b) @ v, n1, n2)[1] - defect) <= 1e-15 * defect


def test_dfs_check_bounds_the_commutators_of_random_encoded_states():
    # ||[E_k, V^dag (rho_1 (x) I/n2) V]|| <= ||r_k|| + ||r~_k||: the defect
    # of six random logical states never exceeds the two-sided residual
    rng = np.random.default_rng(0)
    for ch in _channels():
        ops = ch.operators[:, None]
        for n1, n2 in DFS_DIMS:
            for _ in range(4):
                v = haar_random_unitary(8, rng)[: n1 * n2]
                rho1 = np.array([random_density_matrix(n1, rng) for _ in range(6)])
                states = dagger(v) @ tensor(rho1, np.eye(n2) / n2) @ v
                sampled = np.linalg.norm(ops @ states - states @ ops, axis=(2, 3)).max(axis=1)
                per_operator = dfs_check(ch, v, n1, n2)[2]
                assert np.all(sampled <= per_operator)


def test_dfs_check_random_encoding_fails():
    ch = lindblad_to_kraus(collective_xz(3, 1.0, 1.0), 1e-3)
    ok, defect, per_operator = dfs_check(ch, haar_random_unitary(8, 42)[:4], 2, 2)
    assert not ok
    assert defect > 1e-4
    assert len(per_operator) == len(ch.operators)
    assert defect == max(per_operator)


def test_dfs_check_identity_channel_trivially_passes():
    ok, defect, _ = dfs_check(identity_channel(8), haar_random_unitary(8, 0)[:4], 2, 2)
    assert ok
    assert defect == 0.0
    with pytest.raises(ValidationError):
        dfs_check(identity_channel(8), haar_random_unitary(8, 0), 3, 3)
    with pytest.raises(ValidationError):
        dfs_check(identity_channel(8), np.eye(4, 8) * 2.0, 2, 2)


@pytest.mark.parametrize("n1, n2", [(0, 2), (2, 0)])
def test_dfs_check_rejects_empty_encoded_factor(n1, n2):
    # an empty encoding has no state to protect and must not be certified
    ch = lindblad_to_kraus(collective_xz(3, 1.0, 1.0), 1e-3)
    with pytest.raises(ValidationError, match="must be >= 1"):
        dfs_check(ch, collective_dfs_encoding(), n1, n2)


def test_collective_dfs_encoding_block_structure():
    # orthonormal rows on which S_x and S_z act as I_2 (x) sigma and which
    # they do not couple to the rest: S_a V^dag = V^dag (I_2 (x) sigma_a)
    v = collective_dfs_encoding()
    assert v.shape == (4, 8)
    assert np.abs(v @ dagger(v) - np.eye(4)).max() <= 1e-15
    for op, pauli in ((collective_operator(PAULI_X, 3), X), (collective_operator(PAULI_Z, 3), Z)):
        assert np.abs(op @ dagger(v) - dagger(v) @ np.kron(I2, pauli)).max() <= 1e-14


def test_excitation_subspace():
    b = excitation_subspace(3, 2)
    assert b.shape == (8, 3)
    # states with two excited qubits: |011>, |101>, |110>
    expected_rows = [0b011, 0b101, 0b110]
    for col, row in enumerate(expected_rows):
        assert b[row, col] == 1.0
    assert np.count_nonzero(b) == 3
    assert np.abs(dagger(b) @ b - np.eye(3)).max() == 0.0
    assert excitation_subspace(3, 0).shape == (8, 1)
    with pytest.raises(ValidationError):
        excitation_subspace(3, 4)


def test_basis_state_encoding():
    u = basis_state_encoding(4, [2, 0])
    assert np.array_equal(u @ u.conj().T, np.eye(4))
    e2 = np.zeros(4)
    e2[2] = 1.0
    assert np.array_equal(u @ e2, np.array([1.0, 0, 0, 0], dtype=complex))
    with pytest.raises(ValidationError):
        basis_state_encoding(4, [0, 0])
    with pytest.raises(ValidationError):
        basis_state_encoding(4, [5])
