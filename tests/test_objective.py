import types

import numpy as np
import pytest

from mns.errors import ValidationError
from mns.linalg import dagger, random_density_matrix, tensor
from mns.noise import (
    LindbladModel,
    PAULI_Z,
    collective_dfs_encoding,
    collective_xz,
    default_dt,
    lindblad_to_kraus,
    perturbed_collective,
    random_perturbation_unitary,
)
from mns.objective import gradient_analytic, objective_of_unitary, value_and_gradient
from mns.parametrization import (
    UnitaryParams,
    num_angles,
    num_phases,
    pack_complex,
    polar,
    realize,
    tangent,
)
from oracles import (
    candidate,
    coefficients,
    direct_sum_embed,
    gradient,
    haar_random_unitary,
    identity_channel,
    kraus_apply,
    objective,
    partial_trace_2,
    pauli_basis,
    random_kraus_channel,
    reduced_channel,
    reduced_channel_of_unitary,
    transformed_kraus,
    zero_params,
)

DT = 1e-3


def _random_point(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return UnitaryParams(
        dim,
        scale * rng.uniform(-np.pi, np.pi, num_phases(dim)),
        scale * rng.uniform(-np.pi, np.pi, num_angles(dim)),
    )


def test_candidate_construction():
    cand = candidate(2, 2, zero_params(8))
    assert (cand.n1, cand.n2, cand.n3) == (2, 2, 4)
    assert cand.dim == 8
    assert np.array_equal(cand.unitary, np.eye(8))
    with pytest.raises(ValidationError):
        candidate(3, 3, zero_params(8))
    with pytest.raises(ValidationError):
        candidate(0, 2, zero_params(8))


def test_transformed_kraus():
    ch = random_kraus_channel(4, 3, seed=0)
    u = haar_random_unitary(4, 1)
    got = transformed_kraus(ch, u)
    for e, c in zip(ch.operators, got):
        assert np.allclose(c, u @ e @ dagger(u), atol=1e-14)
    with pytest.raises(ValidationError):
        transformed_kraus(ch, np.eye(5))


def test_coefficients_identity_channel():
    cand = candidate(2, 2, _random_point(8, 0))
    a = coefficients(identity_channel(8), cand)
    assert a.shape == (1, 4, 4)
    assert abs(a[0, 0, 0] - np.sqrt(4.0)) <= 1e-12
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = False
    assert np.abs(a[0][mask]).max() <= 1e-12


def test_coefficients_reconstruction():
    ch = random_kraus_channel(8, 4, seed=2)
    cand = candidate(2, 2, _random_point(8, 3))
    a = coefficients(ch, cand)
    b1 = pauli_basis(2).elements
    b2 = pauli_basis(2).elements
    u = cand.unitary
    for k, e in enumerate(ch.operators):
        block = (u @ e @ dagger(u))[:4, :4]
        recon = sum(
            a[k, m, n] * tensor(b1[m], b2[n]) for m in range(4) for n in range(4)
        )
        assert np.abs(recon - block).max() <= 1e-12


def test_coefficients_hermitian_kraus_real():
    ch = lindblad_to_kraus(LindbladModel(1, ((1.0, PAULI_Z),)), DT)
    a = coefficients(ch, candidate(2, 1, zero_params(2)))
    assert np.abs(a.imag).max() <= 1e-12


def test_objective_identity_channel_is_one():
    for n1, n2, seed in [(2, 2, 0), (2, 3, 1), (4, 2, 2), (2, 1, 3)]:
        cand = candidate(n1, n2, _random_point(8, seed))
        assert abs(objective(identity_channel(8), cand) - 1.0) <= 1e-12


def test_objective_matches_literal_four_term_sum(collective_channel):
    # literal instance: prefactor 1/8, raw identity on the logical factor,
    # all four normalized basis elements on the mixing factor, 3 Kraus terms
    assert len(collective_channel.operators) == 3
    basis2 = pauli_basis(2).elements
    assert len(basis2) == 4
    eye_raw = np.eye(2, dtype=complex)
    for seed in (0, 1):
        u = haar_random_unitary(8, seed)
        total = 0.0
        for e in collective_channel.operators:
            block = (u @ e @ dagger(u))[:4, :4]
            for s in basis2:
                total += abs(np.trace(block @ tensor(eye_raw, s))) ** 2
        lit = total / 8.0
        assert abs(lit - objective_of_unitary(collective_channel, u[:4], 2, 2)) <= 1e-12


def test_objective_at_exact_dfs_encoding(collective_channel):
    # at the decoherence-free point J = 1 + dt^2 for unit rates: the
    # first-order Kraus set overshoots completeness by exactly that much
    j = objective_of_unitary(collective_channel, collective_dfs_encoding(), 2, 2)
    assert abs(j - (1.0 + DT * DT)) <= 1e-12


def test_objective_random_encoding_below_one(collective_channel):
    u = haar_random_unitary(8, 7)
    j = objective_of_unitary(collective_channel, u[:4], 2, 2)
    assert j < 1.0 - 1e-3
    red = reduced_channel_of_unitary(collective_channel, u, 2, 2)
    assert abs(j - red.p1) <= 1e-10


def test_objective_range_property():
    rng = np.random.default_rng(4)
    for trial in range(10):
        ch = random_kraus_channel(8, int(rng.integers(1, 5)), seed=rng)
        cand = candidate(2, 2, _random_point(8, 100 + trial))
        j = objective(ch, cand)
        assert 0.0 <= j <= 1.0 + ch.completeness_defect() + 1e-12


def test_objective_gauge_invariance(collective_channel):
    # J is unchanged by any block unitary (W1 (x) W2) (+) W3 applied on the
    # encoded side of U
    rng = np.random.default_rng(5)
    u = haar_random_unitary(8, rng)
    j0 = objective_of_unitary(collective_channel, u[:4], 2, 2)
    for _ in range(5):
        w1 = haar_random_unitary(2, rng)
        w2 = haar_random_unitary(2, rng)
        w3 = haar_random_unitary(4, rng)
        w = np.zeros((8, 8), dtype=complex)
        w[:4, :4] = tensor(w1, w2)
        w[4:, 4:] = w3
        assert abs(objective_of_unitary(collective_channel, (w @ u)[:4], 2, 2) - j0) <= 1e-10


def test_objective_equals_reduced_p1_random_pairs():
    rng = np.random.default_rng(6)
    for trial in range(10):
        n_ops = int(rng.integers(1, 5))
        ch = random_kraus_channel(8, n_ops, seed=rng)
        n1, n2 = [(2, 2), (2, 3), (4, 2), (2, 1), (3, 2)][trial % 5]
        cand = candidate(n1, n2, _random_point(8, 200 + trial))
        assert abs(objective(ch, cand) - reduced_channel(ch, cand).p1) <= 1e-10


def test_reduced_channel_reconstructs_direct_action():
    ch = random_kraus_channel(8, 3, seed=7)
    cand = candidate(2, 2, _random_point(8, 8))
    red = reduced_channel(ch, cand)
    u, ud = cand.unitary, dagger(cand.unitary)
    rng = np.random.default_rng(9)
    for _ in range(4):
        rho1 = random_density_matrix(2, rng)
        rho = ud @ direct_sum_embed(tensor(rho1, np.eye(2) / 2), 8) @ u
        direct = partial_trace_2((u @ kraus_apply(ch, rho) @ ud)[:4, :4], 2, 2)
        assert np.abs(red.apply(rho1) - direct).max() <= 1e-10
        assert np.trace(direct).real <= 1.0 + 1e-10


def test_reduced_channel_identity():
    red = reduced_channel(identity_channel(8), candidate(2, 2, _random_point(8, 10)))
    assert abs(red.p1 - 1.0) <= 1e-12
    rng = np.random.default_rng(11)
    rho1 = random_density_matrix(2, rng)
    assert np.abs(red.apply(rho1) - rho1).max() <= 1e-10


def test_reduced_channel_p1_in_range(collective_channel):
    for seed in range(3):
        u = haar_random_unitary(8, seed)
        red = reduced_channel_of_unitary(collective_channel, u, 2, 2)
        assert 0.0 < red.p1 <= 1.0 + collective_channel.completeness_defect() + 1e-12


def test_gradient_vanishes_at_optimum(collective_channel, collective_search):
    ga = gradient_analytic(collective_channel, collective_search.best_params, 2, 2)
    assert np.linalg.norm(ga) <= 1e-6


def test_gradient_step_self_consistency(collective_channel):
    cand = candidate(2, 2, _random_point(8, 12, scale=0.3))
    g5 = gradient(collective_channel, cand, h=1e-5)
    g6 = gradient(collective_channel, cand, h=1e-6)
    assert np.linalg.norm(g5 - g6) <= 1e-4 * np.linalg.norm(g6)
    with pytest.raises(ValidationError):
        gradient(collective_channel, cand, h=0.0)


def test_gradient_analytic_matches_finite_differences(collective_channel):
    for seed in (13, 14):
        cand = candidate(2, 2, _random_point(8, seed, scale=0.3))
        ga = gradient_analytic(collective_channel, cand.params, 2, 2)
        gf = gradient(collective_channel, cand, h=1e-6)
        assert np.linalg.norm(ga - gf) <= 1e-6 * max(1.0, np.linalg.norm(gf))


def test_value_and_gradient_objective_is_bitwise_objective_of_unitary(collective_channel):
    # Hermitian collective Kraus operators at N = 8 and N = 16, and a random
    # exact channel whose operators are not Hermitian
    random_channel = random_kraus_channel(8, 3, seed=24)
    assert not np.allclose(random_channel.operators[0], dagger(random_channel.operators[0]))
    four_qubits = lindblad_to_kraus(collective_xz(4, 1.0, 1.0), DT)
    cases = (
        (collective_channel, 16, (2, 2)),
        (collective_channel, 17, (2, 1)),
        (collective_channel, 18, (1, 3)),
        (collective_channel, 19, (2, 4)),
        (random_channel, 25, (2, 2)),
        (random_channel, 26, (3, 1)),
        (four_qubits, 27, (2, 4)),
        (four_qubits, 28, (2, 1)),
    )
    for channel, seed, dims in cases:
        u = realize(_random_point(channel.dim, seed))
        value, *_ = value_and_gradient(channel, u[: dims[0] * dims[1]], *dims)
        assert 1.0 - value == objective_of_unitary(channel, u[: dims[0] * dims[1]], *dims)


def _one_minus_j_oracle(operators, v, n1, n2):
    """R and (1/m) tr(V (I - S) V^dag), whose sum is 1 - J, one Kraus
    operator at a time."""
    m, dim = n1 * n2, v.shape[1]
    vd = v.conj().T
    total = 0.0
    gram = np.zeros((dim, dim), dtype=complex)
    for e in operators:
        c = v @ e @ vd
        mk = sum(c[i * n2 : (i + 1) * n2, i * n2 : (i + 1) * n2] for i in range(n1)) / n1
        r = e @ vd - vd @ np.kron(np.eye(n1), mk)
        total += np.sum(np.abs(r) ** 2)
        gram += e.conj().T @ e
    return total / m, np.trace(v @ (np.eye(dim) - gram) @ vd).real / m


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (1, 3), (2, 3)])
def test_one_minus_objective_is_residual_sum_of_squares(dims):
    # 1 - J = (1/m) sum_k ||E_k V^dag - V^dag (I (x) M_k)||^2
    #         + (1/m) tr(V (I - sum_k E_k^dag E_k) V^dag)
    perturbed = perturbed_collective(
        3, 1.0, 1.0, random_perturbation_unitary(8, 0.05, "global", seed=9)
    )
    channels = (
        random_kraus_channel(8, 3, seed=40),
        lindblad_to_kraus(collective_xz(3, 1.0, 1.0), DT),
        lindblad_to_kraus(perturbed, default_dt(perturbed)),
    )
    rng = np.random.default_rng(41)
    for channel in channels:
        for _ in range(3):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            u = np.linalg.qr(g)[0]
            v = u[: dims[0] * dims[1]]
            j = objective_of_unitary(channel, v, *dims)
            residual, gap = _one_minus_j_oracle(channel.operators, v, *dims)
            assert abs((1.0 - j) - (residual + gap)) <= 1e-15
            # value_and_gradient's R is the sum of squares alone
            assert abs(value_and_gradient(channel, v, *dims)[2] - residual) <= 1e-15
            assert abs(j - reduced_channel_of_unitary(channel, u, *dims).p1) <= 1e-13


def test_value_and_gradient_matches_finite_differences():
    # the tangent projection of the gradient in V against central
    # differences of f(polar(x)) over the flat X coordinates the search
    # moves, at the packing of V = polar(x0); the first-order channel at a
    # long step makes the completeness term (2/m) V (I - S) large enough to
    # show in the comparison
    rng = np.random.default_rng(20)
    exact = random_kraus_channel(8, 4, rng)
    coarse = lindblad_to_kraus(collective_xz(3, 1.0, 1.0), 0.2)
    assert coarse.completeness_defect() > 1e-2
    for ch in (exact, coarse):
        for seed, dims in ((21, (2, 2)), (22, (2, 3)), (23, (3, 1)), (29, (1, 3)), (30, (2, 4))):
            m = dims[0] * dims[1]
            v = polar(np.random.default_rng(seed).standard_normal(2 * m * 8), m)
            x0 = pack_complex(v)

            def f_of(x):
                return value_and_gradient(ch, polar(x, m), *dims)[0]

            ga = tangent(v, value_and_gradient(ch, v, *dims)[1])
            h = 1e-6
            gf = np.array([(f_of(x0 + h * e) - f_of(x0 - h * e)) / (2 * h) for e in np.eye(x0.size)])
            assert np.linalg.norm(ga - gf) <= 1e-6 * max(1.0, np.linalg.norm(gf))


def test_value_and_gradient_rows_of_a_stack_are_bitwise_stacks_of_one(collective_channel):
    # the search evaluates every restart's point in one call: each row's value
    # and G must not depend on which rows share the stack
    four_qubits = lindblad_to_kraus(collective_xz(4, 1.0, 1.0), DT)
    cases = (
        (collective_channel, (2, 1)),
        (collective_channel, (2, 2)),
        (collective_channel, (3, 1)),
        (random_kraus_channel(8, 3, seed=34), (2, 3)),
        (four_qubits, (2, 4)),
        (four_qubits, (3, 3)),
    )
    for channel, (n1, n2) in cases:
        vs = np.stack([realize(_random_point(channel.dim, seed))[: n1 * n2] for seed in range(7)])
        for lo, hi in ((0, 7), (2, 5), (3, 4)):
            values, grads, residuals = value_and_gradient(channel, vs[lo:hi], n1, n2)
            assert values.shape == residuals.shape == (hi - lo,)
            assert grads.shape == vs[lo:hi].shape
            for row in range(hi - lo):
                value, grad, residual = value_and_gradient(channel, vs[lo + row], n1, n2)
                assert np.array_equal(values[row], value)
                assert np.array_equal(grads[row], grad)
                assert np.array_equal(residuals[row], residual)


def test_channel_arrays_are_cached_read_only():
    # the stack and I - sum_k E_k^dag E_k are built once per channel and
    # cannot be written through; repeated evaluations give identical results
    channel = lindblad_to_kraus(collective_xz(3, 1.0, 1.0), DT)
    cached = (channel.stack, channel.completeness_gap)
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0
    assert channel.stack is cached[0] and channel.completeness_gap is cached[1]
    assert np.array_equal(cached[0], np.stack(channel.operators))
    gap = np.eye(8) - sum(dagger(e) @ e for e in channel.operators)
    assert np.abs(cached[1] - gap).max() <= 1e-15
    assert channel.completeness_defect() == np.linalg.norm(cached[1])
    v = realize(_random_point(8, 32))[:4]
    first = value_and_gradient(channel, v, 2, 2)
    for _ in range(3):
        again = value_and_gradient(channel, v, 2, 2)
        assert again[0] == first[0]
        assert np.array_equal(again[1], first[1])
    assert objective_of_unitary(channel, v, 2, 2) == objective_of_unitary(channel, v, 2, 2)


def test_objective_of_unitary_rejects_rows_that_are_not_orthonormal(collective_channel):
    v = realize(_random_point(8, 33))[:4]
    objective_of_unitary(collective_channel, v, 2, 2)
    with pytest.raises(ValidationError, match="orthonormal"):
        objective_of_unitary(collective_channel, 1.01 * v, 2, 2)
    with pytest.raises(ValidationError):
        objective_of_unitary(collective_channel, v[:3], 2, 2)


def test_value_and_gradient_validation(collective_channel):
    with pytest.raises(ValidationError):
        value_and_gradient(collective_channel, np.eye(4, 8), 2, 1)
    with pytest.raises(ValidationError):
        value_and_gradient(collective_channel, np.eye(9, 8), 3, 3)


def test_gradient_zero_along_global_phase(collective_channel):
    # shifting all diagonal phases together multiplies U by a global phase,
    # which cancels in U E U^dag, so that directional derivative vanishes
    ga = gradient_analytic(collective_channel, _random_point(8, 15), 2, 2)
    assert abs(ga[:8].sum()) <= 1e-12


def test_objective_dephasing_closed_forms():
    gamma, dt = 1.0, DT
    ch = lindblad_to_kraus(LindbladModel(1, ((gamma, PAULI_Z),)), dt)
    u = haar_random_unitary(2, 16)
    # (n1, n2) = (2, 1): J = ((1/2)|Tr E_0|)^2 = (1 - gamma dt / 2)^2
    j21 = objective_of_unitary(ch, u, 2, 1)
    assert abs(j21 - (1 - gamma * dt / 2) ** 2) <= 1e-14
    # (n1, n2) = (1, 2): everything is identity weight, J = 1 + (gamma dt)^2/4
    j12 = objective_of_unitary(ch, u, 1, 2)
    assert abs(j12 - (1 + gamma * gamma * dt * dt / 4)) <= 1e-14


def test_dimension_mismatch_raises():
    ch = identity_channel(4)
    with pytest.raises(ValidationError):
        objective(ch, candidate(2, 2, zero_params(8)))
    with pytest.raises(ValidationError):
        objective_of_unitary(ch, np.eye(4), 3, 2)


def test_package_does_not_shadow_the_objective_module():
    import mns.objective as module

    assert isinstance(module, types.ModuleType)
