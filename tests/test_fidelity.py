from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mns.fidelity
import mns.noise
from mns.errors import ValidationError
from mns.experiments import build_model, load_config
from mns.fidelity import evolve, fidelity_sweep, worst_case_fidelity
from mns.fidelity import _BLOCH, _logical_maps, _minima, _sphere_minimum
from mns.linalg import dagger, tensor
from mns.noise import (
    LindbladModel,
    PAULI_Z,
    collective_dfs_encoding,
    collective_xz,
    collective_z_with_local_dephasing,
    liouvillian,
    perturbed_collective,
    random_perturbation_unitary,
)
from mns.search import RETRACT_GAIN, SearchConfig
from oracles import (
    basis_state_encoding,
    choi_matrix,
    decode,
    dense_worst_case,
    direct_map,
    encode,
    evolved_apply,
    haar_random_unitary,
    kraus_apply,
    logical_map,
    random_density_matrix,
    random_kraus_channel,
    sphere_minimum_by_brentq,
)

LOCAL_RATES = (0.33, 0.47, 0.85)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _dephasing(gamma=1.0):
    return LindbladModel(1, ((gamma, PAULI_Z),))


def _perturbed(delta, seed=9):
    v = random_perturbation_unitary(8, delta, "global", seed=seed)
    return perturbed_collective(3, 1.0, 1.0, v)


def _pure_fidelity(psi, u, dims, sup):
    rho1 = np.outer(psi, psi.conj())
    out, _ = decode(evolved_apply(sup, encode(rho1, u, dims)), u, dims, renormalize=False)
    return float(np.real(psi.conj() @ out @ psi))


def _fidelities(psis, u, dims, sup):
    """f(psi) for a batch of pure logical states, straight from the encoding,
    the superoperator and the partial trace over H2."""
    n1, n2 = dims
    m, dim = n1 * n2, len(u)
    rho1 = psis[:, :, None] * psis.conj()[:, None, :]
    full = np.zeros((len(psis), dim, dim), dtype=complex)
    full[:, :m, :m] = np.einsum("kab,cd->kacbd", rho1, np.eye(n2) / n2).reshape(-1, m, m)
    out = (dagger(u) @ full @ u).reshape(len(psis), -1) @ sup.T
    block = (u @ out.reshape(-1, dim, dim) @ dagger(u))[:, :m, :m].reshape(-1, n1, n2, n1, n2)
    return np.einsum("ka,kacbc,kb->k", psis.conj(), block, psis).real


def _bloch_grid_minimum(u, dims, sup):
    """Minimum of f over a 65 x 128 Bloch grid, then 12 zooms of an 11 x 11
    grid around the best point, each a quarter as wide as the one before."""

    def fidelities(theta, phi):
        psis = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)
        return _fidelities(psis, u, dims, sup)

    theta, phi = np.meshgrid(
        np.linspace(0.0, np.pi, 65), np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    )
    theta, phi = theta.ravel(), phi.ravel()
    width = np.pi / 64
    for _ in range(13):
        vals = fidelities(theta, phi)
        best = int(np.argmin(vals))
        steps = np.linspace(-width, width, 11)
        theta, phi = (np.add.outer(c[best], steps).ravel() for c in (theta, phi))
        theta, phi = np.repeat(theta, 11), np.tile(phi, 11)
        width /= 4
    return float(vals[best])


def _random_lindblad(n_qubits, seed):
    # one lowering-type jump, so the channel is not unital
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    terms = []
    for k in range(3):
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = np.triu(op, 1) if k == 0 else op
        terms.append((rng.uniform(0.1, 0.6), op / np.linalg.norm(op)))
    return LindbladModel(n_qubits, tuple(terms))


def _expm_channel(model, t):
    # exp(L t) by SciPy, for the non-Hermitian generators evolve refuses
    return scipy.linalg.expm(liouvillian(model) * t)


def test_liouvillian_dephasing_closed_form():
    gamma = 0.8
    ll = liouvillian(_dephasing(gamma))
    expected = gamma * (tensor(PAULI_Z, PAULI_Z) - np.eye(4))
    assert np.abs(ll - expected).max() <= 1e-15
    assert np.array_equal(np.diagonal(ll).real, [0.0, -2 * gamma, -2 * gamma, 0.0])


def test_evolve_zero_time_is_identity():
    ev = evolve(_dephasing(), 0.0)
    assert np.array_equal(ev, np.eye(4))
    rng = np.random.default_rng(0)
    rho = random_density_matrix(2, rng)
    assert np.array_equal(evolved_apply(ev, rho), rho)
    with pytest.raises(ValidationError):
        evolve(_dephasing(), -0.1)
    with pytest.raises(ValidationError):
        evolved_apply(ev, np.eye(3))


def test_evolve_coherence_decay():
    gamma = 0.6
    plus = np.full((2, 2), 0.5, dtype=complex)
    for t in (0.1, 0.5, 1.3):
        out = evolved_apply(evolve(_dephasing(gamma), t), plus)
        assert abs(out[0, 1] - 0.5 * np.exp(-2 * gamma * t)) <= 1e-12
        assert abs(out[0, 0] - 0.5) <= 1e-12


def test_evolve_is_cptp():
    rng = np.random.default_rng(1)
    for model in (collective_xz(2, 1.0, 0.5), _dephasing(0.9)):
        for t in (0.3, 1.0):
            ev = evolve(model, t)
            for _ in range(3):
                rho = random_density_matrix(model.dim, rng)
                out = evolved_apply(ev, rho)
                assert abs(np.trace(out).real - 1.0) <= 1e-10
            choi = choi_matrix(ev)
            assert np.abs(choi - dagger(choi)).max() <= 1e-10
            assert np.linalg.eigvalsh(choi).min() >= -1e-9


def test_evolve_rejects_non_finite_time():
    # a NaN superoperator would surface later, in the worst-case minimum, as an
    # unrelated "Eigenvalues did not converge"
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="t_f"):
            evolve(collective_xz(2), t)


@pytest.mark.parametrize(
    "name", [*sorted(path.stem for path in CONFIG_DIR.glob("*.json")), "collective_xz_n4"]
)
def test_evolve_spectrum_matches_expm(name):
    # every bundled model has Hermitian Lindblad operators, so evolve takes
    # the eigendecomposition route; it agrees with expm to rounding
    if name == "collective_xz_n4":
        model = collective_xz(4)
    else:
        model = build_model(load_config(CONFIG_DIR / f"{name}.json").model)
    assert model.spectrum is not None
    ll = liouvillian(model)
    for t in (0.01, 0.1, 1.0, 3.0):
        expected = scipy.linalg.expm(ll * t)
        got = evolve(model, t)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "name", [*sorted(path.stem for path in CONFIG_DIR.glob("*.json")), "collective_xz_n4"]
)
@pytest.mark.parametrize("dims", [(2, 2), (2, 4)])
def test_spectral_logical_maps_match_dense_maps(name, dims):
    # the maps a sweep forms from the cached spectrum against logical_map of
    # the N^2 x N^2 superoperator; at t = 0 both use the identity channel
    if name == "collective_xz_n4":
        model = collective_xz(4)
    else:
        model = build_model(load_config(CONFIG_DIR / f"{name}.json").model)
    n1, n2 = dims
    times = [0.0, 0.01, 0.1, 1.0, 3.0]
    rows = [collective_dfs_encoding()] if model.dim == 8 and dims == (2, 2) else []
    rows.append(haar_random_unitary(model.dim, 60 + model.dim)[: n1 * n2])
    maps = _logical_maps(model, times, rows, n1, n2)
    assert maps.shape == (len(rows), len(times), n1 * n1, n1 * n1)
    for v, row in zip(rows, maps):
        for t, got in zip(times, row):
            dense = logical_map(evolve(model, t), v, n1, n2)
            if t == 0.0:
                assert np.array_equal(got, dense)
            else:
                assert np.abs(got - dense).max() <= 1e-13


_LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_evolve_refuses_non_hermitian_liouvillian():
    # sigma_minus = |0><1| decays |1>: its Liouvillian is not Hermitian, and
    # exact evolution has only the eigendecomposition route, so evolve at
    # t > 0 refuses the model; t = 0 needs no spectrum
    model = LindbladModel(1, ((0.7, _LOWERING),))
    with pytest.raises(ValidationError, match="not Hermitian"):
        model.spectrum
    assert np.array_equal(evolve(model, 0.0), np.eye(4))
    for t in (0.1, 1.0):
        with pytest.raises(ValidationError, match="not Hermitian"):
            evolve(model, t)


def test_fidelity_sweep_refuses_non_hermitian_liouvillian():
    # sigma_minus on the first of two qubits, plus collective dephasing: the
    # Liouvillian is not Hermitian, so a tf sweep has no spectrum to score from
    two = LindbladModel(
        2, ((0.7, tensor(_LOWERING, np.eye(2))), (0.3, mns.noise.collective_operator(PAULI_Z, 2)))
    )
    config = SearchConfig(num_restarts=1, seed=1, candidate_dims=((2, 1),))
    with pytest.raises(ValidationError, match="not Hermitian"):
        fidelity_sweep(lambda _v: two, [0.0, 0.5], "tf", haar_random_unitary(4, 19)[:2], (2, 1), config)


def test_choi_matrix_identity_superoperator():
    vec_id = np.eye(2).reshape(-1)
    assert np.array_equal(choi_matrix(np.eye(4)), np.outer(vec_id, vec_id))
    with pytest.raises(ValidationError):
        choi_matrix(np.eye(5))


def test_dfs_encoded_state_is_stationary():
    # collective noise cannot see a state encoded in the doublet pair
    model = collective_xz(3, 1.0, 1.0)
    u = collective_dfs_encoding()
    rng = np.random.default_rng(2)
    rho = encode(random_density_matrix(2, rng), u, (2, 2))
    out = evolved_apply(evolve(model, 1.0), rho)
    assert np.abs(out - rho).max() <= 1e-9


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(3)
    u = haar_random_unitary(8, rng)
    rho1 = random_density_matrix(2, rng)
    full = encode(rho1, u, (2, 2))
    assert abs(np.trace(full).real - 1.0) <= 1e-12
    back, leakage = decode(full, u, (2, 2))
    assert np.abs(back - rho1).max() <= 1e-12
    assert abs(leakage) <= 1e-12


def test_encode_rank_bound():
    psi = np.zeros(2, dtype=complex)
    psi[0] = 1.0
    rho1 = np.outer(psi, psi.conj())
    full = encode(rho1, haar_random_unitary(8, 4), (2, 2))
    eig = np.linalg.eigvalsh(full)
    assert int(np.sum(eig > 1e-12)) <= 2  # n2 * rank(rho1)
    assert np.abs(eig[-2:] - 0.5).max() <= 1e-12


def test_encode_rejects_invalid_states():
    u = np.eye(8, dtype=complex)
    with pytest.raises(ValidationError):
        encode(np.array([[0.5, 0.5], [0.2, 0.5]]), u, (2, 2))  # not Hermitian
    with pytest.raises(ValidationError):
        encode(np.diag([0.7, 0.7]), u, (2, 2))  # trace != 1
    with pytest.raises(ValidationError):
        encode(np.diag([1.5, -0.5]), u, (2, 2))  # negative eigenvalue
    with pytest.raises(ValidationError):
        encode(np.diag([0.5, 0.3, 0.2]), u, (2, 2))  # wrong logical dim


def test_decode_leakage_bookkeeping():
    rng = np.random.default_rng(5)
    u = haar_random_unitary(8, rng)
    rho1 = random_density_matrix(2, rng)
    outside = np.zeros((8, 8), dtype=complex)
    outside[4:, 4:] = random_density_matrix(4, rng)
    leaky = 0.7 * encode(rho1, u, (2, 2)) + 0.3 * (dagger(u) @ outside @ u)
    raw, leakage = decode(leaky, u, (2, 2), renormalize=False)
    assert abs(leakage - 0.3) <= 1e-12
    assert abs(np.trace(raw).real - 0.7) <= 1e-12
    renormed, leakage2 = decode(leaky, u, (2, 2))
    assert abs(leakage2 - 0.3) <= 1e-12
    assert np.abs(renormed - rho1).max() <= 1e-12


def test_decode_traces_out_gauge_coherences():
    # rho1 (x) sigma with a coherent gauge state: tracing H2 out returns rho1,
    # while summing the H2 block over every index pair would return 2 rho1
    rng = np.random.default_rng(8)
    rho1 = random_density_matrix(2, rng)
    plus = np.full((2, 2), 0.5, dtype=complex)
    u = haar_random_unitary(8, 9)
    block = np.zeros((8, 8), dtype=complex)
    block[:4, :4] = tensor(rho1, plus)
    out, leakage = decode(dagger(u) @ block @ u, u, (2, 2), renormalize=False)
    assert np.abs(out - rho1).max() <= 1e-12
    assert abs(leakage) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (3, 1), (2, 3), (4, 2)])
def test_logical_map_matches_direct_action(dims):
    # the restricted superoperator against encode -> act -> decode, one H1
    # matrix unit at a time: on an expm superoperator, on the Kraus
    # superoperator sum_k E_k (x) conj(E_k), and on the t = 0 identity map
    n1, n2 = dims
    u = haar_random_unitary(8, 40 + n1 * n2)
    model = _random_lindblad(3, n1 + n2)
    ev = _expm_channel(model, 0.7)
    channel = random_kraus_channel(8, 3, seed=n1 * n2)
    kraus_sup = sum(np.kron(e, e.conj()) for e in channel.operators)
    cases = [
        (ev, partial(evolved_apply, ev)),
        (kraus_sup, partial(kraus_apply, channel)),
        (evolve(model, 0.0), lambda rho: rho),
    ]
    for sup, action in cases:
        got = logical_map(sup, u[: n1 * n2], n1, n2)
        assert np.abs(got - direct_map(action, u, n1, n2)).max() <= 1e-14


def test_worst_case_fidelity_identity_evolution():
    ev = evolve(collective_xz(3, 1.0, 1.0), 0.0)
    fi = dense_worst_case(haar_random_unitary(8, 6)[:4], (2, 2), ev)
    assert abs(fi - 1.0) <= 1e-12


def test_worst_case_fidelity_dfs_encoding():
    ev = evolve(collective_xz(3, 1.0, 1.0), 1.0)
    fi = dense_worst_case(collective_dfs_encoding(), (2, 2), ev)
    assert fi >= 1.0 - 1e-6


def test_worst_case_fidelity_dephasing_closed_form():
    for gamma, t in ((0.7, 0.9), (1.0, 1.0)):
        ev = evolve(_dephasing(gamma), t)
        fi = dense_worst_case(np.eye(2), (2, 1), ev)
        assert abs(fi - 0.5 * (1 + np.exp(-2 * gamma * t))) <= 1e-12


def test_worst_case_fidelity_qubit_matches_dense_bloch_grid():
    # random non-unital channels; (2, 2) in 3 qubits leaks out of the block
    cases = [(1, (2, 1)), (2, (2, 1)), (2, (2, 2)), (3, (2, 1)), (3, (2, 2)), (3, (2, 2))]
    for seed, (n_qubits, dims) in enumerate(cases):
        model = _random_lindblad(n_qubits, seed)
        for t in (0.4, 1.1):
            ev = _expm_channel(model, t)
            u = haar_random_unitary(model.dim, 100 + seed)
            fi = dense_worst_case(u[: dims[0] * dims[1]], dims, ev)
            grid = _bloch_grid_minimum(u, dims, ev)
            assert fi <= grid + 1e-12
            assert abs(fi - grid) <= 1e-9


def test_sphere_minimum_matches_the_brentq_root():
    # random 3x3 problems with |b| from 1e-8 to 10, near-hard ones (beta_0/|b|
    # of 1e-6, 1e-10 and 1e-14 while the rest of y(lam_0) lies inside the
    # ball, so mu sits next to lam_0) and a degenerate lam_0 = lam_1 with b on
    # both, exact and rotated: Newton's root gives the minimum of SciPy's
    # brentq root on the same bracket, to rounding, and a unit r
    rng = np.random.default_rng(15)
    problems = []
    for _ in range(300):
        c = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        problems.append((b * 10.0 ** rng.uniform(-8, 1) / np.linalg.norm(b), c + c.T))
    for v in (np.eye(3), np.linalg.qr(rng.normal(size=(3, 3)))[0]):
        for ratio in (1e-6, 1e-10, 1e-14):
            beta = np.array([ratio, 0.6, 0.8])
            problems.append((v @ beta, v @ np.diag([-1.0, 0.5, 2.0]) @ v.T))
        problems.append((v @ [0.3, 0.4, 0.0], v @ np.diag([-1.0, -1.0, 1.0]) @ v.T))
    b, c = np.array([b for b, _ in problems]), np.array([c for _, c in problems])
    for bk, ck, r in zip(b, c, _sphere_minimum(b, c)):
        expected = sphere_minimum_by_brentq(bk, ck)
        f, f_brent = bk @ r + r @ ck @ r, bk @ expected + expected @ ck @ expected
        assert abs(f - f_brent) <= 2e-15 * max(1.0, abs(f_brent))
        assert abs(np.linalg.norm(r) - 1.0) <= 1e-15


def test_sphere_minimum_hard_case():
    # b has no component on the lowest eigenvector of c, and the rest of the
    # stationary point, -b / (2 (c - lam_min)) = (0, -1/8, 0), lies inside
    # the ball: mu = lam_min and the lowest direction fills |r| = 1.
    b, c = np.array([0.0, 0.5, 0.0]), np.diag([-1.0, 1.0, 1.0])
    (r,) = _sphere_minimum(b[None], c[None])
    value = b @ r + r @ c @ r
    assert abs(np.linalg.norm(r) - 1.0) <= 1e-15
    assert np.abs(np.abs(r) - [np.sqrt(63 / 64), 1 / 8, 0.0]).max() <= 1e-15
    assert abs(value + 33 / 32) <= 1e-15
    # brute force over a Fibonacci sphere of 200,001 points
    k = np.arange(200_001) + 0.5
    z = 1.0 - 2.0 * k / k.size
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    pts = np.stack([np.sqrt(1 - z**2) * np.cos(phi), np.sqrt(1 - z**2) * np.sin(phi), z], axis=1)
    brute = (pts @ b + np.einsum("ki,ij,kj->k", pts, c, pts)).min()
    assert value <= brute
    assert brute - value <= 1e-3


def _bloch_form_map(a, b, c):
    """The qubit logical map whose f is a + b.r + r^T c r on the Bloch sphere."""
    q = np.zeros((4, 4))
    q[0, 0], q[0, 1:], q[1:, 0], q[1:, 1:] = a, b / 2, b / 2, c
    return 4.0 * _BLOCH @ q @ dagger(_BLOCH)


def test_stacked_worst_cases_match_one_map_at_a_time():
    # a 21-time sweep of two encodings scored in one stack against
    # dense_worst_case at each time, plus Bloch-form problems with known
    # minima: a pole (beta_0 != 0, so |y(lam_0)| is infinite and the root
    # lies left of it), a pole on a degenerate lowest eigenvalue, and the
    # hard case (beta_0 = 0, mu = lam_0)
    model = _perturbed(0.1)
    times = [0.0, *np.sort(np.random.default_rng(18).uniform(0.0, 1.0, 19)), 1.0]
    encodings = [collective_dfs_encoding(), haar_random_unitary(8, 18)[:4]]
    stacked = worst_case_fidelity(model, times, encodings, (2, 2))
    assert stacked.shape == (2, 21)
    for v, row in zip(encodings, stacked):
        for t, fi in zip(times, row):
            assert abs(fi - dense_worst_case(v, (2, 2), evolve(model, t))) <= 1e-14
    cases = [
        (_bloch_form_map(1.0, np.array([0.3, 0.0, 0.0]), np.diag([-1.0, 1.0, 1.0])), 1.0 - 1.3),
        (_bloch_form_map(1.0, np.array([0.3, 0.4, 0.0]), np.diag([-1.0, -1.0, 1.0])), 1.0 - 1.5),
        (_bloch_form_map(2.0, np.array([0.0, 0.5, 0.0]), np.diag([-1.0, 1.0, 1.0])), 2.0 - 33 / 32),
    ]
    maps = np.array([g for g, _ in cases])
    minima = _minima(maps, 2)
    for (g, expected), fi in zip(cases, minima):
        assert abs(fi - _minima(g[None], 2)[0]) <= 1e-14
        assert abs(fi - expected) <= 1e-14


def test_worst_case_fidelity_qutrit_dephasing_closed_form():
    # Diagonal Lindblad operators keep the basis-state populations p and damp
    # each coherence by a factor A_ab, so f = p^T A p; its minimum lies inside
    # the simplex, at p ~ A^-1 1, where f = 1 / (1^T A^-1 1).  Basis states and
    # equal-weight pairs are saddles of this f.
    states = [3, 5, 6]
    ev = evolve(collective_z_with_local_dephasing(3, 1.0, 0.1, LOCAL_RATES), 1.0)
    a = np.empty((3, 3))
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            unit = np.zeros((8, 8), dtype=complex)
            unit[si, sj] = 1.0
            a[i, j] = evolved_apply(ev, unit)[si, sj].real
    weights = np.linalg.solve(a, np.ones(3))
    assert weights.min() > 0.0  # the minimum is inside the simplex
    fi = dense_worst_case(basis_state_encoding(8, states)[:3], (3, 1), ev)
    assert abs(fi - 1.0 / weights.sum()) <= 1e-12


def test_worst_case_fidelity_qutrit_chart():
    ev = evolve(collective_z_with_local_dephasing(3, 1.0, 0.1, LOCAL_RATES), 0.0)
    fi = dense_worst_case(basis_state_encoding(8, [3, 5, 6])[:3], (3, 1), ev)
    assert abs(fi - 1.0) <= 1e-12


def test_worst_case_fidelity_four_level_identity_evolution():
    ev = evolve(collective_xz(3, 1.0, 1.0), 0.0)
    fi = dense_worst_case(haar_random_unitary(8, 7)[:4], (4, 1), ev)
    assert abs(fi - 1.0) <= 1e-9


def test_worst_case_fidelity_four_level_below_state_sample():
    # 20,000 seeded random states, the minimum n1 >= 4 used to report, sit
    # about 9e-3 above the minimum the descent finds on this channel.
    ev = evolve(collective_xz(3, 0.3, 0.2), 0.5)
    u = haar_random_unitary(8, 300)
    fi = dense_worst_case(u[:4], (4, 1), ev)
    raw = np.random.default_rng(1234).standard_normal((20000, 8))
    psis = raw[:, :4] + 1j * raw[:, 4:]
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    sampled = min(_fidelities(chunk, u, (4, 1), ev).min() for chunk in np.split(psis, 10))
    assert fi <= sampled - 1e-3


def test_descent_minimum_lanes_retract_onto_the_unit_sphere(monkeypatch):
    # every descent of a four-level map, cut after each of its iterations: a
    # step that gained more than RETRACT_GAIN |f| leaves the lane at the
    # accepted trial's normalization, as the search's lanes stay on the
    # isometries
    captured = []
    lockstep = mns.fidelity._lockstep
    monkeypatch.setattr(
        mns.fidelity,
        "_lockstep",
        lambda fg, starts, *rules: captured.append((fg, starts, rules)) or lockstep(fg, starts, *rules),
    )
    u = haar_random_unitary(8, 300)[:4]
    [[gmat]] = _logical_maps(collective_xz(3, 0.3, 0.2), [0.5], [u], 4, 1)
    mns.fidelity._descent_minimum(gmat, 4)
    retracted = 0
    for fg, starts, (max_iterations, *rules) in captured:
        for start, run in zip(starts, lockstep(fg, starts, max_iterations, *rules)):
            for k in range(1, run.iterations + 1):
                (cut,) = lockstep(fg, [start], k, *rules)
                f = cut.trace[-1]
                if cut.trace[-2] - f > RETRACT_GAIN * abs(f):
                    assert abs(np.linalg.norm(cut.x) - 1.0) <= 1e-14
                    retracted += 1
    assert retracted > 0


def test_worst_case_below_sampled_fidelities():
    # the reported minimum sits under both the mean and the minimum of a
    # 1000-state random sample
    ev = evolve(_perturbed(0.1), 1.0)
    u = collective_dfs_encoding()
    fi = dense_worst_case(u, (2, 2), ev)
    rng = np.random.default_rng(8)
    sample = []
    for _ in range(1000):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        sample.append(_pure_fidelity(psi, u, (2, 2), ev))
    sample = np.array(sample)
    assert fi <= sample.min() + 1e-12
    assert fi <= sample.mean()
    assert 0.0 <= fi <= 1.0 + 1e-9


def test_worst_case_fidelity_non_increasing_in_time():
    u = collective_dfs_encoding()
    model = _perturbed(0.1)
    vals = [
        dense_worst_case(u, (2, 2), evolve(model, t)) for t in (0.0, 0.3, 0.6, 1.0)
    ]
    assert vals[0] >= 1.0 - 1e-12
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_fidelity_sweep_delta_mode():
    config = SearchConfig(num_restarts=2, seed=1, candidate_dims=((2, 2),))
    points = fidelity_sweep(
        _perturbed, [0.0, 0.05, 0.1], "delta", collective_dfs_encoding(), (2, 2), config
    )
    assert [pt.param for pt in points] == [0.0, 0.05, 0.1]
    for pt in points:
        assert 0.0 <= pt.fi_mns <= 1.0 + 1e-9
        assert 0.0 <= pt.fi_dfs <= 1.0 + 1e-9
        assert pt.fi_mns >= pt.fi_dfs - 1e-9
        assert pt.converged
    assert abs(points[0].fi_mns - 1.0) <= 1e-6
    assert abs(points[0].fi_dfs - 1.0) <= 1e-6
    # strict advantage away from the unperturbed point
    assert points[2].fi_mns - points[2].fi_dfs > 1e-4


def test_fidelity_sweep_dfs_plateau():
    # the reference curve is quadratically flat near delta = 0
    for delta in (0.005, 0.01):
        ev = evolve(_perturbed(delta), 1.0)
        fi = dense_worst_case(collective_dfs_encoding(), (2, 2), ev)
        assert abs(fi - 1.0) <= 1e-3


def test_fidelity_sweep_tf_mode():
    config = SearchConfig(num_restarts=2, seed=1, candidate_dims=((2, 2),))
    points = fidelity_sweep(
        lambda _v: _perturbed(0.05),
        [0.0, 0.1],
        "tf",
        collective_dfs_encoding(),
        (2, 2),
        config,
    )
    assert [pt.param for pt in points] == [0.0, 0.1]
    assert abs(points[0].fi_mns - 1.0) <= 1e-9
    assert abs(points[0].fi_dfs - 1.0) <= 1e-9
    assert points[1].fi_mns <= points[0].fi_mns + 1e-9
    assert points[0].j_opt == points[1].j_opt  # single search in tf mode


def test_fidelity_sweep_tf_mode_decomposes_once(monkeypatch):
    # the evolve calls of a tf-mode sweep share one Liouvillian and one eigh
    builds, eighs = [], []
    build, eigh = mns.noise.liouvillian, np.linalg.eigh
    monkeypatch.setattr(mns.noise, "liouvillian", lambda model: builds.append(1) or build(model))

    def counting_eigh(a, *args, **kwargs):
        if a.shape == (64, 64):
            eighs.append(1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    evolved = []
    monkeypatch.setattr(mns.fidelity, "evolve", lambda *args: evolved.append(args) or evolve(*args))
    # the sweep looks worst_case_fidelity up as a module global, so a wrapper
    # installed there sees the one call that scores every time
    scored = []
    monkeypatch.setattr(
        mns.fidelity,
        "worst_case_fidelity",
        lambda *args: scored.append(args[1]) or worst_case_fidelity(*args),
    )
    config = SearchConfig(num_restarts=1, seed=1, candidate_dims=((2, 2),))
    grid = [0.0, 0.1, 0.5, 1.0, 3.0]
    points = fidelity_sweep(
        lambda _v: _perturbed(0.05), grid, "tf", collective_dfs_encoding(), (2, 2), config
    )
    assert [pt.param for pt in points] == grid
    assert len(builds) == 1
    assert len(eighs) == 1
    assert evolved == []  # the maps come from the spectrum, not from superoperators
    assert scored == [grid]


def test_fidelity_sweep_flags_failed_points():
    config = SearchConfig(num_restarts=1, seed=1, candidate_dims=((2, 2),))

    def model_for(delta):
        if delta > 0.04:
            raise RuntimeError("synthetic failure")
        return _perturbed(delta)

    points = fidelity_sweep(
        model_for, [0.0, 0.05], "delta", collective_dfs_encoding(), (2, 2), config
    )
    assert points[0].converged
    assert not points[1].converged
    assert np.isnan(points[1].fi_mns)


def test_fidelity_sweep_records_why_a_point_failed(caplog):
    config = SearchConfig(num_restarts=1, seed=1, candidate_dims=((2, 2),))

    def model_for(delta):
        raise TypeError(f"no model for {delta}")

    with caplog.at_level("WARNING", logger="mns"):
        points = fidelity_sweep(
            model_for, [0.05], "delta", collective_dfs_encoding(), (2, 2), config
        )
    assert not points[0].converged and np.isnan(points[0].fi_mns)
    assert points[0].error == "TypeError: no model for 0.05"
    assert "TypeError: no model for 0.05" in caplog.text


def test_fidelity_sweep_validation():
    config = SearchConfig(num_restarts=1, candidate_dims=((2, 2),))
    with pytest.raises(ValidationError):
        fidelity_sweep(_perturbed, [0.0], "sideways", np.eye(4, 8), (2, 2), config)
    with pytest.raises(ValidationError):
        fidelity_sweep(_perturbed, [], "delta", np.eye(4, 8), (2, 2), config)
    with pytest.raises(ValidationError, match="encoded rows"):  # a full unitary, not V
        fidelity_sweep(_perturbed, [0.0], "delta", np.eye(8), (2, 2), config)


def test_fidelity_sweep_checks_times_before_searching(monkeypatch):
    # a bad t_f (delta mode) or grid time (tf mode) is refused before any
    # search, as a ValidationError rather than a flagged NaN point
    searches = []
    monkeypatch.setattr(mns.fidelity, "find_mns", lambda *args: searches.append(args))
    config = SearchConfig(num_restarts=1, candidate_dims=((2, 2),))
    v_dfs = collective_dfs_encoding()
    for t_f in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="t_f must be finite and >= 0"):
            fidelity_sweep(_perturbed, [0.0, 0.05], "delta", v_dfs, (2, 2), config, t_f=t_f)
    for times in ([0.0, -0.5], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValidationError, match="t_f must be finite and >= 0"):
            fidelity_sweep(lambda _v: _perturbed(0.05), times, "tf", v_dfs, (2, 2), config)
    assert searches == []
