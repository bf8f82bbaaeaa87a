"""Tests of the benchmark's reference computations and checkers: each checker
accepts a known-good input and rejects a perturbed one.

    python3 -m pytest -q bench/test_reference.py
"""

import numpy as np
import pytest
from scipy.linalg import expm

import reference as ref

COLLECTIVE_3 = {"kind": "collective_xz", "n_qubits": 3}
LOCAL_3 = {
    "kind": "collective_z_local_dephasing",
    "n_qubits": 3,
    "gamma_z": 1.0,
    "delta": 0.1,
    "local_rates": [0.33, 0.47, 0.85],
}


def kraus(model):
    terms = ref.model_terms(model)
    return ref.first_order_kraus(terms, ref.default_step(terms))


def complete(rows: np.ndarray) -> np.ndarray:
    """A unitary whose leading rows are ``rows``."""
    dim = rows.shape[1]
    rest = np.linalg.svd(np.eye(dim) - rows.conj().T @ rows)[0][:, : dim - rows.shape[0]]
    return np.vstack([rows, rest.conj().T])


def small_rotation(dim: int, eps: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return expm(1j * eps * (h + h.conj().T) / 2)


def failed(checks):
    return {c.name for c in checks if not c.ok}


def test_chart_matches_two_by_two_closed_form():
    a, b, c, t = 0.3, -1.1, 0.7, 0.4
    u = ref.chart_unitary(2, [a, b, c], [t])
    e = np.exp(1j * c)
    expected = np.diag(np.exp(1j * np.array([a, b]))) @ np.array(
        [[np.cos(t), -e * np.sin(t)], [np.conj(e) * np.sin(t), np.cos(t)]]
    )
    assert np.allclose(u, expected, atol=1e-15)
    assert np.array_equal(ref.perturbation_unitary(8, 0.0, 9), np.eye(8))


def test_dfs_isometry_carries_collective_spin_on_gauge_factor():
    iso = ref.dfs_isometry_3q()
    assert np.allclose(iso @ iso.conj().T, np.eye(4), atol=1e-12)
    for sigma in (ref.SIGMA_X, ref.SIGMA_Y, ref.SIGMA_Z):
        assert np.allclose(iso @ ref.collective(sigma, 3) @ iso.conj().T, np.kron(np.eye(2), sigma), atol=1e-12)


@pytest.mark.parametrize("n_qubits, n1, n2, s", [(3, 2, 2, 0.5), (4, 2, 1, 0.0)])
def test_check_dfs_encoding(n_qubits, n1, n2, s):
    ops = kraus({"kind": "collective_xz", "n_qubits": n_qubits})
    sector = ref.spin_sector_projector(n_qubits, s)
    if n_qubits == 3:
        u = complete(ref.dfs_isometry_3q())
    else:
        w, v = np.linalg.eigh(sector)
        u = complete(v[:, w > 0.5].conj().T)
    good = ref.check_dfs_encoding(ops, u, n1, n2, sector, ref.objective_j(ops, u, n1, n2), np.random.default_rng(1))
    assert failed(good) == set()

    tilted = u @ small_rotation(2**n_qubits, 1e-3)
    bad = ref.check_dfs_encoding(ops, tilted, n1, n2, sector, ref.objective_j(ops, u, n1, n2), np.random.default_rng(1))
    assert {"block_is_spin_sector", "kraus_commute", "j_matches_report"} <= failed(bad)


def test_check_diagonal_optimum():
    ops = kraus(LOCAL_3)
    best, subsets = ref.best_basis_subsets(ops, 2)
    assert subsets == [(2, 4), (3, 5)]  # the two double-excitation pairs and their mirror images
    rows = np.eye(8)[list(subsets[1])].astype(complex)
    u = complete(rows)
    good = ref.check_diagonal_optimum(ops, u, 2, best)
    assert failed(good) == set()

    tilted = u @ small_rotation(8, 1e-4)
    bad = ref.check_diagonal_optimum(ops, tilted, 2, ref.objective_j(ops, tilted, 2, 1))
    assert "subspace_resolution" in failed(bad)

    worse = complete(np.eye(8)[[0, 7]].astype(complex))
    assert "j_not_below_optimum" in failed(ref.check_diagonal_optimum(ops, worse, 2, ref.objective_j(ops, worse, 2, 1)))

    with pytest.raises(ValueError):
        ref.check_diagonal_optimum(kraus(COLLECTIVE_3), u, 2, best)


def test_worst_case_fidelity_single_qubit_dephasing_closed_form():
    gamma, t = 0.7, 0.9
    superop = expm(ref.liouvillian([(gamma, ref.SIGMA_Z)]) * t)
    f = ref.worst_case_fidelity(superop, np.eye(2, dtype=complex), 1)
    assert abs(f - 0.5 * (1 + np.exp(-2 * gamma * t))) <= 1e-12


def test_worst_case_fidelity_of_exact_subsystem_is_one():
    model = {"kind": "perturbed_collective_global", "n_qubits": 3, "delta": 0.0, "perturbation_seed": 9}
    (f_dfs,) = ref.reference_fidelities(ref.model_terms(model), 1.0, [ref.dfs_isometry_3q()], 2)
    assert abs(f_dfs - 1.0) <= 1e-12
    model["delta"] = 0.1
    (f_dfs,) = ref.reference_fidelities(ref.model_terms(model), 1.0, [ref.dfs_isometry_3q()], 2)
    assert f_dfs < 1.0 - 1e-3


def test_check_sweep():
    times = np.array([0.0, 0.5, 1.0])
    fi_mns = np.array([1.0, 0.99, 0.98])
    fi_dfs = np.array([1.0, 0.985, 0.97])
    reference = {1: (0.99, 0.985), 2: (0.98, 0.97)}
    assert failed(ref.check_sweep(times, fi_mns, fi_dfs, reference)) == set()

    off = fi_mns.copy()
    off[2] += 1e-5
    assert failed(ref.check_sweep(times, off, fi_dfs, reference)) == {"matches_reference", "not_above_reference"}
    assert {"mns_not_worse", "mns_better_at_end"} <= failed(ref.check_sweep(times, fi_dfs, fi_mns, reference))
    assert "exact_at_t0" in failed(ref.check_sweep(times, fi_mns - 1e-6, fi_dfs, reference))
    swapped = {i: (d, m) for i, (m, d) in reference.items()}
    assert "reference_mns_not_worse" in failed(ref.check_sweep(times, fi_mns, fi_dfs, swapped))
