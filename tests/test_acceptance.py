"""End-to-end acceptance suite.

Seven checks cover the full pipeline at its contract tolerances: exact
recovery of the protected subsystem for collective noise, containment of
searched subspaces in the known excitation sectors, fidelity ordering under
symmetry-breaking perturbations, stability of the search under weak local
dephasing, agreement of the objective with its reduced-channel oracle,
numerical hygiene of the building blocks, and byte-stable sweep output.
Each test records one PASS/FAIL line with the measured values; the lines are
echoed in the terminal summary.
"""

import time
from pathlib import Path

import numpy as np

from conftest import ACCEPTANCE_LINES, P_ONE_EXCITED, P_TWO_EXCITED, TIGHT
from mns.experiments import cmd_fidelity_sweep, cmd_find_mns, cmd_verify_dfs, load_config
from mns.fidelity import evolve
from mns.noise import (
    KrausChannel,
    LindbladModel,
    collective_xz,
    collective_z_with_local_dephasing,
    default_dt,
    lindblad_to_kraus,
)
from mns.objective import objective_of_unitary
from mns.parametrization import random_params, realize
from mns.search import SearchConfig, find_mns
from oracles import (
    candidate,
    choi_matrix,
    containment_defect,
    dense_worst_case,
    evolved_apply,
    gradient,
    haar_random_unitary,
    projector_distance,
    random_density_matrix,
    reduced_channel_of_unitary,
    subspace_projector,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _record(num, name, passed, detail):
    line = f"[{num}] {name}: {'PASS' if passed else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def test_acceptance_1_collective_noise_exact_recovery(tmp_path):
    """20-restart search on the 3-qubit collective x+z model recovers an
    exactly protected encoding, verified by the protection check."""
    started = time.monotonic()
    config = load_config(CONFIG_DIR / "collective_xz_n3.json")
    payload = cmd_find_mns(config, tmp_path)
    report = cmd_verify_dfs(config, tmp_path / "encoding_2x2.json")
    elapsed = time.monotonic() - started
    (entry,) = payload["results"]

    checks = {
        "j_opt": entry["j_opt"] >= 1.0 - 1e-6,
        "verify": report["passed"] and report["max_defect"] <= 1e-8,
        "agreement": entry["agreement_fraction"] >= 0.8,
        "runtime": elapsed <= 300.0,
    }
    line = _record(
        1,
        "collective-noise exact recovery",
        all(checks.values()),
        f"J_opt={entry['j_opt']:.9f} (>=1-1e-6), defect={report['max_defect']:.2e} (<=1e-8), "
        f"restart agreement={entry['agreement_fraction']:.2f} (>=0.80), runtime={elapsed:.0f}s (<=300s)",
    )
    assert all(checks.values()), line


def test_acceptance_2_known_excitation_sector_containment():
    """Search on the collective-z + weak-local-dephasing model lands in the
    double-excitation sector (qubit case) and on an excitation sector
    (qutrit case), both within projector tolerance 1e-4."""
    config = load_config(CONFIG_DIR / "sz_local_dephasing_n3.json")
    model = collective_z_with_local_dephasing(
        config.model.n_qubits, config.model.gamma_z, config.model.delta, config.model.local_rates
    )
    channel = lindblad_to_kraus(model, default_dt(model))
    results = find_mns(channel, config.search)

    p_qubit = subspace_projector(results[(2, 1)])
    qubit_defect = containment_defect(p_qubit, P_TWO_EXCITED)
    p_qutrit = subspace_projector(results[(3, 1)])
    qutrit_distance = min(
        projector_distance(p_qutrit, P_ONE_EXCITED),
        projector_distance(p_qutrit, P_TWO_EXCITED),
    )

    checks = {"qubit": qubit_defect <= 1e-4, "qutrit": qutrit_distance <= 1e-4}
    line = _record(
        2,
        "known-subspace containment",
        all(checks.values()),
        f"2-dim containment defect={qubit_defect:.2e} (<=1e-4), "
        f"3-dim sector distance={qutrit_distance:.2e} (<=1e-4)",
    )
    assert all(checks.values()), line


def test_acceptance_3_perturbed_collective_fidelity_ordering(tmp_path):
    """Across the bundled 11-point perturbation sweep the searched encoding
    is never worse than the reference, strictly better at the endpoint, and
    both are exact at zero perturbation."""
    config = load_config(CONFIG_DIR / "perturbed_global_delta_sweep.json")
    payload = cmd_fidelity_sweep(config, tmp_path)
    points = payload["points"]
    assert len(points) == 11

    ordering = all(pt["fi_mns"] >= pt["fi_dfs"] - 1e-9 for pt in points)
    end = points[-1]
    end_gap = end["fi_mns"] - end["fi_dfs"]
    zero = points[0]
    plateau = points[1]
    checks = {
        "ordering": ordering,
        "endpoint_gap": end_gap > 1e-4,
        "zero_point": abs(zero["fi_mns"] - 1.0) <= 1e-6 and abs(zero["fi_dfs"] - 1.0) <= 1e-6,
        "plateau": plateau["fi_dfs"] >= 1.0 - 1e-3 and plateau["fi_mns"] >= 1.0 - 1e-3,
        "converged": all(pt["converged"] for pt in points),
    }
    line = _record(
        3,
        "perturbed-collective fidelity ordering",
        all(checks.values()),
        f"fi_mns>=fi_dfs-1e-9 at 11/11 points={ordering}, gap(0.1)={end_gap:.2e} (>1e-4), "
        f"fi(0)={zero['fi_mns']:.9f}/{zero['fi_dfs']:.9f} (1±1e-6), "
        f"plateau fi(0.01)>={min(plateau['fi_mns'], plateau['fi_dfs']):.6f} (>=0.999)",
    )
    assert all(checks.values()), line


def test_acceptance_4_weak_local_dephasing_stability():
    """With weak local dephasing (scale 0.05) the optimal 2-dim encoding
    stays inside the double-excitation sector and beats 100 random
    encodings."""
    model = collective_z_with_local_dephasing(3, 1.0, 0.05, (0.33, 0.47, 0.85))
    channel = lindblad_to_kraus(model, default_dt(model))
    sc = SearchConfig(num_restarts=20, seed=1, candidate_dims=((2, 1),), **TIGHT)
    result = find_mns(channel, sc)[(2, 1)]
    defect = containment_defect(subspace_projector(result), P_TWO_EXCITED)

    rng = np.random.default_rng(123)
    best_random = max(
        objective_of_unitary(channel, haar_random_unitary(8, rng)[:2], 2, 1) for _ in range(100)
    )

    checks = {
        "containment": defect <= 1e-4,
        "beats_random": result.best_j > best_random,
    }
    line = _record(
        4,
        "weak-local-dephasing stability",
        all(checks.values()),
        f"containment defect={defect:.2e} (<=1e-4), "
        f"J_opt={result.best_j:.9f} > max of 100 random={best_random:.9f} "
        f"(margin {result.best_j - best_random:.2e})",
    )
    assert all(checks.values()), line


def test_acceptance_5_objective_matches_reduced_channel_weight():
    """On 50 random exact channels and random 8-dim encodings the
    sum-of-squares objective equals the identity weight of the reduced
    channel to 1e-10."""
    rng = np.random.default_rng(42)
    dims_cycle = [(2, 1), (2, 2), (3, 1), (2, 3), (4, 1), (2, 4), (3, 2), (4, 2)]
    worst = 0.0
    for trial in range(50):
        k = int(rng.integers(2, 5))
        g = rng.standard_normal((8 * k, 8)) + 1j * rng.standard_normal((8 * k, 8))
        q, _ = np.linalg.qr(g)
        ops = tuple(q[8 * i : 8 * (i + 1), :] for i in range(k))
        ch = KrausChannel(8, ops)
        n1, n2 = dims_cycle[trial % 8]
        u = realize(
            random_params(
                8,
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.0, 2.0)),
                seed=int(rng.integers(1 << 30)),
            )
        )
        j = objective_of_unitary(ch, u[: n1 * n2], n1, n2)
        p1 = reduced_channel_of_unitary(ch, u, n1, n2).p1
        worst = max(worst, abs(j - p1))

    passed = worst <= 1e-10
    line = _record(
        5,
        "objective equals reduced-channel identity weight",
        passed,
        f"max |objective - p1| over 50 pairs = {worst:.2e} (<=1e-10)",
    )
    assert passed, line


def test_acceptance_6_numerical_hygiene():
    """Unitarity of realized matrices, second-order completeness defect,
    finite-difference gradient self-consistency, CPTP evolution, and the
    single-qubit dephasing closed form."""
    rng = np.random.default_rng(7)

    unit_worst = 0.0
    for dim in (2, 4, 8):
        for _ in range(100):
            params = random_params(
                dim,
                float(rng.uniform(0.0, np.pi)),
                float(rng.uniform(0.0, np.pi)),
                seed=int(rng.integers(1 << 30)),
            )
            u = realize(params)
            unit_worst = max(unit_worst, float(np.linalg.norm(u.conj().T @ u - np.eye(dim))))

    model = collective_xz(3, 1.0, 1.0)
    ratio = (
        lindblad_to_kraus(model, 1e-3).completeness_defect()
        / lindblad_to_kraus(model, 5e-4).completeness_defect()
    )

    channel = lindblad_to_kraus(model, 1e-3)
    cand = candidate(2, 2, random_params(8, 1.7, 0.9, seed=21))
    g5 = gradient(channel, cand, h=1e-5)
    g6 = gradient(channel, cand, h=1e-6)
    grad_rel = float(np.linalg.norm(g5 - g6) / np.linalg.norm(g6))

    mixed = LindbladModel(
        2,
        (
            (0.6, np.kron(PAULI_Z, np.eye(2))),
            (0.4, haar_random_unitary(4, 11) @ np.diag([1.0, -1.0, 1.0, -1.0]) @ haar_random_unitary(4, 11).conj().T),
        ),
    )
    ev = evolve(mixed, 0.8)
    trace_worst = 0.0
    for _ in range(20):
        rho = evolved_apply(ev, random_density_matrix(4, rng))
        trace_worst = max(trace_worst, abs(float(np.trace(rho).real) - 1.0))
    choi_floor = float(np.linalg.eigvalsh(choi_matrix(ev)).min())

    dephasing_worst = 0.0
    for gamma, t in ((1.0, 0.2), (1.0, 0.7), (0.6, 1.3)):
        ev1 = evolve(LindbladModel(1, ((gamma, PAULI_Z),)), t)
        fi = dense_worst_case(np.eye(2), (2, 1), ev1)
        dephasing_worst = max(dephasing_worst, abs(fi - 0.5 * (1 + np.exp(-2 * gamma * t))))

    checks = {
        "unitarity": unit_worst <= 1e-12,
        "defect_ratio": 3.5 <= ratio <= 4.5,
        "gradient": grad_rel <= 1e-4,
        "cptp": trace_worst <= 1e-10 and choi_floor >= -1e-9,
        "dephasing": dephasing_worst <= 1e-6,
    }
    line = _record(
        6,
        "numerical hygiene",
        all(checks.values()),
        f"unitarity={unit_worst:.2e} (<=1e-12), defect ratio={ratio:.2f} (in [3.5,4.5]), "
        f"grad FD consistency={grad_rel:.2e} (<=1e-4), trace drift={trace_worst:.2e} (<=1e-10), "
        f"Choi floor={choi_floor:.2e} (>=-1e-9), dephasing closed form={dephasing_worst:.2e} (<=1e-6)",
    )
    assert all(checks.values()), line


def test_acceptance_7_byte_identical_sweep_output(tmp_path):
    """Two runs of the same sweep config + seed produce identical CSV bytes."""
    config = load_config(CONFIG_DIR / "determinism_small.json")
    cmd_fidelity_sweep(config, tmp_path / "a")
    cmd_fidelity_sweep(config, tmp_path / "b")
    csv_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    csv_b = (tmp_path / "b" / "sweep.csv").read_bytes()

    passed = csv_a == csv_b and len(csv_a) > 0
    line = _record(
        7,
        "byte-identical sweep output",
        passed,
        f"two runs of the bundled determinism config agree on {len(csv_a)} CSV bytes "
        f"({len(csv_a.splitlines())} lines incl. header)",
    )
    assert passed, line
