"""Reference computations and output checkers, written apart from ``mns``.

Nothing here imports the package under test.  Every quantity the benchmark
compares against is rebuilt from the paper's definitions with plain NumPy and
SciPy: the collective and local Pauli operators, first-order Kraus sets, the
phase/angle chart of U(N) (from its documented formula), the objective J,
the total-spin sectors, the Lindblad generator and the worst-case fidelity
over the Bloch sphere.

Each checker returns a list of ``Check`` records; a record whose ``ok`` is
false names the property that failed and the value that broke it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import expm

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: str

    def describe(self) -> str:
        return f"{self.name}: {self.value:.3e} ({self.limit}) {'ok' if self.ok else 'FAILED'}"


# --- operators and channels -------------------------------------------------


def single_qubit(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """``op`` on qubit ``qubit`` (0-based, leftmost tensor factor first)."""
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == qubit else np.eye(2))
    return out


def collective(op: np.ndarray, n: int) -> np.ndarray:
    return sum(single_qubit(op, k, n) for k in range(n))


def first_order_kraus(terms, dt: float) -> list[np.ndarray]:
    """E_0 = I - dt/2 sum g V^dag V, E_i = sqrt(g dt) V for (g, V) in terms."""
    terms = [(g, v) for g, v in terms if g > 0]
    dim = terms[0][1].shape[0]
    e0 = np.eye(dim, dtype=complex) - 0.5 * dt * sum(g * v.conj().T @ v for g, v in terms)
    return [e0] + [np.sqrt(g * dt) * v for g, v in terms]


def model_terms(model: dict) -> list[tuple[float, np.ndarray]]:
    """Lindblad terms (rate, operator) of a config's ``model`` section."""
    n, kind = model["n_qubits"], model["kind"]
    if kind == "collective_xz":
        return [
            (model.get("gamma_x", 1.0), collective(SIGMA_X, n)),
            (model.get("gamma_z", 1.0), collective(SIGMA_Z, n)),
        ]
    if kind == "collective_z_local_dephasing":
        delta = model.get("delta", 0.0)
        terms = [(model.get("gamma_z", 1.0), collective(SIGMA_Z, n))]
        terms += [(delta * r, single_qubit(SIGMA_Z, k, n)) for k, r in enumerate(model["local_rates"])]
        return terms
    if kind == "perturbed_collective_global":
        v = perturbation_unitary(2**n, model.get("delta", 0.0), model.get("perturbation_seed", 0))
        return [
            (model.get("gamma_1", 1.0), v @ collective(SIGMA_X, n) @ v.conj().T),
            (model.get("gamma_2", 1.0), collective(SIGMA_Z, n)),
        ]
    raise ValueError(f"no reference for model kind {kind!r}")


def default_step(terms) -> float:
    """The step with max(rate) * dt = 1e-3."""
    return 1e-3 / max(g for g, _ in terms)


# --- the chart ----------------------------------------------------------------


def chart_unitary(dim: int, phases, angles) -> np.ndarray:
    """U = diag(exp(i phi_d)) G_(0,1) G_(0,2) ... G_(N-2,N-1), where G_(i,j) is
    [[cos t, -e sin t], [conj(e) sin t, cos t]] on the (i, j) plane and
    e = exp(i phi_pair); pairs in lexicographic order."""
    phases = np.asarray(phases, dtype=float)
    angles = np.asarray(angles, dtype=float)
    u = np.diag(np.exp(1j * phases[:dim]))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    for (i, j), t, ph in zip(pairs, angles, phases[dim:]):
        g = np.eye(dim, dtype=complex)
        e = np.exp(1j * ph)
        g[i, i] = g[j, j] = np.cos(t)
        g[i, j] = -e * np.sin(t)
        g[j, i] = np.conj(e) * np.sin(t)
        u = u @ g
    return u


def perturbation_unitary(dim: int, delta: float, seed: int) -> np.ndarray:
    """Chart point with zero phases and an angle vector of norm ``delta`` in a
    direction drawn from ``default_rng(seed)``: the global perturbation."""
    n_angles = dim * (dim - 1) // 2
    angles = np.zeros(n_angles)
    if delta > 0:
        v = np.random.default_rng(seed).standard_normal(n_angles)
        angles = v * (delta / np.linalg.norm(v))
    return chart_unitary(dim, np.zeros(dim * (dim + 1) // 2), angles)


def encoding_unitary(encoding: dict) -> np.ndarray:
    """The unitary of an ``encoding_<n1>x<n2>.json`` or ``mns_params`` record."""
    return chart_unitary(encoding["dim"], encoding["phases"], encoding["angles"])


# --- objective and sectors ----------------------------------------------------


def objective_j(ops, u: np.ndarray, n1: int, n2: int) -> float:
    """J = 1/(n1^2 n2) sum_k || Tr_1 [(U E_k U^dag) on the leading block] ||_F^2."""
    m = n1 * n2
    total = 0.0
    for e in ops:
        block = (u @ e @ u.conj().T)[:m, :m].reshape(n1, n2, n1, n2)
        total += np.sum(np.abs(np.trace(block, axis1=0, axis2=2)) ** 2)
    return float(total / (n1 * n1 * n2))


def block_projector_of(u: np.ndarray, m: int) -> np.ndarray:
    """Projector onto the span of the first ``m`` rows of U (conjugated)."""
    rows = u[:m]
    return rows.conj().T @ rows


def spin_sector_projector(n: int, s: float) -> np.ndarray:
    """Projector onto the total-spin-``s`` sector of n qubits, from the
    eigendecomposition of the collective S^2."""
    s_ops = [0.5 * collective(p, n) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    s2 = sum(a @ a for a in s_ops)
    w, v = np.linalg.eigh(s2)
    sel = v[:, np.abs(w - s * (s + 1)) < 1e-8]
    return sel @ sel.conj().T


def dfs_isometry_3q() -> np.ndarray:
    """4 x 8 isometry onto the spin-1/2 sector of 3 qubits, ordered so that the
    collective spin acts as I_2 (x) sigma: rows (a, m) for multiplicity label
    a (the logical qubit) and S_z label m.  Built from S^2, S_z and S_-."""
    p_half = spin_sector_projector(3, 0.5)
    sz = 0.5 * collective(SIGMA_Z, 3)
    w, v = np.linalg.eigh(p_half @ (sz + 2.0 * np.eye(8)) @ p_half)
    up = v[:, np.abs(w - 2.5) < 1e-8]  # the two m = +1/2 states of the sector
    lower = 0.5 * collective(SIGMA_X - 1j * SIGMA_Y, 3)
    rows = []
    for a in range(2):
        rows.append(up[:, a])
        down = lower @ up[:, a]
        rows.append(down / np.linalg.norm(down))
    return np.array(rows)


def distance(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.linalg.norm(p - q, 2))


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# --- checkers -----------------------------------------------------------------


def check_dfs_encoding(
    ops, u, n1: int, n2: int, sector: np.ndarray, reported_j: float, rng, n_states: int = 6
) -> list[Check]:
    """A claimed decoherence-free encoding of collective noise: J reaches 1,
    the encoded block is the spin sector, and every Kraus operator commutes
    with encoded states rho_1 (x) I/n2."""
    m = n1 * n2
    own_j = objective_j(ops, u, n1, n2)
    sector_distance = distance(block_projector_of(u, m), sector)
    comm = 0.0
    for _ in range(n_states):
        block = np.kron(random_density(n1, rng), np.eye(n2) / n2)
        rho = u[:m].conj().T @ block @ u[:m]
        comm = max(comm, max(float(np.linalg.norm(e @ rho - rho @ e)) for e in ops))
    return [
        Check("j_reaches_one", own_j >= 1 - 1e-6, 1 - own_j, "1 - J <= 1e-6"),
        Check("j_matches_report", abs(own_j - reported_j) <= 1e-10, abs(own_j - reported_j), "<= 1e-10"),
        Check("block_is_spin_sector", sector_distance <= 1e-6, sector_distance, "<= 1e-6"),
        Check("kraus_commute", comm <= 1e-8, comm, "<= 1e-8"),
    ]


def best_basis_subsets(ops, n1: int) -> tuple[float, list[tuple[int, ...]]]:
    """For diagonal Kraus operators: the largest J of any span of n1
    computational basis states, and every subset that attains it."""
    diags = np.array([np.diag(e) for e in ops])
    scored = [
        (float(np.sum(np.abs(diags[:, list(s)].sum(axis=1)) ** 2) / (n1 * n1)), s)
        for s in combinations(range(diags.shape[1]), n1)
    ]
    best = max(j for j, _ in scored)
    return best, [s for j, s in scored if j >= best - 1e-12]


def check_diagonal_optimum(ops, u, n1: int, reported_j: float) -> list[Check]:
    """Subspace (n2 = 1) optimum for diagonal Kraus operators.  J depends only
    on the diagonal of the code projector and is convex in it, so the optimum
    is spanned by the best n1 basis states."""
    if any(np.count_nonzero(e - np.diag(np.diag(e))) for e in ops):
        raise ValueError("the subset bound needs diagonal Kraus operators")
    best, subsets = best_basis_subsets(ops, n1)
    own_j = objective_j(ops, u, n1, 1)
    p = block_projector_of(u, n1)
    dim = u.shape[0]
    dist = min(distance(p, np.diag([1.0 if i in s else 0.0 for i in range(dim)])) for s in subsets)
    return [
        Check("j_not_below_optimum", own_j >= best - 1e-9, best - own_j, "J* - J <= 1e-9"),
        Check("j_not_above_optimum", own_j <= best + 1e-12, own_j - best, "J - J* <= 1e-12"),
        Check("j_matches_report", abs(own_j - reported_j) <= 1e-10, abs(own_j - reported_j), "<= 1e-10"),
        Check("subspace_resolution", dist <= 1e-6, dist, "<= 1e-6"),
    ]


# --- worst-case fidelity ------------------------------------------------------


def liouvillian(terms) -> np.ndarray:
    """Generator on column-stacked density matrices, vec(A X B) = (B^T (x) A) vec(X)."""
    dim = terms[0][1].shape[0]
    eye = np.eye(dim)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for g, v in terms:
        vv = v.conj().T @ v
        out += g * (np.kron(v.conj(), v) - 0.5 * np.kron(eye, vv) - 0.5 * np.kron(vv.T, eye))
    return out


def _apply(superop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    dim = rho.shape[0]
    return (superop @ rho.reshape(-1, order="F")).reshape(dim, dim, order="F")


def _sphere(theta, phi) -> np.ndarray:
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)


def worst_case_fidelity(superop: np.ndarray, iso: np.ndarray, n2: int) -> float:
    """min over pure logical qubit states psi of <psi| Tr_2[V S(V^dag (psi psi^dag (x) I/n2) V) V^dag] |psi>.

    With rho = (I + r.sigma)/2 the fidelity is a + b.r + r^T C r; it is
    minimized over a dense (theta, phi) grid of the unit sphere, and the grid
    is zoomed around its best point until the step is below 1e-9 rad.
    """
    paulis = (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)

    def logical(p: np.ndarray) -> np.ndarray:
        out = iso @ _apply(superop, iso.conj().T @ np.kron(p / 2, np.eye(n2) / n2) @ iso) @ iso.conj().T
        return np.trace(out.reshape(2, n2, 2, n2), axis1=1, axis2=3)

    outs = [logical(p) for p in paulis]
    a = 0.5 * np.trace(outs[0]).real
    b = np.array([0.5 * (np.trace(paulis[i] @ outs[0]) + np.trace(outs[i])).real for i in (1, 2, 3)])
    c = np.array([[0.5 * np.trace(paulis[i] @ outs[j]).real for j in (1, 2, 3)] for i in (1, 2, 3)])

    def f(r: np.ndarray) -> np.ndarray:
        return a + r @ b + np.einsum("...i,ij,...j->...", r, c, r)

    theta, phi = np.meshgrid(np.linspace(0, np.pi, 181), np.linspace(0, 2 * np.pi, 360, endpoint=False), indexing="ij")
    vals = f(_sphere(theta, phi))
    k = np.unravel_index(np.argmin(vals), vals.shape)
    t0, p0, best = theta[k], phi[k], float(vals[k])
    step = np.pi / 180
    while step > 1e-9:
        offs = np.linspace(-2 * step, 2 * step, 21)
        tt, pp = np.meshgrid(t0 + offs, p0 + offs, indexing="ij")
        vals = f(_sphere(tt, pp))
        k = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[k] < best:
            t0, p0, best = tt[k], pp[k], float(vals[k])
        step /= 5
    return best


def check_sweep(
    times, fi_mns, fi_dfs, reference: dict[int, tuple[float, float]]
) -> list[Check]:
    """A time-mode sweep of a symmetry-breaking collective perturbation.

    ``reference`` maps grid indices to this module's (fi_mns, fi_dfs) at that
    time; the program must agree within 1e-6 and never sit above the
    reference minimum by more than 1e-9 (the grid minimum is an upper bound),
    and the reference itself must rank the searched encoding first.
    """
    fi_mns, fi_dfs = np.asarray(fi_mns), np.asarray(fi_dfs)
    i0 = int(np.argmin(times))
    start = max(abs(fi_mns[i0] - 1), abs(fi_dfs[i0] - 1))
    order = float(np.max(fi_dfs - fi_mns))
    gap = float(fi_mns[-1] - fi_dfs[-1])
    pairs = [(p, r) for i, rs in reference.items() for p, r in zip((fi_mns[i], fi_dfs[i]), rs)]
    ref_diff = max(abs(p - r) for p, r in pairs)
    ref_above = max(p - r for p, r in pairs)
    ref_order = max(r_dfs - r_mns for r_mns, r_dfs in reference.values())
    return [
        Check("exact_at_t0", times[i0] == 0 and start <= 1e-9, start, "|F - 1| <= 1e-9 at t = 0"),
        Check("mns_not_worse", order <= 1e-9, order, "fi_dfs - fi_mns <= 1e-9"),
        Check("mns_better_at_end", gap > 1e-4, gap, "fi_mns - fi_dfs > 1e-4"),
        Check("matches_reference", ref_diff <= 1e-6, ref_diff, "<= 1e-6"),
        Check("not_above_reference", ref_above <= 1e-9, ref_above, "<= 1e-9"),
        Check("reference_mns_not_worse", ref_order <= 1e-9, ref_order, "reference fi_dfs - fi_mns <= 1e-9"),
    ]


def reference_fidelities(terms, t: float, isometries, n2: int) -> tuple[float, ...]:
    superop = expm(liouvillian(terms) * t)
    return tuple(worst_case_fidelity(superop, iso, n2) for iso in isometries)
