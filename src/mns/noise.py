"""Noise models and channels for collective-dephasing style qubit systems.

A model is a set of Lindblad dissipator terms (rate, operator) acting on
n qubits; ``lindblad_to_kraus`` turns it into the first-order Kraus channel

    E_0 = I - (1/2) sum_i Vt_i^dag Vt_i dt,     E_i = sqrt(dt) Vt_i,

with the rates folded into the operators as Vt_i = sqrt(gamma_i) V_i.  The
set is complete up to O(dt^2) and is deliberately not renormalized; the
completeness defect scales as c*dt^2 with a model-dependent constant
c = ||(sum_i gamma_i V_i^dag V_i)^2||_F / 4.  A channel is its operators,
one read-only (K, N, N) array, and keeps the gap I - sum_k E_k^dag E_k,
which the objective's sum-of-squares form needs.

The exact dynamics is generated by the Liouvillian.  With row-major
vectorization (vec(rho) = rho.reshape(-1), so vec(A rho B) =
(A (x) B^T) vec(rho)) d vec(rho)/dt = L vec(rho) with

    L = sum_i gamma_i ( V_i (x) conj(V_i)
                        - 1/2 (V_i^dag V_i) (x) I
                        - 1/2 I (x) (V_i^dag V_i)^T )

(``liouvillian``).  For a Hermitian V_i, conj(V_i) = V_i^T and each term
is a Hermitian matrix, so L is Hermitian whenever every V_i is, as in every
model built here.  Each model keeps one eigendecomposition of L
(``LindbladModel.spectrum``).

``residuals`` r_k = E_k V^dag - V^dag (I (x) M_k) measure how far each E_k is
from acting as I (x) M_k on the block encoded by rows V; the objective and
``dfs_check``, the one test of protection and the search's ``is_dfs``, share
them (Knill, Laflamme and Viola, PRL 84, 2525, 2000).

Qubit ordering: qubit 1 is the leftmost tensor factor, and |0> is the +1
eigenvector of Z, so the collective S_z on three qubits is
diag(3, 1, 1, -1, 1, -1, -1, -3) in the computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import as_isometry, as_matrix, dagger, tensor
from .parametrization import realize, random_params

__all__ = [
    "PAULI_X",
    "PAULI_Z",
    "qubit_operator",
    "collective_operator",
    "LindbladModel",
    "liouvillian",
    "KrausChannel",
    "collective_xz",
    "collective_z_with_local_dephasing",
    "perturbed_collective",
    "random_perturbation_unitary",
    "lindblad_to_kraus",
    "default_dt",
    "residuals",
    "DFS_THRESHOLD",
    "dfs_check",
    "collective_dfs_encoding",
]

# the largest defect ``dfs_check`` certifies as decoherence-free
DFS_THRESHOLD = 1e-8

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def qubit_operator(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator on ``qubit`` (1-based, leftmost first)."""
    if not 1 <= qubit <= n_qubits:
        raise ValidationError(f"qubit index {qubit} outside 1..{n_qubits}")
    return tensor(tensor(np.eye(2 ** (qubit - 1)), op), np.eye(2 ** (n_qubits - qubit)))


def collective_operator(op: np.ndarray, n_qubits: int) -> np.ndarray:
    """Sum of the single-qubit operator over all qubits (e.g. S_z, S_x)."""
    return sum(qubit_operator(op, k, n_qubits) for k in range(1, n_qubits + 1))


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Dissipative model d(rho)/dt = sum_i gamma_i D[V_i] rho on n qubits.

    The eigendecomposition of its Liouvillian (``spectrum``) is built once,
    on first use, so every evolution time of one model shares it.
    """

    n_qubits: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        dim = self.dim
        checked = []
        for rate, op in self.terms:
            rate = float(rate)
            if not np.isfinite(rate) or rate < 0:
                raise ValidationError(f"dissipator rates must be >= 0, got {rate}")
            op = as_matrix(op, "Lindblad operator")
            if op.shape != (dim, dim):
                raise ValidationError(
                    f"Lindblad operator shape {op.shape} does not match dim {dim}"
                )
            checked.append((rate, op))
        object.__setattr__(self, "terms", tuple(checked))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def max_rate(self) -> float:
        return max((r for r, _ in self.terms), default=0.0)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, Q) as read-only arrays with liouvillian(self) =
        Q diag(lam) Q^dag.  Raises ValidationError when the Liouvillian is
        not Hermitian to rounding (relative Frobenius norm 1e-14), as for
        amplitude damping."""
        ll = liouvillian(self)
        if np.linalg.norm(ll - dagger(ll)) > 1e-14 * np.linalg.norm(ll):
            raise ValidationError(
                "the Liouvillian is not Hermitian; exact evolution needs "
                "Hermitian Lindblad operators"
            )
        lam, q = np.linalg.eigh(ll)
        return _read_only(lam), _read_only(q)


def liouvillian(model: LindbladModel) -> np.ndarray:
    """The generator L of d vec(rho)/dt = L vec(rho) (module docstring)."""
    dim = model.dim
    eye = np.eye(dim, dtype=np.complex128)
    ll = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for rate, op in model.terms:
        if rate == 0.0:
            continue
        vv = dagger(op) @ op
        ll += rate * (tensor(op, op.conj()) - 0.5 * tensor(vv, eye) - 0.5 * tensor(eye, vv.T))
    return ll


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel given by a finite set of Kraus operators.

    ``operators``, any sequence of N x N matrices, each checked, is kept as one
    read-only (K, N, N) array; I - sum_k E_k^dag E_k (``completeness_gap``) is
    built once, on first use.  ``dt`` records the conversion step for channels
    built from a Lindblad model and is None for exact (defect <= 1e-12) ones.
    Channels, like models, compare and hash by identity.
    """

    dim: int
    operators: np.ndarray
    dt: float | None = None

    def __post_init__(self):
        if len(self.operators) == 0:
            raise ValidationError("a channel needs at least one Kraus operator")
        ops = []
        for op in self.operators:
            op = as_matrix(op, "Kraus operator")
            if op.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"Kraus operator shape {op.shape} does not match dim {self.dim}"
                )
            ops.append(op)
        object.__setattr__(self, "operators", _read_only(np.stack(ops)))
        if self.dt is not None and not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.dt is None and self.completeness_defect() > 1e-12:
            raise ValidationError(
                "Kraus set is not complete to 1e-12; pass dt for first-order sets"
            )

    def completeness_defect(self) -> float:
        """Frobenius norm of sum_k E_k^dag E_k - I."""
        return float(np.linalg.norm(self.completeness_gap))

    @cached_property
    def completeness_gap(self) -> np.ndarray:
        """I - sum_k E_k^dag E_k as one read-only N x N array: zero for an
        exact channel, O(dt^2) for a first-order one."""
        column = self.operators.reshape(-1, self.dim)  # [E_0; E_1; ..]
        return _read_only(np.eye(self.dim) - column.conj().T @ column)


def collective_xz(n_qubits: int, gamma_x: float = 1.0, gamma_z: float = 1.0) -> LindbladModel:
    """Collective noise gamma_x D[S_x] + gamma_z D[S_z]."""
    return LindbladModel(
        n_qubits,
        (
            (gamma_x, collective_operator(PAULI_X, n_qubits)),
            (gamma_z, collective_operator(PAULI_Z, n_qubits)),
        ),
    )


def collective_z_with_local_dephasing(
    n_qubits: int,
    gamma_z: float,
    delta: float,
    local_rates,
) -> LindbladModel:
    """Collective dephasing plus weak local dephasing.

    gamma_z D[S_z] + delta * sum_k gamma_k D[Z_k]; ``local_rates`` gives one
    gamma_k per qubit.
    """
    local_rates = [float(r) for r in np.atleast_1d(local_rates)]
    if len(local_rates) != n_qubits:
        raise ValidationError(
            f"need {n_qubits} local rates, got {len(local_rates)}"
        )
    if delta < 0:
        raise ValidationError(f"delta must be >= 0, got {delta}")
    terms = [(gamma_z, collective_operator(PAULI_Z, n_qubits))]
    for k, rate in enumerate(local_rates, start=1):
        terms.append((delta * rate, qubit_operator(PAULI_Z, k, n_qubits)))
    return LindbladModel(n_qubits, tuple(terms))


def perturbed_collective(
    n_qubits: int,
    gamma_1: float,
    gamma_2: float,
    v_eps: np.ndarray,
) -> LindbladModel:
    """Collective noise with the S_x arm conjugated by a perturbation unitary.

    gamma_1 D[V S_x V^dag] + gamma_2 D[S_z].  ``v_eps`` must be unitary to
    1e-10.  It deforms a collective operator (the paper's symmetry-breaking
    collective noise) and adds no noise on single qubits.
    """
    dim = 2**n_qubits
    v = as_matrix(v_eps, "perturbation unitary")
    if v.shape != (dim, dim):
        raise ValidationError(f"perturbation unitary shape {v.shape}, expected {(dim, dim)}")
    if np.linalg.norm(dagger(v) @ v - np.eye(dim)) > 1e-10:
        raise ValidationError("perturbation matrix is not unitary to 1e-10")
    sx = collective_operator(PAULI_X, n_qubits)
    sz = collective_operator(PAULI_Z, n_qubits)
    return LindbladModel(n_qubits, ((gamma_1, v @ sx @ dagger(v)), (gamma_2, sz)))


def random_perturbation_unitary(dim: int, delta: float, mode: str = "global", seed=None) -> np.ndarray:
    """Random perturbation unitary with angle-vector norm ``delta`` and zero phases.

    mode "global": one chart point on U(dim) with ||angles|| = delta.
    mode "local-tensor": u_1 (x) ... (x) u_n (dim a power of two), so that
    V S_x V^dag = sum_k u_k sigma_x^(k) u_k^dag, each u_k a 2x2 chart point
    whose one angle is +delta or -delta: only 2**n draws exist, and seed 0 on
    3 qubits draws +delta on each, a collective rotation the DFS absorbs.
    delta=0 returns the identity exactly in both modes.
    """
    if delta < 0:
        raise ValidationError(f"delta must be >= 0, got {delta}")
    if mode == "global":
        return realize(random_params(dim, angle_norm=delta, phase_norm=0.0, seed=seed))
    if mode == "local-tensor":
        n_qubits = int(round(np.log2(dim)))
        if 2**n_qubits != dim:
            raise ValidationError(f"local-tensor mode needs a power-of-two dim, got {dim}")
        seq = np.random.SeedSequence(seed)
        out = np.array([[1.0 + 0.0j]])
        for child in seq.spawn(n_qubits):
            rng = np.random.default_rng(child)
            out = tensor(out, realize(random_params(2, angle_norm=delta, phase_norm=0.0, seed=rng)))
        return out
    raise ValidationError(f"unknown perturbation mode {mode!r}")


def lindblad_to_kraus(model: LindbladModel, dt: float | None = None) -> KrausChannel:
    """First-order Kraus set of one time step dt (None: ``default_dt``).

    Zero-rate terms are dropped; they contribute nothing to the channel map.
    """
    dt = default_dt(model) if dt is None else dt
    if not dt > 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    dim = model.dim
    scaled = [np.sqrt(rate) * op for rate, op in model.terms if rate > 0]
    e0 = np.eye(dim, dtype=np.complex128)
    for v in scaled:
        e0 -= 0.5 * dt * (dagger(v) @ v)
    ops = [e0] + [np.sqrt(dt) * v for v in scaled]
    return KrausChannel(dim=dim, operators=tuple(ops), dt=dt)


def default_dt(model: LindbladModel) -> float:
    """Step size with max(rate) * dt = 1e-3; 1e-3 for a model with no rate."""
    top = model.max_rate()
    return 1e-3 / top if top > 0 else 1e-3


def residuals(
    operators: np.ndarray, v: np.ndarray, n1: int, n2: int
) -> tuple[np.ndarray, np.ndarray]:
    """r_k = E_k V^dag - V^dag (I (x) M_k) and M_k = Tr_H1(V E_k V^dag)/n1, the
    least-squares M, for a (K, N, N) array of E_k at each orthonormal block V
    of a (lanes, m, N) stack: r[lane, k, n*n1 + i, a] with (i, a) the
    H1 (x) H2 index of column i*n2 + a, and mk[lane, k] of shape (n2, n2).
    """
    dim, lanes, k = v.shape[-1], len(v), len(operators)
    vd = v.conj().swapaxes(1, 2)
    ev = (operators.reshape(k * dim, dim) @ vd).reshape(lanes, k, dim * n1, n2)
    # M_k = sum_i V_i E_k V_i^dag / n1 with V_i the rows of H1 index i: one
    # product contracting (i, n)
    rows = v.reshape(lanes, 1, n1, n2, dim).transpose(0, 1, 3, 2, 4).reshape(lanes, 1, n2, n1 * dim)
    cols = ev.reshape(lanes, k, dim, n1, n2).transpose(0, 1, 3, 2, 4).reshape(lanes, k, n1 * dim, n2)
    mk = (rows @ cols) / n1
    return ev - vd.reshape(lanes, 1, dim * n1, n2) @ mk, mk


def dfs_check(
    channel: KrausChannel,
    v: np.ndarray,
    n1: int,
    n2: int,
    threshold: float = DFS_THRESHOLD,
) -> tuple[bool, float, list[float]]:
    """Test the decoherence-free condition at encoded rows V (``as_isometry``).

    This decides ``find_mns``'s ``is_dfs``: every E_k must act as I (x) M_k
    on the encoded block and couple it to the rest in neither direction, so
    r_k = 0 (``residuals``, which the search drives toward) and r~_k = 0, the
    residual of E_k^dag.  As [E_k, V^dag (X (x) I) V] =
    r_k (X (x) I) V - V^dag (X (x) I) r~_k^dag for every logical X, both
    vanish exactly when every encoded state commutes with the noise, and
    ||[E_k, rho]||_F <= ||r_k||_F + ||r~_k||_F for rho = V^dag (rho_1 (x) I/n2) V.
    Returns (defect <= threshold, defect, per_operator), per_operator[k]
    being ||r_k||_F + ||r~_k||_F and defect the largest; at (A (x) B) V the
    residual is r_k (A (x) B)^dag, so no basis of the factors changes it.
    Each E_k enters without its scalar part (tr E_k / N) I, whose residual at
    an isometry is zero, so the identity channel reads exactly 0.
    """
    v = as_isometry(v, n1, n2, channel.dim)
    ops = channel.operators
    ops = ops - np.trace(ops, axis1=1, axis2=2)[:, None, None] / channel.dim * np.eye(channel.dim)
    r = residuals(np.concatenate((ops, dagger(ops))), v[None], n1, n2)[0][0]
    norms = np.linalg.norm(r, axis=(1, 2))
    per_operator = (norms[: len(ops)] + norms[len(ops) :]).tolist()
    defect = max(per_operator)
    return defect <= threshold, defect, per_operator


def collective_dfs_encoding() -> np.ndarray:
    """The 4 x 8 rows V of the exact decoherence-free subsystem of 3-qubit
    collective noise: |A,0>, |A,1>, |B,0>, |B,1> of the two total-spin-1/2
    doublets, from the standard angular-momentum coupling coefficients.
    S_a V^dag = V^dag (I_2 (x) sigma_a) for a in {x, z}: the logical qubit
    lives in the multiplicity space, the noise acts only on the
    doublet-internal factor.
    """
    s2, s6 = np.sqrt(2.0), np.sqrt(6.0)
    rows = np.zeros((4, 8))
    # |A,m>: singlet of qubits 1,2 times qubit 3.
    rows[0, [0b010, 0b100]] = [1 / s2, -1 / s2]
    rows[1, [0b011, 0b101]] = [1 / s2, -1 / s2]
    # |B,m>: triplet of qubits 1,2 coupled with qubit 3 down to spin 1/2.
    rows[2, [0b001, 0b010, 0b100]] = [2 / s6, -1 / s6, -1 / s6]
    rows[3, [0b011, 0b101, 0b110]] = [1 / s6, 1 / s6, -2 / s6]
    return rows.astype(np.complex128)
