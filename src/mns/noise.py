"""Noise models and channels for collective-dephasing style qubit systems.

A model is a set of Lindblad dissipator terms (rate, operator) acting on
n qubits; ``lindblad_to_kraus`` turns it into the first-order Kraus channel

    E_0 = I - (1/2) sum_i Vt_i^dag Vt_i dt,     E_i = sqrt(dt) Vt_i,

with the rates folded into the operators as Vt_i = sqrt(gamma_i) V_i.  The
set is complete up to O(dt^2) and is deliberately not renormalized; the
completeness defect scales as c*dt^2 with a model-dependent constant
c = ||(sum_i gamma_i V_i^dag V_i)^2||_F / 4.  Each channel keeps the gap
I - sum_k E_k^dag E_k, which the objective's sum-of-squares form needs.

``dfs_check`` is the one test of protection: [E_k, rho] = 0 for encoded
states rho.  The search's ``is_dfs`` is its verdict.

Qubit ordering: qubit 1 is the leftmost tensor factor, and |0> is the +1
eigenvector of Z, so the collective S_z on three qubits is
diag(3, 1, 1, -1, 1, -1, -1, -3) in the computational basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, commutator, dagger, direct_sum_embed, random_density_matrix, tensor
from .parametrization import realize, random_params

__all__ = [
    "PAULI_X",
    "PAULI_Z",
    "qubit_operator",
    "collective_operator",
    "LindbladModel",
    "KrausChannel",
    "collective_xz",
    "collective_z_with_local_dephasing",
    "perturbed_collective",
    "random_perturbation_unitary",
    "lindblad_to_kraus",
    "default_dt",
    "DFS_THRESHOLD",
    "dfs_check",
    "collective_dfs_encoding",
]

# the largest commutator defect ``dfs_check`` certifies as decoherence-free
DFS_THRESHOLD = 1e-8

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_EYE2 = np.eye(2, dtype=np.complex128)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def qubit_operator(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator on ``qubit`` (1-based, leftmost first)."""
    if not 1 <= qubit <= n_qubits:
        raise ValidationError(f"qubit index {qubit} outside 1..{n_qubits}")
    out = np.array([[1.0 + 0.0j]])
    for k in range(1, n_qubits + 1):
        out = tensor(out, op if k == qubit else _EYE2)
    return out


def collective_operator(op: np.ndarray, n_qubits: int) -> np.ndarray:
    """Sum of the single-qubit operator over all qubits (e.g. S_z, S_x)."""
    return sum(qubit_operator(op, k, n_qubits) for k in range(1, n_qubits + 1))


@dataclass(frozen=True)
class LindbladModel:
    """Dissipative model d(rho)/dt = sum_i gamma_i D[V_i] rho on n qubits."""

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


@dataclass(frozen=True)
class KrausChannel:
    """A channel given by a finite set of Kraus operators.

    ``dt`` records the conversion step for channels built from a Lindblad
    model and is None for exact (completeness defect <= 1e-12) channels.

    What the objective needs of the operators alone is built once, on first
    use, and kept as read-only arrays: the (K, N, N) ``stack`` and
    I - sum_k E_k^dag E_k (``completeness_gap``).
    """

    dim: int
    operators: tuple[np.ndarray, ...]
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
        object.__setattr__(self, "operators", tuple(ops))
        if self.dt is not None and not self.dt > 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.dt is None and self.completeness_defect() > 1e-12:
            raise ValidationError(
                "Kraus set is not complete to 1e-12; pass dt for first-order sets"
            )

    def completeness_defect(self) -> float:
        """Frobenius norm of sum_k E_k^dag E_k - I."""
        return float(np.linalg.norm(self.completeness_gap))

    def stack(self) -> np.ndarray:
        """The operators as one read-only (K, N, N) array, built once."""
        return self._stack

    @cached_property
    def _stack(self) -> np.ndarray:
        return _read_only(np.stack(self.operators))

    @cached_property
    def completeness_gap(self) -> np.ndarray:
        """I - sum_k E_k^dag E_k as one read-only N x N array: zero for an
        exact channel, O(dt^2) for a first-order one."""
        column = self.stack().reshape(-1, self.dim)  # [E_0; E_1; ..]
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
    1e-10.
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
    mode "local-tensor": a tensor product of per-qubit 2x2 unitaries, each
    with angle norm delta (dim must be a power of two).  delta=0 returns the
    identity exactly in both modes.
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


def default_dt(model: LindbladModel, target: float = 1e-3) -> float:
    """Step size with max(rate) * dt = target (1e-3 by default)."""
    top = model.max_rate()
    return target / top if top > 0 else target


def dfs_check(
    channel: KrausChannel,
    u: np.ndarray,
    n1: int,
    n2: int,
    threshold: float = DFS_THRESHOLD,
    n_states: int = 6,
    seed: int = 0,
) -> tuple[bool, float, list[float]]:
    """Test the decoherence-free condition [E_k, rho] = 0 for encoded states.

    This decides ``find_mns``'s ``is_dfs``.  It asks that every E_k act as
    I (x) M_k on the encoded block and couple it to the rest in neither
    direction; the search's E_k V^dag = V^dag (I (x) M_k) rules out only
    coupling out of the block.  For Hermitian Kraus sets, which covers every
    bundled model, the two agree; for other sets this one is stricter.

    Draws ``n_states`` random logical density matrices rho_1, encodes each as
    rho = U^dag (rho_1 (x) I/n2 (+) 0) U, and returns (defect <= threshold,
    defect, per_operator): per_operator[k] is the largest Frobenius norm of
    [E_k, rho] over the states, and defect the largest of those.
    """
    u = as_matrix(u, "encoding unitary")
    dim = channel.dim
    if u.shape != (dim, dim):
        raise ValidationError(f"encoding unitary shape {u.shape} does not match dim {dim}")
    if np.linalg.norm(dagger(u) @ u - np.eye(dim)) > 1e-10:
        raise ValidationError("encoding matrix is not unitary to 1e-10")
    if n1 < 1 or n2 < 1 or n1 * n2 > dim:
        raise ValidationError(f"encoded dimensions ({n1},{n2}) must be >= 1, product <= {dim}")
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n_states):
        rho1 = random_density_matrix(n1, rng)
        block = tensor(rho1, np.eye(n2) / n2)
        states.append(dagger(u) @ direct_sum_embed(block, dim) @ u)
    per_operator = [
        max((float(np.linalg.norm(commutator(op, rho))) for rho in states), default=0.0)
        for op in channel.operators
    ]
    defect = max(per_operator)
    return defect <= threshold, defect, per_operator


def collective_dfs_encoding(n_qubits: int = 3) -> np.ndarray:
    """Exact decoherence-free subsystem encoding for 3-qubit collective noise.

    Maps the two total-spin-1/2 doublets onto the leading 2x2 block so that
    U S_a U^dag = I_2 (x) sigma_a (+) (spin-3/2 block) for a in {x, z}: the
    logical qubit lives in the multiplicity space, the noise acts only on the
    doublet-internal factor.  Rows 0..3 are |A,0>, |A,1>, |B,0>, |B,1> built
    from the standard angular-momentum coupling coefficients; rows 4..7 are
    the spin-3/2 quartet.
    """
    if n_qubits != 3:
        raise ValidationError("the closed-form encoding is implemented for 3 qubits")
    s2, s3, s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
    rows = np.zeros((8, 8))
    # |A,m>: singlet of qubits 1,2 times qubit 3.
    rows[0, [0b010, 0b100]] = [1 / s2, -1 / s2]
    rows[1, [0b011, 0b101]] = [1 / s2, -1 / s2]
    # |B,m>: triplet of qubits 1,2 coupled with qubit 3 down to spin 1/2.
    rows[2, [0b001, 0b010, 0b100]] = [2 / s6, -1 / s6, -1 / s6]
    rows[3, [0b011, 0b101, 0b110]] = [1 / s6, 1 / s6, -2 / s6]
    # Spin-3/2 quartet, m = 3/2 .. -3/2.
    rows[4, 0b000] = 1.0
    rows[5, [0b001, 0b010, 0b100]] = [1 / s3, 1 / s3, 1 / s3]
    rows[6, [0b011, 0b101, 0b110]] = [1 / s3, 1 / s3, 1 / s3]
    rows[7, 0b111] = 1.0
    return rows.astype(np.complex128)
