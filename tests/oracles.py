"""Reference implementations that only the tests use.

Each computes by the most direct route something the library computes a
faster way, or builds inputs and diagnostics the tests need:

* the logical map of a channel, by encoding each H1 matrix unit, applying
  the channel's action and decoding it again (``direct_map``, the one loop
  that both ``logical_map`` and the objective's reduced-channel weight are
  checked against);
* the logical map of a dense N^2 x N^2 superoperator (``logical_map``) and
  its worst-case fidelity (``dense_worst_case``), the references for the
  maps ``fidelity.worst_case_fidelity`` forms from a model's spectrum;
* the qubit worst case's boundary point with its secular root bracketed and
  found by SciPy's ``brentq`` (``sphere_minimum_by_brentq``);
* J through its coefficient tensor over an orthonormal Hermitian operator
  basis (``coefficients``), and dJ/dx by central differences in chart
  coordinates (``gradient``);
* the chart's unitary factor by factor (``realize_by_factors``), and its
  inverse one Givens rotation at a time (``chart_of_by_rotations``);
* commutators and direct-sum embeddings, random unitaries, states and
  channels, explicit subspace encodings and projector distances.

Nothing in ``src/mns`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np
import scipy.optimize

from mns.errors import ValidationError
from mns.fidelity import _minima, _traced
from mns.linalg import as_isometry, dagger, tensor
from mns.noise import KrausChannel
from mns.objective import objective_of_unitary
from mns.parametrization import UnitaryParams, num_angles, num_phases, plane_pairs, realize
from mns.search import SearchResult

# ---------------------------------------------------------------------------
# linear algebra


def _check_factor_dims(m: np.ndarray, n1: int, n2: int) -> None:
    if n1 < 1 or n2 < 1:
        raise ValidationError(f"factor dimensions must be positive, got ({n1}, {n2})")
    if m.shape != (n1 * n2, n1 * n2):
        raise ValidationError(
            f"matrix of shape {m.shape} does not factor as ({n1}*{n2}, {n1}*{n2})"
        )


def partial_trace_2(m: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Trace out the second tensor factor of an (n1*n2, n1*n2) matrix.

    Returns the (n1, n1) matrix  out[i, j] = sum_a m[(i, a), (j, a)].
    """
    m = np.asarray(m, dtype=np.complex128)
    _check_factor_dims(m, n1, n2)
    return np.einsum("iaja->ij", m.reshape(n1, n2, n1, n2))


def partial_trace_1(m: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Trace out the first tensor factor; returns the (n2, n2) matrix."""
    m = np.asarray(m, dtype=np.complex128)
    _check_factor_dims(m, n1, n2)
    return np.einsum("iaib->ab", m.reshape(n1, n2, n1, n2))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def direct_sum_embed(block: np.ndarray, total_dim: int) -> np.ndarray:
    """Embed ``block`` as the leading diagonal block of a ``total_dim`` matrix.

    The complement is padded with zeros, i.e. block ⊕ 0.
    """
    block = np.asarray(block, dtype=np.complex128)
    d = block.shape[0]
    if block.ndim != 2 or block.shape != (d, d):
        raise ValidationError(f"block must be square, got shape {block.shape}")
    if d > total_dim:
        raise ValidationError(f"block dimension {d} exceeds total dimension {total_dim}")
    out = np.zeros((total_dim, total_dim), dtype=np.complex128)
    out[:d, :d] = block
    return out


def block_projector(block_dim: int, total_dim: int) -> np.ndarray:
    """Projector onto the leading ``block_dim`` coordinates of a ``total_dim`` space."""
    return direct_sum_embed(np.eye(block_dim), total_dim)


@dataclass(frozen=True)
class PauliBasis:
    """Orthonormal Hermitian basis of dim x dim operators.

    ``elements[0]`` is I/sqrt(dim); the rest are the normalized generalized
    Gell-Mann matrices, ordered as all symmetric off-diagonal pairs (j < k,
    lexicographic), then all antisymmetric pairs (same order), then the
    diagonal family.  Every element satisfies Tr(e_m e_n) = delta_mn.
    """

    dim: int
    elements: tuple[np.ndarray, ...]

    def stack(self) -> np.ndarray:
        """The basis as a (dim**2, dim, dim) array."""
        return np.stack(self.elements)


def pauli_basis(dim: int) -> PauliBasis:
    """Construct the orthonormal Hermitian operator basis for dimension ``dim``.

    For dim == 2 this is {I, X, Y, Z}/sqrt(2).
    """
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValidationError(f"basis dimension must be a positive integer, got {dim!r}")
    dim = int(dim)
    elems: list[np.ndarray] = [np.eye(dim, dtype=np.complex128) / np.sqrt(dim)]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=np.complex128)
            m[j, k] = inv_sqrt2
            m[k, j] = inv_sqrt2
            elems.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=np.complex128)
            m[j, k] = -1j * inv_sqrt2
            m[k, j] = 1j * inv_sqrt2
            elems.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        elems.append(m / np.sqrt(l * (l + 1)))
    return PauliBasis(dim=dim, elements=tuple(elems))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed random unitary via QR with the standard phase fix."""
    rng = _as_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure_state(dim: int, seed=None) -> np.ndarray:
    rng = _as_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# chart coordinates as one flat vector: [diagonal phases | pair phases | angles]


def zero_params(dim: int) -> UnitaryParams:
    return UnitaryParams(dim, np.zeros(num_phases(dim)), np.zeros(num_angles(dim)))


def pack(params: UnitaryParams) -> np.ndarray:
    return np.concatenate([params.phases, params.angles])


def unpack(dim: int, x: np.ndarray) -> UnitaryParams:
    x = np.asarray(x, dtype=np.float64)
    np_, na = num_phases(dim), num_angles(dim)
    if x.shape != (np_ + na,):
        raise ValidationError(f"packed vector must have length {np_ + na}, got {x.shape}")
    return UnitaryParams(dim, x[:np_].copy(), x[np_:].copy())


def realize_by_factors(params: UnitaryParams) -> np.ndarray:
    """The chart's unitary with its Givens factors applied one at a time,
    right to left, each to a copy of its two rows: the reference for
    ``realize``, which applies one anti-diagonal of them at a time."""
    n = params.dim
    u = np.eye(n, dtype=np.complex128)
    pairs = plane_pairs(n)
    for idx in range(len(pairs) - 1, -1, -1):
        i, j = pairs[idx]
        th = params.angles[idx]
        c, s = np.cos(th), np.sin(th)
        e = np.exp(1j * params.phases[n + idx])
        ri, rj = u[i].copy(), u[j]
        u[i] = c * ri - e * s * rj
        u[j] = np.conj(e) * s * ri + c * rj
    return np.exp(1j * params.phases[:n])[:, None] * u


def chart_of_by_rotations(u: np.ndarray) -> UnitaryParams:
    """Chart coordinates of the completion of the rows ``u``, with each
    column's Givens group peeled one rotation at a time, each acting on
    whole rows from a copy of the pivot row: the reference for
    ``chart_of``, which peels a group with one recurrence on the pivot row
    and one stacked update of the rows below it."""
    w = np.array(u, dtype=np.complex128)
    m, n = w.shape
    basis = np.linalg.qr(dagger(w), mode="complete")[0]
    w = np.vstack([w, dagger(basis[:, m:])])
    pairs = plane_pairs(n)
    diag, angles, shifted = np.zeros(n), np.zeros(len(pairs)), np.zeros(len(pairs))
    q = 0
    for i in range(n):
        diag[i] = np.angle(w[i, i])
        col = w[i:, i] * np.exp(-1j * diag[i])
        group = range(q, q + n - 1 - i)
        angles[group] = np.arctan2(np.abs(col[1:]), np.sqrt(np.cumsum(np.abs(col[:-1]) ** 2)))
        shifted[group] = -np.angle(col[1:])
        c, s, e = np.cos(angles[group]), np.sin(angles[group]), np.exp(1j * shifted[group])
        for t, j in enumerate(range(i + 1, n)):  # w <- G(-theta) w, leftmost first
            ri, rj = w[i].copy(), w[j]
            w[i] = c[t] * ri - e[t] * -s[t] * rj
            w[j] = np.conj(e[t]) * -s[t] * ri + c[t] * rj
        q += n - 1 - i
    ii, jj = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return UnitaryParams(n, np.concatenate([diag, shifted + diag[jj] - diag[ii]]), angles)


# ---------------------------------------------------------------------------
# channels and their action on density matrices


def kraus_apply(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_k E_k rho E_k^dag."""
    out = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for op in channel.operators:
        out += op @ rho @ dagger(op)
    return out


def evolved_apply(superoperator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The channel of an N^2 x N^2 superoperator (``evolve``'s exp(L t_f))
    applied to a density matrix, as the superoperator times the row-major
    vectorized matrix."""
    rho = np.asarray(rho, dtype=np.complex128)
    dim = math.isqrt(len(superoperator))
    if rho.shape != (dim, dim):
        raise ValidationError(f"state shape {rho.shape} does not match dim {dim}")
    return (superoperator @ rho.reshape(-1)).reshape(dim, dim)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel(dim=dim, operators=(np.eye(dim, dtype=np.complex128),))


def random_kraus_channel(dim: int, n_ops: int, seed=None) -> KrausChannel:
    """Exactly complete random channel from a Haar-style Stinespring isometry."""
    rng = _as_rng(seed)
    g = rng.standard_normal((dim * n_ops, dim)) + 1j * rng.standard_normal((dim * n_ops, dim))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[k * dim : (k + 1) * dim, :] for k in range(n_ops))
    return KrausChannel(dim=dim, operators=ops)


def choi_matrix(superoperator: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator in the row-major convention."""
    n2 = superoperator.shape[0]
    n = int(round(np.sqrt(n2)))
    if n * n != n2 or superoperator.shape != (n2, n2):
        raise ValidationError(f"superoperator shape {superoperator.shape} is not (n^2, n^2)")
    return superoperator.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n2, n2)


# ---------------------------------------------------------------------------
# encodings


def excitation_subspace(n_qubits: int, n_excited: int) -> np.ndarray:
    """Orthonormal basis (as columns) of the span of computational states
    with exactly ``n_excited`` qubits in |1>."""
    if not 0 <= n_excited <= n_qubits:
        raise ValidationError(f"n_excited must be within 0..{n_qubits}")
    dim = 2**n_qubits
    idx = sorted(
        sum(1 << (n_qubits - 1 - q) for q in ones)
        for ones in combinations(range(n_qubits), n_excited)
    )
    basis = np.zeros((dim, len(idx)), dtype=np.complex128)
    for col, i in enumerate(idx):
        basis[i, col] = 1.0
    return basis


def basis_state_encoding(dim: int, leading_indices) -> np.ndarray:
    """Permutation unitary whose first rows map the given computational basis
    states onto the leading coordinates (useful for subspace encodings)."""
    leading = [int(i) for i in leading_indices]
    if len(set(leading)) != len(leading) or any(not 0 <= i < dim for i in leading):
        raise ValidationError("leading indices must be distinct and within range")
    order = leading + [i for i in range(dim) if i not in leading]
    u = np.zeros((dim, dim), dtype=np.complex128)
    for row, i in enumerate(order):
        u[row, i] = 1.0
    return u


def _check_density(rho: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.complex128)
    n = rho.shape[0]
    if rho.ndim != 2 or rho.shape != (n, n):
        raise ValidationError(f"state must be a square matrix, got shape {rho.shape}")
    if np.linalg.norm(rho - dagger(rho)) > atol:
        raise ValidationError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise ValidationError("state does not have unit trace")
    if np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min() < -atol:
        raise ValidationError("state is not positive semidefinite")
    return rho


def _encode_raw(rho1: np.ndarray, u: np.ndarray, n1: int, n2: int) -> np.ndarray:
    dim = u.shape[0]
    block = tensor(rho1, np.eye(n2, dtype=np.complex128) / n2)
    full = np.zeros((dim, dim), dtype=np.complex128)
    full[: n1 * n2, : n1 * n2] = block
    return dagger(u) @ full @ u


def encode(rho1: np.ndarray, u: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Physical state U^dag (rho1 (x) I/n2 (+) 0) U for a logical density matrix."""
    n1, n2 = dims
    rho1 = _check_density(rho1)
    if rho1.shape != (n1, n1):
        raise ValidationError(f"logical state shape {rho1.shape} does not match n1={n1}")
    u = np.asarray(u, dtype=np.complex128)
    if n1 * n2 > u.shape[0]:
        raise ValidationError(f"encoded block {n1}x{n2} exceeds dimension {u.shape[0]}")
    return _encode_raw(rho1, u, n1, n2)


def decode(
    rho: np.ndarray,
    u: np.ndarray,
    dims: tuple[int, int],
    renormalize: bool = True,
) -> tuple[np.ndarray, float]:
    """Project back onto the encoded block and trace out H2.

    Returns (logical state, leakage) with leakage = 1 - Tr of the projected
    block.  With ``renormalize=False`` the raw trace-deficient operator is
    returned; fidelity uses that form so leakage counts as infidelity.
    """
    n1, n2 = dims
    rho = np.asarray(rho, dtype=np.complex128)
    u = np.asarray(u, dtype=np.complex128)
    m = n1 * n2
    block = (u @ rho @ dagger(u))[:m, :m]
    out = partial_trace_2(block, n1, n2)
    trace = float(np.trace(out).real)
    leakage = 1.0 - trace
    if renormalize and 0.0 < trace < 1.0:
        out = out / trace
    return out, leakage


def direct_map(action, u: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Matrix of rho1 -> decode(action(encode(rho1))) on row-major vectorized
    H1 operators, one matrix unit at a time; ``action`` maps an N x N
    operator to its image under the channel.  Decoding keeps the raw
    trace-deficient operator."""
    out = np.zeros((n1 * n1, n1 * n1), dtype=np.complex128)
    for a in range(n1):
        for b in range(n1):
            unit = np.zeros((n1, n1), dtype=np.complex128)
            unit[a, b] = 1.0
            image = action(_encode_raw(unit, u, n1, n2))
            out[:, a * n1 + b] = decode(image, u, (n1, n2), renormalize=False)[0].reshape(-1)
    return out


def logical_map(superoperator: np.ndarray, v: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Matrix of rho1 -> Tr_H2[V Lambda(V^dag (rho1 (x) I/n2) V) V^dag] on
    row-major vectorized H1 operators, for the superoperator of Lambda and
    the encoded rows V.

    With vec(A rho B) = (A (x) B^T) vec(rho), a = V (x) conj(V) decodes and
    a^dag encodes.  Tracing H2 out of the output and contracting the input
    with I/n2 leaves Tr_out(a) Sup Tr_in(a^dag) / n2 (``_traced``).
    """
    p = _traced(v, n1, n2)
    return p @ superoperator @ dagger(p) / n2


def dense_worst_case(v: np.ndarray, dims: tuple[int, int], superoperator: np.ndarray) -> float:
    """Minimize f(psi) over pure logical states for the encoding with rows V
    (``as_isometry``) under the channel with this N^2 x N^2 superoperator
    (``evolve``'s): the one-map case of ``_minima``, exact for a qubit."""
    n1, n2 = dims
    v = as_isometry(v, n1, n2, math.isqrt(len(superoperator)))
    return float(_minima(logical_map(superoperator, v, n1, n2)[None], n1)[0])


def sphere_minimum_by_brentq(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unit r minimizing b.r + r^T c r for one 3-vector b and symmetric 3x3
    c, as ``fidelity._sphere_minimum`` defines it, with the root mu of
    |y(mu)| = 1 bracketed in [lam_0 - |b|, lam_0], where |y| <= 1/2 at the
    left end, and found by ``scipy.optimize.brentq`` at xtol = 1e-300."""
    lam, v = np.linalg.eigh(c)
    beta = v.T @ b

    def y_at(mu: float) -> np.ndarray:  # a pole lam_i = mu with beta_i != 0 gives inf
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(beta == 0.0, 0.0, -beta / (2.0 * (lam - mu)))

    def secular(mu: float) -> float:
        return 1.0 / np.linalg.norm(y_at(mu)) - 1.0

    mu = lam[0]
    if secular(mu) < 0.0:
        low = np.nextafter(mu - np.linalg.norm(b), -np.inf)
        mu = scipy.optimize.brentq(secular, low, mu, xtol=1e-300)
    y = y_at(mu)
    y[0] = -math.copysign(math.sqrt(max(0.0, 1.0 - y[1:] @ y[1:])), beta[0])
    r = v @ y
    return r / np.linalg.norm(r)


# ---------------------------------------------------------------------------
# the objective by other routes


@dataclass(frozen=True)
class EncodingCandidate:
    """A candidate encoding: dimensions (n1, n2, n3) plus chart coordinates."""

    n1: int
    n2: int
    n3: int
    params: UnitaryParams
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return self.n1 * self.n2 + self.n3


def candidate(n1: int, n2: int, params: UnitaryParams) -> EncodingCandidate:
    """Build a candidate from dims and chart coordinates; n3 is implied."""
    if n1 < 1 or n2 < 1:
        raise ValidationError(f"encoded dimensions must be positive, got ({n1}, {n2})")
    if n1 * n2 > params.dim:
        raise ValidationError(
            f"encoded block {n1}x{n2} does not fit in dimension {params.dim}"
        )
    return EncodingCandidate(
        n1=n1, n2=n2, n3=params.dim - n1 * n2, params=params, unitary=realize(params)
    )


def _check_channel_candidate(channel: KrausChannel, cand: EncodingCandidate) -> None:
    if channel.dim != cand.dim:
        raise ValidationError(
            f"channel dim {channel.dim} does not match candidate dim {cand.dim}"
        )


def transformed_kraus(channel: KrausChannel, u: np.ndarray) -> list[np.ndarray]:
    """The Kraus operators conjugated into the encoded basis, U E_k U^dag."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (channel.dim, channel.dim):
        raise ValidationError(
            f"unitary shape {u.shape} does not match channel dim {channel.dim}"
        )
    ud = dagger(u)
    return [u @ op @ ud for op in channel.operators]


def objective(channel: KrausChannel, cand: EncodingCandidate) -> float:
    """Encoding quality J[U] in [0, 1 + completeness defect]."""
    _check_channel_candidate(channel, cand)
    return objective_of_unitary(channel, cand.unitary[: cand.n1 * cand.n2], cand.n1, cand.n2)


def coefficients(channel: KrausChannel, cand: EncodingCandidate) -> np.ndarray:
    """Coefficient tensor a[k, m, n] = Tr((P U E_k U^dag P)(s_m (x) s_n)).

    Indexed by Kraus operator k, H1 basis element m, H2 basis element n; the
    m = n = 0 entries carry the identity components entering J.
    """
    _check_channel_candidate(channel, cand)
    n1, n2 = cand.n1, cand.n2
    m = n1 * n2
    rows = cand.unitary[:m]
    blocks = np.einsum(
        "in,knm,jm->kij", rows, channel.stack, rows.conj(), optimize=True
    )
    b1 = pauli_basis(n1).stack()
    b2 = pauli_basis(n2).stack()
    prods = np.einsum("mij,nkl->mnikjl", b1, b2).reshape(n1 * n1, n2 * n2, m, m)
    return np.einsum("kij,mnji->kmn", blocks, prods, optimize=True)


@dataclass(frozen=True)
class ReducedChannel:
    """The logical channel on H1 split into identity weight plus residual.

    The residual is stored in eigenbasis form: ``apply`` reconstructs

        E1(rho) = p1 * rho + sum_v w_v A_v rho A_v^dag,

    which reproduces the directly computed reduced action exactly.  Residual
    weights are signed: the reduced map itself is completely positive, but
    subtracting the identity component can and generically does leave an
    indefinite remainder.
    """

    n1: int
    p1: float
    residual_weights: np.ndarray
    residual_ops: tuple[np.ndarray, ...]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self.p1 * np.asarray(rho, dtype=np.complex128)
        for w, op in zip(self.residual_weights, self.residual_ops):
            out += w * (op @ rho @ dagger(op))
        return out


def _choi_from_map(mat: np.ndarray, n: int) -> np.ndarray:
    choi = mat.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return 0.5 * (choi + dagger(choi))


def reduced_channel_of_unitary(
    channel: KrausChannel, u: np.ndarray, n1: int, n2: int
) -> ReducedChannel:
    """The logical channel of ``direct_map`` under the Kraus action; p1 is its
    identity weight, which must equal J."""
    choi = _choi_from_map(direct_map(partial(kraus_apply, channel), u, n1, n2), n1)
    eig_floor = float(np.linalg.eigvalsh(choi).min())
    if eig_floor < -1e-9:
        raise AssertionError(
            f"reduced map is not completely positive: Choi eigenvalue {eig_floor:.3e}"
        )
    vec_id = np.eye(n1, dtype=np.complex128).reshape(-1)
    p1 = float(np.real(vec_id.conj() @ choi @ vec_id) / (n1 * n1))
    residual = choi - p1 * np.outer(vec_id, vec_id.conj())
    w, v = np.linalg.eigh(residual)
    keep = np.abs(w) > 1e-12
    ops = tuple(v[:, i].reshape(n1, n1) for i in np.nonzero(keep)[0])
    return ReducedChannel(n1=n1, p1=p1, residual_weights=w[keep], residual_ops=ops)


def reduced_channel(channel: KrausChannel, cand: EncodingCandidate) -> ReducedChannel:
    """Reduced logical channel computed by direct action on an operator basis."""
    _check_channel_candidate(channel, cand)
    return reduced_channel_of_unitary(channel, cand.unitary, cand.n1, cand.n2)


def _objective_packed(channel: KrausChannel, dim: int, n1: int, n2: int, x: np.ndarray) -> float:
    return objective_of_unitary(channel, realize(unpack(dim, x))[: n1 * n2], n1, n2)


def gradient(channel: KrausChannel, cand: EncodingCandidate, h: float = 1e-6) -> np.ndarray:
    """dJ/dx by central finite differences over the packed parameter vector."""
    _check_channel_candidate(channel, cand)
    if not h > 0:
        raise ValidationError(f"finite-difference step must be positive, got {h}")
    x0 = pack(cand.params)
    dim, n1, n2 = cand.params.dim, cand.n1, cand.n2
    out = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += h
        xm = x0.copy()
        xm[i] -= h
        out[i] = (
            _objective_packed(channel, dim, n1, n2, xp)
            - _objective_packed(channel, dim, n1, n2, xm)
        ) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# projector diagnostics of a search result


def subspace_projector(result: SearchResult) -> np.ndarray:
    """Projector (in the physical basis) onto the encoded block of the best U."""
    n1, n2, n3 = result.dims
    dim = n1 * n2 + n3
    u = realize(result.best_params)
    return dagger(u) @ block_projector(n1 * n2, dim) @ u


def projector_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Spectral-norm distance between two projectors."""
    return float(np.linalg.norm(p - q, 2))


def containment_defect(p_sub: np.ndarray, p_space: np.ndarray) -> float:
    """||(I - P_space) P_sub||_2; zero iff range(P_sub) lies inside range(P_space)."""
    eye = np.eye(p_space.shape[0])
    return float(np.linalg.norm((eye - p_space) @ p_sub, 2))
