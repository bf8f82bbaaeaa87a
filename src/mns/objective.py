"""Encoding quality objective for noisy channels.

An encoding candidate splits the N-dimensional space as H1 (x) H2 (+) H3
(dims n1*n2 + n3 = N) after a change of basis by the encoding unitary U; the
logical state rho_1 lives on H1 and H2 carries the maximally mixed state.
The quality functional is the weight of the identity component of the
reduced logical channel,

    J[U] = (1/(n1*n2)) sum_k sum_n |Tr(P U E_k U^dag P (s0 (x) s_n))|^2,

with P the projector on the encoded block, s0 = I/sqrt(n1) and {s_n} the
orthonormal Hermitian basis of H2 operators (all n2**2 of them, identity
included).  J equals the probability p1 that the reduced channel acts as the
identity; J = 1 exactly characterizes a decoherence-free subspace/subsystem
(up to the O(dt^2) completeness defect of first-order Kraus sets).

Because the basis is orthonormal, the inner sum telescopes by Parseval to

    J[U] = (1/(n1^2 n2)) sum_k || Tr_H1 (U E_k U^dag)_block ||_F^2,

which is what ``objective`` evaluates; ``coefficients`` exposes the full
coefficient tensor, and ``reduced_channel`` rebuilds the logical channel by
direct action, giving an independent route to p1.

Each channel splits its operators once as E_k = a_k I + D_k with
a_k = tr(E_k)/N (``KrausChannel.traceless_split``) and caches
[D_0^dag | .. | D_{K-1}^dag | D_0 | .. | D_{K-1}] as one N x 2KN matrix.
For orthonormal encoded rows V = U[:m] the identity parts contribute the
constant base = sum_k |a_k|^2 to J, and everything that depends on V comes
from the one product P = V [D^dag | D].  ``objective_of_unitary`` and
``value_and_gradient`` share that code, so both return the same float.

The gradient has one implementation, ``value_and_gradient``: at V it returns
J as (base, rest), and the matrix G with dJ = Re tr(G^dag dV), which the
search pulls back through its polar map (``parametrization.polar``).
``gradient_analytic`` contracts G with the chart partials of
``realize_with_partials``; the central differences of ``gradient`` are the
independent check for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ValidationError
from .linalg import dagger, partial_trace_2, pauli_basis, tensor
from .noise import KrausChannel
from .parametrization import UnitaryParams, pack, realize, realize_with_partials, unpack

__all__ = [
    "EncodingCandidate",
    "ReducedChannel",
    "candidate",
    "transformed_kraus",
    "objective",
    "objective_of_unitary",
    "coefficients",
    "reduced_channel",
    "reduced_channel_of_unitary",
    "conjugation_adjoint",
    "value_and_gradient",
    "gradient",
    "gradient_analytic",
]


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


def _encoded_products(
    channel: KrausChannel, v: np.ndarray, n1: int, n2: int
) -> tuple[np.ndarray, np.ndarray]:
    """P = V [D_0^dag | .. | D_{K-1}^dag | D_0 | .. | D_{K-1}] in one product,
    and the traced blocks S_k = Tr_H1(V D_k V^dag) of the encoded rows V.

    The identity part of E_k = a_k I + D_k maps to n1 a_k I exactly under
    orthonormal V, so Tr_H1(V E_k V^dag) = n1 a_k I + S_k and only the O(dt)
    D_k go through products.  Returns (P, S)."""
    m, dim, k = n1 * n2, channel.dim, len(channel.operators)
    p = v @ channel.traceless_row
    blocks = p[:, k * dim :].reshape(m * k, dim) @ v.conj().T
    return p, np.einsum("iakib->kab", blocks.reshape(n1, n2, k, n1, n2))


def _objective_terms(a: np.ndarray, s: np.ndarray, n1: int, n2: int) -> tuple[float, float]:
    """J = sum_k ||n1 a_k I + S_k||^2 / (n1^2 n2) as (base, rest): the constant
    base = sum_k |a_k|^2 and the V-dependent rest, each at full relative
    precision, so that J = base + rest carries a single rounding."""
    traces = s.reshape(len(s), -1)[:, :: n2 + 1].sum(axis=1)
    rest = 2 * n1 * np.vdot(a, traces).real + np.vdot(s, s).real
    return float(np.vdot(a, a).real), float(rest / (n1 * n1 * n2))


def objective_of_unitary(channel: KrausChannel, u: np.ndarray, n1: int, n2: int) -> float:
    """J for an encoding whose first n1*n2 rows V are orthonormal: a full
    unitary, or just those rows.

    Raises ValidationError when ||V V^dag - I|| > 1e-10, because the split
    J = base + rest holds only for orthonormal rows.
    """
    dim, m = channel.dim, n1 * n2
    if n1 < 1 or n2 < 1 or m > dim:
        raise ValidationError(f"encoded block {n1}x{n2} does not fit in channel dim {dim}")
    v = np.asarray(u, dtype=np.complex128)[:m]
    if v.shape != (m, dim):
        raise ValidationError(f"encoding needs {m} rows of length {dim}, got {v.shape}")
    if np.linalg.norm(v @ v.conj().T - np.eye(m)) > 1e-10:
        raise ValidationError("encoded rows are not orthonormal to 1e-10")
    s = _encoded_products(channel, v, n1, n2)[1]
    base, rest = _objective_terms(channel.traceless_split[0], s, n1, n2)
    return base + rest


def objective(channel: KrausChannel, cand: EncodingCandidate) -> float:
    """Encoding quality J[U] in [0, 1 + completeness defect]."""
    _check_channel_candidate(channel, cand)
    return objective_of_unitary(channel, cand.unitary, cand.n1, cand.n2)


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
        "in,knm,jm->kij", rows, channel.stack(), rows.conj(), optimize=True
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


def _reduced_map_matrix(channel: KrausChannel, u: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Matrix of E1 on row-major vectorized H1 operators, built by direct action:
    encode, conjugate, apply the channel, project, partial-trace H2."""
    dim = channel.dim
    m = n1 * n2
    ud = dagger(u)
    eye2 = np.eye(n2, dtype=np.complex128) / n2
    mat = np.zeros((n1 * n1, n1 * n1), dtype=np.complex128)
    for a in range(n1):
        for b in range(n1):
            unit = np.zeros((n1, n1), dtype=np.complex128)
            unit[a, b] = 1.0
            block = tensor(unit, eye2)
            rho = np.zeros((dim, dim), dtype=np.complex128)
            rho[:m, :m] = block
            rho = ud @ rho @ u
            out_block = (u @ channel.apply(rho) @ ud)[:m, :m]
            reduced = partial_trace_2(out_block, n1, n2)
            mat[:, a * n1 + b] = reduced.reshape(-1)
    return mat


def _choi_from_map(mat: np.ndarray, n: int) -> np.ndarray:
    choi = mat.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return 0.5 * (choi + dagger(choi))


def reduced_channel_of_unitary(
    channel: KrausChannel, u: np.ndarray, n1: int, n2: int
) -> ReducedChannel:
    mat = _reduced_map_matrix(channel, u, n1, n2)
    choi = _choi_from_map(mat, n1)
    eig_floor = float(np.linalg.eigvalsh(choi).min())
    if eig_floor < -1e-9:
        raise NumericalConsistencyError(
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
    return objective_of_unitary(channel, realize(unpack(dim, x)), n1, n2)


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


def conjugation_adjoint(channel: KrausChannel, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The matrix A with Re tr(A dU) = sum_k Re tr(w_k^dag dC_k) for every dU.

    C_k = U E_k U^dag changes by dU E_k U^dag + U E_k dU^dag, so
    A = sum_k (E_k U^dag w_k^dag + E_k^dag U^dag w_k), summed as one matrix
    product over the channel's cached stack of Kraus operators and adjoints.
    """
    dim = u.shape[0]
    left = channel.stack_with_adjoints @ dagger(u)
    right = np.concatenate([w.conj().transpose(0, 2, 1), w])
    return left.transpose(1, 0, 2).reshape(dim, -1) @ right.reshape(-1, dim)


def value_and_gradient(
    channel: KrausChannel, v: np.ndarray, n1: int, n2: int
) -> tuple[float, float, np.ndarray]:
    """J = base + rest at the orthonormal encoded rows V, and G with
    dJ = Re tr(G^dag dV).

    base + rest is the same float ``objective_of_unitary`` returns for any U
    with U[:m] = V.  base is fixed by the channel, so a search can follow
    rest alone, which resolves changes of J far below J's own rounding.  With
    T_k = n1 a_k I + S_k and W_k = I (x) T_k, dJ = (2/(n1^2 n2)) sum_k
    Re tr(T_k^dag dT_k) = c sum_k Re tr(W_k^dag dC_k) for C_k = V D_k V^dag,
    so G = c sum_k (W_k V D_k^dag + W_k^dag V D_k) with c = 2/(n1^2 n2): one
    contraction of [T; T^dag] with the blocks of P = V [D^dag | D] over k
    and H2.
    """
    dim = channel.dim
    if n1 < 1 or n2 < 1 or n1 * n2 > dim:
        raise ValidationError(f"encoded block {n1}x{n2} does not fit in channel dim {dim}")
    m = n1 * n2
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (m, dim):
        raise ValidationError(f"encoded rows must have shape {(m, dim)}, got {v.shape}")
    a = channel.traceless_split[0]
    p, s = _encoded_products(channel, v, n1, n2)
    k = len(a)
    t = np.empty((2 * k, n2, n2), dtype=np.complex128)
    t[:k] = s
    t[:k].reshape(k, -1)[:, :: n2 + 1] += n1 * a[:, None]
    t[k:] = t[:k].conj().transpose(0, 2, 1)
    g = np.einsum("kab,ibkn->ian", t, p.reshape(n1, n2, 2 * k, dim)).reshape(m, dim)
    return *_objective_terms(a, s, n1, n2), (2.0 / (n1 * n1 * n2)) * g


def gradient_analytic(channel: KrausChannel, cand: EncodingCandidate) -> np.ndarray:
    """dJ/dx at a candidate: ``value_and_gradient``'s G contracted with the
    chart partials of the encoded rows.

    Tests check it against the finite-difference ``gradient`` oracle.
    """
    _check_channel_candidate(channel, cand)
    u, du = realize_with_partials(cand.params)
    m = cand.n1 * cand.n2
    g = value_and_gradient(channel, u[:m], cand.n1, cand.n2)[2]
    return np.real(np.einsum("ab,pab->p", g.conj(), du[:, :m]))
