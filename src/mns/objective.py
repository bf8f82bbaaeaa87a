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

    J[U] = (1/(n1^2 n2)) sum_k || Tr_H1 (U E_k U^dag)_block ||_F^2.

``coefficients`` exposes the full coefficient tensor, and
``reduced_channel`` rebuilds the logical channel by direct action, giving
an independent route to p1.

For orthonormal encoded rows V = U[:m] (m = n1*n2) the same J is a sum of
squares plus a completeness term,

    1 - J = (1/m) sum_k ||E_k V^dag - V^dag (I (x) M_k)||^2
            + (1/m) tr(V (I - S) V^dag),

with M_k = Tr_H1(V E_k V^dag)/n1 and S = sum_k E_k^dag E_k.  The squares
vanish exactly when every E_k maps the encoded block into itself as
I (x) M_k, the first-order noiseless-subsystem condition (Shabani and Lidar,
PRA 72, 042303, 2005), so they keep full relative precision near a
decoherence-free encoding where J itself rounds at 1.  I - S is zero for an
exact channel and O(dt^2) for a first-order one; each channel caches it
(``KrausChannel.completeness_gap``).  ``objective_of_unitary`` returns 1
minus that value.

The gradient has one implementation, ``value_and_gradient``: at V it returns
1 - J and the matrix G with d(1 - J) = Re tr(G^dag dV), which the search
pulls back through its polar map (``parametrization.polar``).
``gradient_analytic`` contracts -G with the chart partials of
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


def _residuals(
    channel: KrausChannel, v: np.ndarray, n1: int, n2: int
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """1 - J at the orthonormal encoded rows V, with the pieces it is built
    from: the residuals r, the blocks M and V (I - S).

    M_k = Tr_H1(V E_k V^dag)/n1 and r_k = E_k V^dag - V^dag (I (x) M_k),
    stacked as r[k, n, i, a] with (i, a) the H1 (x) H2 index of column
    i*n2 + a.  1 - J = R + (1/m) tr(V (I - S) V^dag) with
    R = (1/m) sum_k ||r_k||^2 and I - S the channel's ``completeness_gap``.
    """
    m, dim, ops = n1 * n2, channel.dim, channel.stack()
    k = len(ops)
    vd = v.conj().T
    ev = (ops.reshape(k * dim, dim) @ vd).reshape(k, dim, n1, n2)
    mk = np.einsum("ian,knib->kab", v.reshape(n1, n2, dim), ev) / n1
    r = ev - (vd.reshape(dim * n1, n2) @ mk).reshape(k, dim, n1, n2)
    v_gap = v @ channel.completeness_gap
    value = (np.vdot(r, r).real + np.vdot(v, v_gap).real) / m
    return float(value), r, mk, v_gap


def objective_of_unitary(channel: KrausChannel, u: np.ndarray, n1: int, n2: int) -> float:
    """J for an encoding whose first n1*n2 rows V are orthonormal: a full
    unitary, or just those rows.  J is 1 minus ``value_and_gradient``'s value.

    Raises ValidationError when ||V V^dag - I|| > 1e-10, because the identity
    for 1 - J holds only for orthonormal rows.
    """
    dim, m = channel.dim, n1 * n2
    if n1 < 1 or n2 < 1 or m > dim:
        raise ValidationError(f"encoded block {n1}x{n2} does not fit in channel dim {dim}")
    v = np.asarray(u, dtype=np.complex128)[:m]
    if v.shape != (m, dim):
        raise ValidationError(f"encoding needs {m} rows of length {dim}, got {v.shape}")
    if np.linalg.norm(v @ v.conj().T - np.eye(m)) > 1e-10:
        raise ValidationError("encoded rows are not orthonormal to 1e-10")
    return 1.0 - _residuals(channel, v, n1, n2)[0]


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


def value_and_gradient(
    channel: KrausChannel, v: np.ndarray, n1: int, n2: int
) -> tuple[float, np.ndarray]:
    """1 - J at the orthonormal encoded rows V, and G with
    d(1 - J) = Re tr(G^dag dV).

    1 - J = R + (1/m) tr(V (I - S) V^dag) with R = (1/m) sum_k ||r_k||^2 (see
    ``_residuals``).  M_k is the least-squares choice of M in
    ||E_k V^dag - V^dag (I (x) M)||, so dM_k drops out of dR and
    G = (2/m) sum_k (r_k^dag E_k - (I (x) M_k) r_k^dag) + (2/m) V (I - S).
    """
    dim = channel.dim
    if n1 < 1 or n2 < 1 or n1 * n2 > dim:
        raise ValidationError(f"encoded block {n1}x{n2} does not fit in channel dim {dim}")
    m = n1 * n2
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (m, dim):
        raise ValidationError(f"encoded rows must have shape {(m, dim)}, got {v.shape}")
    value, r, mk, v_gap = _residuals(channel, v, n1, n2)
    rc = r.conj()
    g = rc.reshape(-1, m).T @ channel.stack().reshape(-1, dim)
    g -= np.einsum("kab,knib->ian", mk, rc).reshape(m, dim)
    g += v_gap
    return value, (2.0 / m) * g


def gradient_analytic(channel: KrausChannel, cand: EncodingCandidate) -> np.ndarray:
    """dJ/dx at a candidate: minus ``value_and_gradient``'s G contracted with
    the chart partials of the encoded rows.

    Tests check it against the finite-difference ``gradient`` oracle.
    """
    _check_channel_candidate(channel, cand)
    u, du = realize_with_partials(cand.params)
    m = cand.n1 * cand.n2
    g = value_and_gradient(channel, u[:m], cand.n1, cand.n2)[1]
    return -np.real(np.einsum("ab,pab->p", g.conj(), du[:, :m]))
