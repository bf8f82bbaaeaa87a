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

The tests check J against both sums, and against the identity weight of
the logical channel rebuilt by direct action.

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
(``KrausChannel.completeness_gap``).  The residuals come from
``noise.residuals``, which ``noise.dfs_check`` reads too.
``objective_of_unitary`` takes the rows V alone, as every encoding is held
here, and returns 1 minus that value.

The gradient has one implementation, ``value_and_gradient``: at V it returns
1 - J, the matrix G with d(1 - J) = Re tr(G^dag dV), whose projection onto
the isometries' tangent space at V (``parametrization.tangent``) is the
search's gradient, and the sum of squares alone, by which the search judges
a step's gain.
``gradient_analytic`` contracts -G with the chart partials of
``realize_with_partials``; the tests check both against central
differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import as_isometry
from .noise import KrausChannel, residuals
from .parametrization import UnitaryParams, realize_with_partials

__all__ = [
    "objective_of_unitary",
    "value_and_gradient",
    "gradient_analytic",
]


def _lane_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum conj(a) b per lane of two C-contiguous (R, ...) stacks, as one
    real dot per lane through ``matmul``: its result for a lane does not
    depend on which other lanes share the stack."""
    lanes = len(a)
    dots = a.view(np.float64).reshape(lanes, 1, -1) @ b.view(np.float64).reshape(lanes, -1, 1)
    return dots.reshape(lanes)


def objective_of_unitary(channel: KrausChannel, v: np.ndarray, n1: int, n2: int) -> float:
    """J for the orthonormal encoded rows V of an encoding (``as_isometry``):
    1 minus ``value_and_gradient``'s value.  The identity for 1 - J holds
    only for orthonormal rows, so V is checked first."""
    return float(1.0 - value_and_gradient(channel, as_isometry(v, n1, n2, channel.dim), n1, n2)[0])


def value_and_gradient(
    channel: KrausChannel, v: np.ndarray, n1: int, n2: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1 - J at the orthonormal encoded rows V, G with
    d(1 - J) = Re tr(G^dag dV), and the residual part R of 1 - J, for V of
    shape (..., m, N): one value, G and R per leading index, a single block
    (m, N) being a stack of one.  Each block's result is the same to the bit
    whatever shares its stack.

    1 - J = R + (1/m) tr(V (I - S) V^dag) with R = (1/m) sum_k ||r_k||^2, the
    residuals r_k and blocks M_k of ``noise.residuals``, and I - S the
    channel's ``completeness_gap``.  M_k is the least-squares choice of M in
    ||E_k V^dag - V^dag (I (x) M)||, so dM_k drops out of dR and
    G = (2/m) sum_k (r_k^dag E_k - (I (x) M_k) r_k^dag) + (2/m) V (I - S).
    Every sum runs through ``matmul``, one BLAS call per lane.
    """
    dim = channel.dim
    if n1 < 1 or n2 < 1 or n1 * n2 > dim:
        raise ValidationError(f"encoded block {n1}x{n2} does not fit in channel dim {dim}")
    m = n1 * n2
    v = np.ascontiguousarray(v, dtype=np.complex128)
    if v.shape[-2:] != (m, dim):
        raise ValidationError(f"encoded rows must have shape (..., {m}, {dim}), got {v.shape}")
    ops, lead = channel.operators, v.shape[:-2]
    v = v.reshape(-1, m, dim)
    lanes, k = len(v), len(ops)
    r, mk = residuals(ops, v, n1, n2)
    v_gap = v @ channel.completeness_gap
    squares = _lane_dots(r, r)
    value = (squares + _lane_dots(v, v_gap)) / m
    rc = r.conj()
    g = rc.reshape(lanes, k * dim, m).swapaxes(1, 2) @ ops.reshape(k * dim, dim)
    # sum_k (I (x) M_k) r_k^dag as one product contracting (k, b)
    mrow = mk.transpose(0, 2, 1, 3).reshape(lanes, n2, k * n2)
    rcol = rc.reshape(lanes, k, dim, n1, n2).transpose(0, 1, 4, 2, 3).reshape(lanes, k * n2, dim * n1)
    g -= (mrow @ rcol).reshape(lanes, n2, dim, n1).transpose(0, 3, 1, 2).reshape(lanes, m, dim)
    g += v_gap
    return (
        value.reshape(lead)[()],
        ((2.0 / m) * g).reshape(*lead, m, dim),
        (squares / m).reshape(lead)[()],
    )


def gradient_analytic(
    channel: KrausChannel, params: UnitaryParams, n1: int, n2: int
) -> np.ndarray:
    """dJ/dx at chart coordinates ``params``: minus ``value_and_gradient``'s G
    contracted with the chart partials of the encoded rows."""
    u, du = realize_with_partials(params)
    m = n1 * n2
    g = value_and_gradient(channel, u[:m], n1, n2)[1]
    return -np.real(np.einsum("ab,pab->p", g.conj(), du[:, :m]))
