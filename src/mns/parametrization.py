"""Smooth parametrization of N x N unitaries by phases and mixing angles.

The chart is

    U(phi, theta) = D(phi_diag) * G_{(0,1)} * G_{(0,2)} * ... * G_{(N-2,N-1)},

where D = diag(exp(i*phi_d)) and each Givens factor G_{(i,j)}(theta, phi)
acts on the (i, j) plane as

    [[cos(theta),              -exp(+i*phi) sin(theta)],
     [exp(-i*phi) sin(theta),   cos(theta)            ]].

Pairs (i, j), i < j, are ordered lexicographically; the product is applied
right to left (the last pair acts on a vector first).  Parameter counts are
N(N+1)/2 phases (N diagonal + one per pair) and N(N-1)/2 angles, N**2 real
numbers in total.  All parameters live on the real line; the chart is smooth
and periodic, and ``realize`` of the all-zero vector is exactly the identity.

Packed vector layout (used by the optimizer and finite differences):
``[diagonal phases | pair phases (lex) | angles (lex)]``.

Gradients go through the chart's pullback (``realize_vjp``): for any N x N
matrix A it returns g[p] = Re tr(A dU/dx_p) for every packed coordinate, the
chain-rule step from a derivative with respect to U to one with respect to the
chart.  Write F_q for the q-th Givens factor (K = N(N-1)/2 of them) and
S_q = F_q F_{q+1} ... F_{K-1}, so U = D S_0.  Then

    dU/dphi_d   = i E_dd U                      ->  g = Re(i (U A)_dd),
    dU/dx (F_q) = D S_0 S_q^dag (dF_q) S_{q+1}  ->  g = Re tr(dF_q C_q),

with C_q = S_{q+1} (A U) S_q^dag.  Only the (i, j) block of C_q enters, and
it is Y_q (A U) Y_q^dag f_q^dag, where Y_q holds rows i and j of S_{q+1} and
f_q is the 2 x 2 block of F_q.  Those rows are exactly what ``realize``
overwrites when it applies F_q (it builds U right to left), so it records
them as it goes.  The pullback is then a few whole-array products (O(N^4)
flops, but no Python loop over the K factors) and never forms a dU/dx_p.
This is the forward/backward propagator trick of GRAPE (Khaneja et al.,
J. Magn. Reson. 172, 296 (2005)) applied to the Givens chart.
``realize_with_partials`` builds every dU/dx_p explicitly and is kept as
the test oracle for the pullback.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "UnitaryParams",
    "num_phases",
    "num_angles",
    "plane_pairs",
    "zero_params",
    "random_params",
    "realize",
    "realize_vjp",
    "realize_with_partials",
    "pack",
    "unpack",
]


def num_phases(dim: int) -> int:
    return dim * (dim + 1) // 2


def num_angles(dim: int) -> int:
    return dim * (dim - 1) // 2


@lru_cache(maxsize=None)
def plane_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """All index pairs (i, j) with i < j in lexicographic order."""
    return tuple((i, j) for i in range(dim) for j in range(i + 1, dim))


@dataclass(frozen=True)
class UnitaryParams:
    """Chart coordinates of one unitary.

    phases: length dim*(dim+1)//2, the dim diagonal phases followed by one
        phase per plane pair in lexicographic order.
    angles: length dim*(dim-1)//2, one mixing angle per pair, same order.
    """

    dim: int
    phases: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        phases = np.asarray(self.phases, dtype=np.float64)
        angles = np.asarray(self.angles, dtype=np.float64)
        if phases.shape != (num_phases(self.dim),):
            raise ValidationError(
                f"expected {num_phases(self.dim)} phases for dim={self.dim}, "
                f"got shape {phases.shape}"
            )
        if angles.shape != (num_angles(self.dim),):
            raise ValidationError(
                f"expected {num_angles(self.dim)} angles for dim={self.dim}, "
                f"got shape {angles.shape}"
            )
        if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(angles))):
            raise ValidationError("parameters must be finite")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "angles", angles)


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


def random_params(
    dim: int,
    angle_norm: float,
    phase_norm: float = 0.0,
    seed=None,
) -> UnitaryParams:
    """Draw parameters with Euclidean norms pinned exactly.

    The angle (and phase) vector points in a uniformly random direction and is
    rescaled so its 2-norm equals ``angle_norm`` (``phase_norm``) to machine
    precision.  ``angle_norm=0`` gives the identity chart point.
    """
    if angle_norm < 0 or phase_norm < 0:
        raise ValidationError("norms must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def sphere(n: int, radius: float) -> np.ndarray:
        if n == 0 or radius == 0.0:
            return np.zeros(n)
        v = rng.standard_normal(n)
        return v * (radius / np.linalg.norm(v))

    return UnitaryParams(dim, sphere(num_phases(dim), phase_norm), sphere(num_angles(dim), angle_norm))


@lru_cache(maxsize=None)
def _antidiagonals(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """The Givens factors grouped into layers of disjoint pairs.

    Factors that share an index are applied in lexicographically descending
    order, and along any such chain i + j strictly decreases, so applying the
    anti-diagonals i + j = 2N-3, ..., 1 one after another, each as a single
    vectorized step, gives the same product.  Returns (order, i, j, edges):
    the factor indices sorted by layer, their row pairs, and the layer
    boundaries in that order.
    """
    pairs = plane_pairs(dim)
    order = np.array(
        sorted(range(len(pairs)), key=lambda q: -(pairs[q][0] + pairs[q][1])), dtype=np.intp
    )
    ii = np.array([pairs[q][0] for q in order], dtype=np.intp)
    jj = np.array([pairs[q][1] for q in order], dtype=np.intp)
    edges = (0, *(np.flatnonzero(np.diff(ii + jj)) + 1).tolist(), len(pairs))
    for shared in (order, ii, jj):  # cached: every caller gets the same arrays
        shared.flags.writeable = False
    return order, ii, jj, edges


def realize(params: UnitaryParams, tape: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the chart: return the N x N unitary for these coordinates.

    realize(zero_params(N)) is exactly the identity (entries 0 and 1, no
    rounding); in general ||U^dag U - I||_F stays at the 1e-14 level.  If a
    ``tape`` of shape (K, 2, N) is given, tape[q] receives rows (i, j) of the
    partial product just before factor q = (i, j) is applied to it, which is
    what ``realize_vjp`` needs; the returned unitary is the same either way.
    """
    n = params.dim
    u = np.eye(n, dtype=np.complex128)
    if n > 1:
        # Right to left: the lexicographically last factor is applied first,
        # one anti-diagonal layer of disjoint row pairs at a time.
        order, ii, jj, edges = _antidiagonals(n)
        th = params.angles[order]
        c, s = np.cos(th)[:, None], np.sin(th)[:, None]
        e = np.exp(1j * params.phases[n:][order])[:, None]
        es, ecs = e * s, np.conj(e) * s
        for lo, hi in zip(edges[:-1], edges[1:]):
            i, j = ii[lo:hi], jj[lo:hi]
            ri, rj = u[i], u[j]
            if tape is not None:
                tape[order[lo:hi], 0] = ri
                tape[order[lo:hi], 1] = rj
            u[i] = c[lo:hi] * ri - es[lo:hi] * rj
            u[j] = ecs[lo:hi] * ri + c[lo:hi] * rj
    diag_phases = params.phases[:n]
    if np.any(diag_phases != 0.0):
        u = np.exp(1j * diag_phases)[:, None] * u
    return u


def realize_vjp(
    params: UnitaryParams,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Realize the chart once and return (U, pullback).

    ``pullback(a)`` maps an N x N matrix A to the packed vector
    g[p] = Re tr(A dU/dx_p) (see the module docstring), so a caller can build
    A from U and then take the gradient without realizing U again.  U is
    bit-for-bit ``realize(params)``.
    """
    n = params.dim
    k = num_angles(n)
    tape = np.empty((k, 2, n), dtype=np.complex128)
    u = realize(params, tape)

    def pullback(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (n, n):
            raise ValidationError(f"pullback needs a {n}x{n} matrix, got shape {a.shape}")
        out = np.empty(n * n)
        out[:n] = -np.einsum("dv,vd->d", u, a).imag  # Re(i (U A)_dd)
        # z[q] = Y_q (A U) Y_q^dag, so g = Re tr(f_q^dag df_q z[q]); for the
        # angle f_q^dag df_q is [[0, -e], [conj(e), 0]].
        z = np.einsum(
            "qan,qbn->qab", (tape.reshape(2 * k, n) @ (a @ u)).reshape(k, 2, n), tape.conj()
        )
        c, s = np.cos(params.angles), np.sin(params.angles)
        e = np.exp(1j * params.phases[n:])
        z_ij, z_ji = e.conj() * z[:, 0, 1], e * z[:, 1, 0]
        out[n : n + k] = s * s * (z[:, 0, 0] - z[:, 1, 1]).imag + s * c * (z_ji + z_ij).imag
        out[n + k :] = (z_ij - z_ji).real
        return out

    return u, pullback


def _factor_matrices(params: UnitaryParams) -> list[np.ndarray]:
    n = params.dim
    pair_phases = params.phases[n:]
    mats = [np.diag(np.exp(1j * params.phases[:n]))]
    for idx, (i, j) in enumerate(plane_pairs(n)):
        th, ph = params.angles[idx], pair_phases[idx]
        g = np.eye(n, dtype=np.complex128)
        c, s = np.cos(th), np.sin(th)
        e = np.exp(1j * ph)
        g[i, i] = c
        g[i, j] = -e * s
        g[j, i] = np.conj(e) * s
        g[j, j] = c
        mats.append(g)
    return mats


def realize_with_partials(params: UnitaryParams) -> tuple[np.ndarray, np.ndarray]:
    """Return (U, dU) with dU[k] = dU/dx_k in packed-vector order.

    Test oracle for ``realize_vjp``: the partials are exact per-factor
    derivatives assembled from dense prefix/suffix products of the chart
    factors, an (N^2, N, N) tensor the search itself never builds.
    """
    n = params.dim
    pairs = plane_pairs(n)
    k = len(pairs)
    factors = _factor_matrices(params)
    m = len(factors)

    prefix = [np.eye(n, dtype=np.complex128)]
    for f in factors[:-1]:
        prefix.append(prefix[-1] @ f)
    suffix = [np.eye(n, dtype=np.complex128)] * m
    acc = np.eye(n, dtype=np.complex128)
    for idx in range(m - 1, -1, -1):
        suffix[idx] = acc
        acc = factors[idx] @ acc
    u = acc  # full product

    pair_phases = params.phases[n:]
    out = np.zeros((n * n, n, n), dtype=np.complex128)

    # Diagonal phases: dU/dphi_d = i * E_dd * U (D is the leftmost factor).
    for d in range(n):
        out[d, d, :] = 1j * u[d, :]

    # Packed layout: [diag phases | pair phases | angles].
    for idx, (i, j) in enumerate(pairs):
        th, ph = params.angles[idx], pair_phases[idx]
        c, s = np.cos(th), np.sin(th)
        e = np.exp(1j * ph)
        left = prefix[idx + 1][:, (i, j)]
        right = suffix[idx + 1][(i, j), :]
        d_ph = np.array([[0.0, -1j * e * s], [-1j * np.conj(e) * s, 0.0]])
        d_th = np.array([[-s, -e * c], [np.conj(e) * c, -s]])
        out[n + idx] = left @ d_ph @ right
        out[n + k + idx] = left @ d_th @ right
    return u, out
