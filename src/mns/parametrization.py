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
``realize`` takes one chart point or a stack of them (the search realizes
every restart's start in one call); each unitary of a stack is to the bit
the one its point gives alone.

``chart_of`` is the exact inverse of ``realize``: it peels the Givens factors
off a unitary one column at a time, each column's group with one recurrence
on its pivot row; given an encoding's rows V, it charts their completion to
a unitary.

The search does not move through the chart.  J and the protection residuals
depend on U only through its first m rows, an isometry V.  A search step
moves an unconstrained m x N matrix X, which the polar factor
V = (X X^dag)^(-1/2) X retracts onto the isometries (``polar``), and the
gradient at V is the tangent projection of the gradient in V (``tangent``).
``realize_with_partials`` builds every dU/dx_p explicitly, in the order
[diagonal phases | pair phases (lex) | angles (lex)], for the gradient in
chart coordinates, from two stacked ``realize`` calls.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .linalg import dagger

__all__ = [
    "UnitaryParams",
    "num_phases",
    "num_angles",
    "plane_pairs",
    "random_params",
    "realize",
    "chart_of",
    "polar",
    "pack_complex",
    "tangent",
    "realize_with_partials",
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

    def __eq__(self, other) -> bool:
        """Equal dims and equal entries, so that ``==`` answers for the
        dataclasses that hold a UnitaryParams (``SearchResult``)."""
        if not isinstance(other, UnitaryParams):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.phases, other.phases)
            and np.array_equal(self.angles, other.angles)
        )


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
    rng = np.random.default_rng(seed)

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
    order = np.array(sorted(range(len(pairs)), key=lambda q: -sum(pairs[q])), dtype=np.intp)
    ii, jj = np.array(pairs, dtype=np.intp).reshape(-1, 2)[order].T
    edges = (0, *(np.flatnonzero(np.diff(ii + jj)) + 1).tolist(), len(pairs))
    for shared in (order, ii, jj):  # cached: every caller gets the same arrays
        shared.flags.writeable = False
    return order, ii, jj, edges


def realize(params: UnitaryParams | Iterable[UnitaryParams]) -> np.ndarray:
    """Evaluate the chart: return the N x N unitary for these coordinates, or
    for a sequence of L chart points of one dim their (L, N, N) stack, one
    point being a stack of one.

    realize at all-zero coordinates is exactly the identity (entries 0 and 1, no
    rounding); in general ||U^dag U - I||_F stays at the 1e-14 level.  The
    Givens factors act one anti-diagonal layer (``_antidiagonals``) at a time,
    on every point of the stack at once: the stack is held as an (N, L, N)
    array, row r of every U side by side, so each layer gathers whole rows
    of all L unitaries.  The arithmetic per row is that of one factor at a
    time, so each U is the factor-by-factor product to the bit, whatever
    shares its stack.
    """
    stack = (params,) if isinstance(params, UnitaryParams) else tuple(params)
    if not stack or any(p.dim != stack[0].dim for p in stack):
        raise ValidationError("realize needs one or more chart points of one dim")
    n, lanes = stack[0].dim, len(stack)
    phases = np.array([p.phases for p in stack])
    order, ii, jj, edges = _antidiagonals(n)
    th = np.array([p.angles for p in stack])[:, order]
    c, s = np.cos(th).T, np.sin(th).T  # (K, L) in layer order
    e = np.exp(1j * phases[:, n:][:, order]).T
    es, ecs = e * s, np.conj(e) * s
    # each point's coefficient repeated over its N columns of a row
    c, es, ecs = (np.repeat(a, n, axis=1) for a in (c, es, ecs))
    u = np.repeat(np.eye(n, dtype=np.complex128)[:, None], lanes, axis=1).reshape(n, lanes * n)
    # Right to left: the anti-diagonal of the lexicographically last factor first.
    for lo, hi in zip(edges[:-1], edges[1:]):
        i, j = ii[lo:hi], jj[lo:hi]
        ri, rj = u[i], u[j]
        u[i] = c[lo:hi] * ri - es[lo:hi] * rj
        u[j] = ecs[lo:hi] * ri + c[lo:hi] * rj
    u = u.reshape(n, lanes, n).swapaxes(0, 1)
    out = np.multiply(np.exp(1j * phases[:, :n])[..., None], u, order="C")
    return out[0] if isinstance(params, UnitaryParams) else out


def chart_of(u: np.ndarray) -> UnitaryParams:
    """Chart coordinates of a unitary: the inverse of ``realize``.  Given the
    m <= N orthonormal rows V of an encoding, it charts their completion by
    complete-mode QR of V^dag (V itself when m = N), so
    realize(chart_of(v))[:m] is V.

    D G(theta, phi) D^dag is the Givens factor G(theta, phi + d_i - d_j), so
    U = W' D, with W' the chart product at shifted pair phases.  Column i of
    the remaining product is exp(i d_i) times the first column of the group
    G_(i,i+1) ... G_(i,N-1): the pivot's phase is d_i, each angle is
    atan2(|c_j|, ||c_{<j}||) and each shifted phase is -arg c_j.  The group is
    peeled off before the next column is read, and the shifts are undone at
    the end.  realize(chart_of(u)) reproduces u to rounding.

    Peeling G_(i,j)^dag, leftmost first, changes row j once, from row j and
    the pivot row i as the factors before it left it, and changes the pivot
    row.  So one recurrence gives the pivot row before each factor, and one
    stacked update moves every row below it, with the arithmetic of one
    factor at a time.  Only columns right of i are updated: no later column
    reads the others.
    """
    w = np.array(u, dtype=np.complex128)
    if w.ndim != 2 or not 1 <= len(w) <= w.shape[1]:
        raise ValidationError(f"expected m x N rows with 1 <= m <= N, got shape {w.shape}")
    m, n = w.shape
    basis = np.linalg.qr(dagger(w), mode="complete")[0]  # completes V by its span's complement
    w = np.vstack([w, dagger(basis[:, m:])])
    pairs = plane_pairs(n)
    diag, angles, shifted = np.zeros(n), np.zeros(len(pairs)), np.zeros(len(pairs))
    q = 0
    for i in range(n):
        diag[i] = np.angle(w[i, i])
        if i == n - 1:
            break
        col = w[i:, i] * np.exp(-1j * diag[i])
        group = slice(q, q + n - 1 - i)
        angles[group] = np.arctan2(np.abs(col[1:]), np.sqrt(np.cumsum(np.abs(col[:-1]) ** 2)))
        shifted[group] = -np.angle(col[1:])
        # w <- G^dag w = G(-theta) w, so s is sin(-theta)
        c, s, e = np.cos(angles[group]), -np.sin(angles[group]), np.exp(1j * shifted[group])
        es, ecs = e * s, np.conj(e) * s
        below = w[i + 1 :, i + 1 :]
        pivots = np.empty_like(below)
        pivots[0] = w[i, i + 1 :]
        for t in range(len(below) - 1):
            pivots[t + 1] = c[t] * pivots[t] - es[t] * below[t]
        below[...] = ecs[:, None] * pivots + c[:, None] * below
        q += n - 1 - i
    ii, jj = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return UnitaryParams(n, np.concatenate([diag, shifted + diag[jj] - diag[ii]]), angles)


def polar(x: np.ndarray, m: int) -> np.ndarray:
    """The isometry V = (X X^dag)^(-1/2) X of the m x N matrix X packed as
    x = [Re X | Im X] (row-major); for x of shape (..., 2mN) one V of shape
    (..., m, N) per leading index, a single x being a stack of one.  Each
    point's V is the same to the bit whatever shares its stack.  It is the
    retraction of a step X onto the isometries; the gradient that goes with
    it is ``tangent``'s at V."""
    half = x.shape[-1] // 2
    xm = (x[..., :half] + 1j * x[..., half:]).reshape(*x.shape[:-1], m, -1)
    lam, q = np.linalg.eigh(xm @ dagger(xm))
    return ((q / np.sqrt(lam)[..., None, :]) @ dagger(q)) @ xm


def pack_complex(v: np.ndarray) -> np.ndarray:
    """The packing x = [Re V | Im V] (row-major) that ``polar`` reads, for V
    of shape (..., m, N)."""
    flat = v.reshape(*v.shape[:-2], -1)
    return np.concatenate([flat.real, flat.imag], axis=-1)


def tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """G - (G V^dag + V G^dag) V / 2, packed: the projection of the gradient
    G of f(V) onto the tangent space of the isometries at V, which is the
    gradient of f(``polar``(x)) at x = ``pack_complex``(V) (Absil, Mahony &
    Sepulchre 2008, sec. 3.6).  V G^dag is (G V^dag)^dag, so one m x m
    product serves both."""
    a = g @ dagger(v)
    return pack_complex(g - (0.5 * (a + dagger(a))) @ v)


def realize_with_partials(params: UnitaryParams) -> tuple[np.ndarray, np.ndarray]:
    """Return (U, dU) with dU[k] = dU/dx_k, x = [phases | angles].

    The partials are exact per-factor derivatives between the prefixes
    D F_0 ... F_{q-1} and the suffixes F_{q+1} ... F_{K-1} of the chart
    factors, an (N^2, N, N) tensor the search itself never builds.  Each set
    is one stacked ``realize`` at the chart point with the other angles 0
    (and D = I for the suffixes): a factor at angle 0 is the identity to the
    bit, so U, the last prefix, is ``realize(params)`` to the bit.
    """
    n = params.dim
    pairs = plane_pairs(n)
    k = len(pairs)
    below = np.tri(k + 1, k, -1, dtype=bool)  # row q: the angles before q
    prefix = realize(UnitaryParams(n, params.phases, np.where(r, params.angles, 0.0)) for r in below)
    phases = np.concatenate([np.zeros(n), params.phases[n:]])  # D = I
    # row q + 1 gives suffix q; row 0 keeps the stack non-empty at dim 1
    suffix = realize(UnitaryParams(n, phases, np.where(r, 0.0, params.angles)) for r in below)[1:]
    u = prefix[k]
    out = np.empty((n * n, n, n), dtype=np.complex128)
    out[:n] = 1j * np.eye(n)[:, :, None] * u  # dU/dphi_d = i E_dd U
    for q, (i, j) in enumerate(pairs):
        c, s = np.cos(params.angles[q]), np.sin(params.angles[q])
        e = np.exp(1j * params.phases[n + q])
        left, right = prefix[q][:, (i, j)], suffix[q][(i, j), :]
        d_ph = np.array([[0.0, -1j * e * s], [-1j * np.conj(e) * s, 0.0]])
        d_th = np.array([[-s, -e * c], [np.conj(e) * c, -s]])
        out[n + q] = left @ d_ph @ right
        out[n + k + q] = left @ d_th @ right
    return u, out
