"""Dense complex linear algebra primitives.

All operators in this package are plain ``numpy.ndarray``s of dtype
``complex128``.  This module collects the small set of structural helpers the
rest of the code is built on: tensor (Kronecker) products, commutators,
direct-sum embeddings and random density matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_matrix",
    "dagger",
    "commutator",
    "tensor",
    "direct_sum_embed",
    "random_density_matrix",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a square complex128 matrix, validating shape and finiteness."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor on the slow (row-major) index."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


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


def random_density_matrix(dim: int, seed=None, rank: int | None = None) -> np.ndarray:
    """Random full-rank (by default) density matrix, Wishart-normalized."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
