"""Dense complex linear algebra primitives.

All operators in this package are plain ``numpy.ndarray``s of dtype
``complex128``.  This module collects the small set of structural helpers the
rest of the code is built on: conjugate transposes, tensor (Kronecker)
products, and the one check of an encoding (``as_isometry``).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_matrix",
    "as_isometry",
    "dagger",
    "tensor",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a square complex128 matrix, validating shape and finiteness."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def as_isometry(v, n1: int, n2: int, dim: int) -> np.ndarray:
    """Coerce ``v`` to the encoded rows V of an (n1, n2) encoding in dimension
    ``dim``: a C-contiguous complex128 (n1*n2) x dim matrix with
    ||V V^dag - I||_F <= 1e-10.  Every function that takes an encoding
    checks it here."""
    if n1 < 1 or n2 < 1:
        raise ValidationError(f"encoded dimensions ({n1},{n2}) must be >= 1")
    m = n1 * n2
    a = np.ascontiguousarray(v, dtype=np.complex128)
    if a.shape != (m, dim):
        raise ValidationError(f"dims ({n1},{n2}) need encoded rows of shape {(m, dim)}, got {a.shape}")
    if not np.linalg.norm(a @ dagger(a) - np.eye(m)) <= 1e-10:
        raise ValidationError("encoded rows are not orthonormal to 1e-10")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor on the slow (row-major) index,
    or one per matrix of a stack a of shape (..., p, q).  It forms the products
    a[i, j] * b[k, l] that ``np.kron`` forms, in complex128, so it is
    ``np.kron`` to the bit, signed zeros included, without its wrapper."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    out = a[..., :, None, :, None] * b[:, None, :]
    return out.reshape(*a.shape[:-2], a.shape[-2] * b.shape[0], a.shape[-1] * b.shape[1])
