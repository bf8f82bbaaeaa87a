"""Exact time evolution and worst-case fidelity of encoded states.

Evolution uses the vectorized Liouvillian.  With row-major vectorization
(vec(rho) = rho.reshape(-1), so vec(A rho B) = (A (x) B^T) vec(rho)) the
generator of d(rho)/dt = sum_i gamma_i D[V_i] rho is

    L = sum_i gamma_i ( V_i (x) conj(V_i)
                        - 1/2 (V_i^dag V_i) (x) I
                        - 1/2 I (x) (V_i^dag V_i)^T ),

and the channel over [0, t_f] is expm(L * t_f) (scaling-and-squaring).

Fidelity of an encoding U with dims (n1, n2) for a logical pure state psi:

    f(psi) = <psi| decode(evolve(encode(|psi><psi|))) |psi>,

where decode keeps the raw (unrenormalized) projected partial trace, so
population that leaks out of the encoded block counts as infidelity.  The
worst case minimizes f over pure states by a dense chart grid followed by
Nelder-Mead refinement.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .errors import ValidationError
from .linalg import dagger, partial_trace_2, tensor
from .noise import LindbladModel, default_dt, lindblad_to_kraus
from .parametrization import UnitaryParams, realize
from .search import SearchConfig, find_mns

__all__ = [
    "EvolvedChannel",
    "FidelityPoint",
    "liouvillian",
    "evolve",
    "choi_matrix",
    "encode",
    "decode",
    "worst_case_fidelity",
    "fidelity_sweep",
]


@dataclass(frozen=True)
class EvolvedChannel:
    """expm(L t_f) acting on row-major vectorized density matrices."""

    dim: int
    t_f: float
    superoperator: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (self.dim, self.dim):
            raise ValidationError(f"state shape {rho.shape} does not match dim {self.dim}")
        return (self.superoperator @ rho.reshape(-1)).reshape(self.dim, self.dim)


def liouvillian(model: LindbladModel) -> np.ndarray:
    dim = model.dim
    eye = np.eye(dim, dtype=np.complex128)
    ll = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for rate, op in model.terms:
        if rate == 0.0:
            continue
        vv = dagger(op) @ op
        ll += rate * (tensor(op, op.conj()) - 0.5 * tensor(vv, eye) - 0.5 * tensor(eye, vv.T))
    return ll


def evolve(model: LindbladModel, t_f: float) -> EvolvedChannel:
    """Exact channel for evolution time t_f >= 0."""
    if t_f < 0:
        raise ValidationError(f"t_f must be >= 0, got {t_f}")
    dim = model.dim
    if t_f == 0.0:
        sup = np.eye(dim * dim, dtype=np.complex128)
    else:
        sup = expm(liouvillian(model) * t_f)
    return EvolvedChannel(dim=dim, t_f=float(t_f), superoperator=sup)


def choi_matrix(superoperator: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator in the row-major convention."""
    n2 = superoperator.shape[0]
    n = int(round(np.sqrt(n2)))
    if n * n != n2 or superoperator.shape != (n2, n2):
        raise ValidationError(f"superoperator shape {superoperator.shape} is not (n^2, n^2)")
    return superoperator.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n2, n2)


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


def _logical_map(u: np.ndarray, dims: tuple[int, int], evolved: EvolvedChannel) -> np.ndarray:
    """Matrix of rho1 -> decode(evolve(encode(rho1))) on vectorized H1 operators."""
    n1, n2 = dims
    out = np.zeros((n1 * n1, n1 * n1), dtype=np.complex128)
    for a in range(n1):
        for b in range(n1):
            unit = np.zeros((n1, n1), dtype=np.complex128)
            unit[a, b] = 1.0
            evolved_state = evolved.apply(_encode_raw(unit, u, n1, n2))
            decoded, _ = decode(evolved_state, u, dims, renormalize=False)
            out[:, a * n1 + b] = decoded.reshape(-1)
    return out


def _qubit_grid(n_theta: int = 64, n_phi: int = 128) -> np.ndarray:
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return np.stack([tt.reshape(-1), pp.reshape(-1)], axis=1)


def _qubit_state(chart: np.ndarray) -> np.ndarray:
    theta, phi = chart[..., 0], chart[..., 1]
    return np.stack(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1
    )


def _qutrit_grid(n: int = 8) -> np.ndarray:
    a = np.linspace(0.0, np.pi / 2.0, n)
    b = np.linspace(0.0, np.pi / 2.0, n)
    c = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    d = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    gg = np.meshgrid(a, b, c, d, indexing="ij")
    return np.stack([g.reshape(-1) for g in gg], axis=1)


def _qutrit_state(chart: np.ndarray) -> np.ndarray:
    a, b, c, d = (chart[..., i] for i in range(4))
    return np.stack(
        [
            np.cos(a),
            np.sin(a) * np.cos(b) * np.exp(1j * c),
            np.sin(a) * np.sin(b) * np.exp(1j * d),
        ],
        axis=-1,
    )


def _fidelities(gmat: np.ndarray, states: np.ndarray, n1: int) -> np.ndarray:
    g4 = gmat.reshape(n1, n1, n1, n1)
    return np.real(
        np.einsum("abcd,na,nb,nc,nd->n", g4, states.conj(), states, states, states.conj(), optimize=True)
    )


def worst_case_fidelity(
    u: np.ndarray,
    dims: tuple[int, int],
    evolved: EvolvedChannel,
    refine_starts: int = 3,
) -> float:
    """Minimize f(psi) over pure logical states.

    Qubits use a 64x128 Bloch-sphere grid, qutrits an 8^4 grid over a
    4-real-parameter chart; the best grid points seed Nelder-Mead refinement.
    Other logical dimensions fall back to a seeded random sample plus
    refinement over a generic chart.
    """
    n1, n2 = dims
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (evolved.dim, evolved.dim):
        raise ValidationError(f"unitary shape {u.shape} does not match dim {evolved.dim}")
    if n1 * n2 > evolved.dim:
        raise ValidationError(f"encoded block {n1}x{n2} exceeds dim {evolved.dim}")
    gmat = _logical_map(u, dims, evolved)

    if n1 == 2:
        grid, to_state = _qubit_grid(), _qubit_state
    elif n1 == 3:
        grid, to_state = _qutrit_grid(), _qutrit_state
    else:
        rng = np.random.default_rng(1234)
        raw = rng.standard_normal((20000, 2 * n1))
        vecs = raw[:, :n1] + 1j * raw[:, n1:]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        vals = _fidelities(gmat, vecs, n1)
        return float(vals.min())

    vals = _fidelities(gmat, to_state(grid), n1)
    best = float(vals.min())

    def f_chart(chart: np.ndarray) -> float:
        psi = to_state(np.asarray(chart))
        return float(_fidelities(gmat, psi[None, :], n1)[0])

    for idx in np.argsort(vals)[:refine_starts]:
        res = minimize(
            f_chart,
            grid[idx],
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
        )
        best = min(best, float(res.fun))
    return best


@dataclass(frozen=True)
class FidelityPoint:
    """One sweep point: worst-case fidelities of the searched and the
    reference encodings, plus the search outcome that produced the former.
    A failed point carries NaNs and ``error`` = "Type: message" of the
    exception that stopped it."""

    param: float
    fi_mns: float
    fi_dfs: float
    j_opt: float
    converged: bool
    mns_params: UnitaryParams | None = None
    error: str | None = None


def fidelity_sweep(
    model_for,
    grid,
    mode: str,
    u_dfs: np.ndarray,
    dims: tuple[int, int],
    config: SearchConfig,
    t_f: float = 1.0,
    dt: float | None = None,
) -> list[FidelityPoint]:
    """Worst-case fidelity of searched vs reference encodings over a grid.

    ``model_for(value)`` builds the Lindblad model for one grid value.  In
    mode "delta" the model (and the searched encoding) changes per point and
    evolution time is fixed at ``t_f``; in mode "tf" the model is fixed (the
    factory is called once, with ``None`` -- pass a closure over the fixed
    perturbation), the search runs once, and the grid values are evolution
    times.  In mode "delta" a point that raises is flagged (NaN row,
    ``error`` set, logged to the "mns" logger), not raised.
    """
    if mode not in ("delta", "tf"):
        raise ValidationError(f"sweep mode must be 'delta' or 'tf', got {mode!r}")
    grid = [float(v) for v in grid]
    if not grid:
        raise ValidationError("sweep grid is empty")
    points: list[FidelityPoint] = []

    def search_best(model):
        channel = lindblad_to_kraus(model, dt if dt is not None else default_dt(model))
        result = find_mns(channel, config)[dims]
        ok = result.per_restart[result.best_restart].converged
        return result, ok

    if mode == "tf":
        model = model_for(None)
        result, ok = search_best(model)
        u_mns = realize(result.best_params)
        for t in grid:
            evolved = evolve(model, t)
            points.append(
                FidelityPoint(
                    param=t,
                    fi_mns=worst_case_fidelity(u_mns, dims, evolved),
                    fi_dfs=worst_case_fidelity(u_dfs, dims, evolved),
                    j_opt=result.best_j,
                    converged=ok,
                    mns_params=result.best_params,
                )
            )
        return points

    for value in grid:
        try:
            model = model_for(value)
            result, ok = search_best(model)
            u_mns = realize(result.best_params)
            evolved = evolve(model, t_f)
            points.append(
                FidelityPoint(
                    param=value,
                    fi_mns=worst_case_fidelity(u_mns, dims, evolved),
                    fi_dfs=worst_case_fidelity(u_dfs, dims, evolved),
                    j_opt=result.best_j,
                    converged=ok,
                    mns_params=result.best_params,
                )
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            logging.getLogger("mns").warning("sweep point %r failed: %s", value, error)
            points.append(
                FidelityPoint(
                    param=value,
                    fi_mns=float("nan"),
                    fi_dfs=float("nan"),
                    j_opt=float("nan"),
                    converged=False,
                    error=error,
                )
            )
    return points
