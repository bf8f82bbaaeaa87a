"""Exact time evolution and worst-case fidelity of encoded states.

The channel over [0, t] is exp(L t), for the model's row-major vectorized
Liouvillian L (``noise.liouvillian``).  Every model built here has
Hermitian Lindblad operators, so L is Hermitian and
L = Q diag(lam) Q^dag comes from one eigendecomposition per model
(``LindbladModel.spectrum``).  A model whose Liouvillian is not Hermitian
(amplitude damping, say) is refused at any time t > 0.

Fidelity of an encoding with encoded rows V (dims (n1, n2)) for a logical
pure state psi:

    f(psi) = <psi| Tr_H2[V Lambda(V^dag (|psi><psi| (x) I/n2) V) V^dag] |psi>,

with Lambda the evolved channel.  The projected partial trace is not
renormalized, so population that leaks out of the encoded block counts as
infidelity.  f is a quadratic form in |psi><psi| through the logical map
G = P Sup P^dag / n2, where P traces H2 out of the decoded output
(``_traced``).  From the spectrum, G(t) = A diag(exp(lam t)) A^dag / n2
with A = P Q: a sweep forms A once per encoding, and each time then costs
an (n1^2 x N^2)(N^2 x n1^2) product, with no N^2 x N^2 superoperator
(``_logical_maps``).  ``worst_case_fidelity`` minimizes f over pure states
for every encoding and time of a model in one pass: exactly for a qubit (a
quadratic on the Bloch sphere), for the whole stack of maps at once, and by
multi-start BFGS descent for larger logical dimensions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import as_isometry, dagger
from .noise import LindbladModel, lindblad_to_kraus
from .parametrization import UnitaryParams, pack_complex, polar, realize, tangent
from .search import SearchConfig, _lockstep, find_mns

__all__ = [
    "FidelityPoint",
    "evolve",
    "worst_case_fidelity",
    "fidelity_sweep",
]


def evolve(model: LindbladModel, t_f: float) -> np.ndarray:
    """Superoperator exp(L t_f) of the exact channel over a finite time
    t_f >= 0, acting on row-major vectorized N x N density matrices (an
    N^2 x N^2 matrix).  It comes from the model's cached eigendecomposition,
    and is the identity itself at t_f = 0."""
    _check_time(t_f)
    if t_f == 0.0:
        return np.eye(model.dim**2, dtype=np.complex128)
    lam, q = model.spectrum
    return (q * np.exp(lam * t_f)) @ dagger(q)


def _traced(v: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Tr_out(a) for a = V (x) conj(V): the n1^2 x N^2 matrix that takes a
    row-major vectorized N x N operator X to the vectorized Tr_H2[V X V^dag].
    Its conjugate transpose is Tr_in(a^dag), which takes vec(rho1) to
    vec(V^dag (rho1 (x) I) V)."""
    w = v.reshape(n1, n2, -1)
    return np.einsum("iax,jay->ijxy", w, w.conj()).reshape(n1 * n1, -1)


def _check_time(t: float) -> None:
    if not (np.isfinite(t) and t >= 0):
        raise ValidationError(f"t_f must be finite and >= 0, got {t}")


def _logical_maps(model: LindbladModel, times, isometries, n1: int, n2: int) -> np.ndarray:
    """Logical map G of exp(L t) for each isometry (first axis) and each
    time (second axis).  For a Hermitian L = Q diag(lam) Q^dag it is
    A diag(exp(lam t)) A^dag / n2 with A = Tr_out(a) Q, formed once per
    isometry.  At t = 0 the channel is the identity itself, as in ``evolve``,
    and the map is Tr_out(a) Tr_in(a^dag) / n2."""
    for t in times:
        _check_time(t)
    lam, q = model.spectrum
    times = np.asarray(times, dtype=float)
    growth = np.exp(np.multiply.outer(times, lam))[:, None, :]
    maps = []
    for v in isometries:
        p = _traced(v, n1, n2)
        a = p @ q
        g = (a * growth) @ dagger(a) / n2
        g[times == 0.0] = p @ dagger(p) / n2
        maps.append(g)
    return np.array(maps)


# Columns vec(sigma_mu)/2 for sigma = (I, X, Y, Z): vec((I + r.sigma)/2) = _BLOCH @ (1, r).
_BLOCH = 0.5 * np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]]).T


def _sphere_minimum(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unit r minimizing b.r + r^T c r, for each row of a (K, 3) stack b and
    symmetric 3x3 matrix of a (K, 3, 3) stack c: the trust-region boundary
    problem (More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983)).
    With c = V diag(lam) V^T and beta = V^T b, r = V y where
    y_i = -beta_i / (2 (lam_i - mu)) and mu < lam_0 is the root of |y| = 1, or
    mu = lam_0 in the hard case (beta_0 = 0 and |y(lam_0)| <= 1).  y_0 comes
    from |y| = 1, which stays accurate where mu sits next to lam_0.  One
    stacked ``eigh`` serves the stack; each root is found on Python floats
    (``_boundary_y``)."""
    lam, v = np.linalg.eigh(c)
    beta = np.einsum("kji,kj->ki", v, b)
    ys = [_boundary_y(*args) for args in zip(lam.tolist(), beta.tolist())]
    r = np.einsum("kij,kj->ki", v, ys)
    return r / np.linalg.norm(r, axis=1, keepdims=True)


def _boundary_y(lam: list[float], beta: list[float]) -> list[float]:
    """y = V^T r of ``_sphere_minimum`` for one problem.  The root of
    |y(mu)| = 1 comes from Newton's method on 1/|y| = 1 (More & Sorensen;
    Nocedal & Wright, 2nd ed., Alg. 4.3).  Left of the first pole (the least
    lam_i with beta_i != 0), 1/|y| is concave and decreasing in mu, so from
    a start where |y| >= 1 each step lowers mu and none passes the root; the
    iteration ends when a step no longer lowers mu.  It starts where one
    |y_i| is 1 and none exceeds it: the least lam_i - |beta_i|/2, taken below
    lam_i where |beta_i| is too small to move it."""
    terms = [(lam_i, beta_i) for lam_i, beta_i in zip(lam, beta) if beta_i != 0.0]

    def moments(mu: float) -> tuple[float, float]:  # |y|^2 and d|y|^2/dmu / 2
        squares = slope = 0.0
        for lam_i, beta_i in terms:
            y_i = beta_i / (2.0 * (lam_i - mu))
            squares += y_i * y_i  # overflows to inf, where ** would raise
            slope += y_i * y_i / (lam_i - mu)
        return squares, slope

    mu = lam[0]
    if terms and (terms[0][0] == mu or moments(mu)[0] > 1.0):  # not the hard case
        mu = min(
            min(lam_i - abs(beta_i) / 2.0, math.nextafter(lam_i, -math.inf)) for lam_i, beta_i in terms
        )
        while True:
            squares, slope = moments(mu)
            step = mu - (math.sqrt(squares) - 1.0) * squares / slope
            if not step < mu:
                break
            mu = step
    rest = [
        0.0 if beta_i == 0.0 else -beta_i / (2.0 * (lam_i - mu))
        for lam_i, beta_i in zip(lam[1:], beta[1:])
    ]
    y0 = math.sqrt(max(0.0, 1.0 - (rest[0] * rest[0] + rest[1] * rest[1])))
    return [-math.copysign(y0, beta[0]), *rest]


def _descent_minimum(gmat: np.ndarray, n1: int) -> float:
    """Least f(z/|z|) reached by BFGS over (Re z, Im z) from every basis state
    and every equal-weight pair of basis states with relative phase 1 or i,
    the starts run as lanes of one ``_lockstep`` descent.
    f = v^H S v / 2 with v = vec(z z^dag) and S = G + G^H; at a unit z its
    gradient is 2 K z with K = unvec(S v), and the normalization z/|z| is the
    m = 1 case of ``polar``: ``fg`` returns it as each point's retraction,
    with the tangent projection of 2 K z there, so the lanes move on the
    unit sphere as the search's move on the isometries.  BFGS stops on
    saddles, and the starts are saddles of every map that commutes with
    diagonal phases, so the best point leaves along negative curvature until
    there is none or it lowers f no further."""
    s = gmat + dagger(gmat)

    def fg(xs: np.ndarray) -> tuple[np.ndarray, ...]:
        v = polar(xs, 1)
        z = v[:, 0, :, None]  # (R, n1, 1)
        zz = (z * dagger(z)).reshape(-1, n1 * n1, 1)
        kz = (s @ zz).reshape(-1, n1, n1) @ z
        f = 0.5 * (dagger(z) @ kz)[:, 0, 0].real
        return f, tangent(v, 2.0 * kz.swapaxes(1, 2)), pack_complex(v), np.abs(f)

    def descend(starts) -> list[tuple[float, np.ndarray]]:
        runs = _lockstep(fg, starts, 200, 1e-12, 0.0)
        return [(run.trace[-1], run.x / np.linalg.norm(run.x)) for run in runs]

    eye = np.eye(2 * n1)  # eye[a] is |a>, eye[n1 + a] is i|a>
    pairs = [eye[a] + eye[b + k] for a in range(n1) for b in range(a + 1, n1) for k in (0, n1)]
    best, x = min(descend([*eye[:n1], *pairs]), key=lambda found: found[0])
    while True:
        hess = (fg(x + 1e-5 * eye)[1] - fg(x - 1e-5 * eye)[1]) / 2e-5
        lam, vec = np.linalg.eigh(hess)
        if not (lam[0] < -1e-6 and (found := descend([x + 0.1 * vec[:, 0]])[0])[0] < best):
            return float(best)
        best, x = found


def _minima(maps: np.ndarray, n1: int) -> np.ndarray:
    """Least f(psi) over pure logical states for each logical map of an
    (K, n1^2, n1^2) stack.  For a qubit f is a quadratic a + b.r + r^T C r in
    the Bloch vector: one Bloch-form product and one stacked
    ``_sphere_minimum`` serve the whole stack.  Larger logical dimensions take
    the multi-start descent of ``_descent_minimum``, map by map."""
    if n1 != 2:
        return np.array([_descent_minimum(gmat, n1) for gmat in maps])
    q = np.real(dagger(_BLOCH) @ maps @ _BLOCH)
    b = q[:, 0, 1:] + q[:, 1:, 0]
    c = 0.5 * (q[:, 1:, 1:] + q[:, 1:, 1:].swapaxes(1, 2))
    r = _sphere_minimum(b, c)
    return q[:, 0, 0] + np.einsum("ki,ki->k", b, r) + np.einsum("ki,kij,kj->k", r, c, r)


def worst_case_fidelity(model: LindbladModel, times, isometries, dims: tuple[int, int]) -> np.ndarray:
    """Least f(psi) over pure logical states for each encoding with rows V
    (``as_isometry``; rows of the result) under the model's evolution to each
    time (columns): the maps come from ``_logical_maps`` and their minima
    from one ``_minima`` call, exact for a qubit."""
    n1, n2 = dims
    rows = [as_isometry(v, n1, n2, model.dim) for v in isometries]
    maps = _logical_maps(model, times, rows, n1, n2)
    return _minima(maps.reshape(-1, n1 * n1, n1 * n1), n1).reshape(len(rows), len(times))


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
    v_dfs: np.ndarray,
    dims: tuple[int, int],
    config: SearchConfig,
    t_f: float = 1.0,
) -> list[FidelityPoint]:
    """Worst-case fidelity of searched vs reference encodings over a grid.

    ``model_for(value)`` builds the Lindblad model for one grid value.  In
    mode "delta" the model (and the searched encoding) changes per point and
    evolution time is fixed at ``t_f``; in mode "tf" the model is fixed (the
    factory is called once, with ``None`` -- pass a closure over the fixed
    perturbation), the search runs once, and the grid values are evolution
    times.  Channels use the step ``config.dt``.  Each model's two encodings,
    the rows ``v_dfs`` and the first n1*n2 rows of ``realize(best_params)``
    (which the sweep's files replay), are scored at all of its times in one
    ``worst_case_fidelity`` call.  In mode "delta" a point that raises is
    flagged (NaN row, ``error`` set, logged to the "mns" logger), not raised.
    """
    if mode not in ("delta", "tf"):
        raise ValidationError(f"sweep mode must be 'delta' or 'tf', got {mode!r}")
    grid = [float(v) for v in grid]
    if not grid:
        raise ValidationError("sweep grid is empty")
    for t in grid if mode == "tf" else [t_f]:
        _check_time(t)
    v_dfs = as_isometry(v_dfs, *dims, np.atleast_2d(v_dfs).shape[1])
    points: list[FidelityPoint] = []

    def scored(params, model, times) -> list[FidelityPoint]:
        channel = lindblad_to_kraus(model, config.dt)
        result = find_mns(channel, config)[dims]
        ok = result.per_restart[result.best_restart].converged
        v_mns = realize(result.best_params)[: dims[0] * dims[1]]
        fi_mns, fi_dfs = worst_case_fidelity(model, times, (v_mns, v_dfs), dims)
        return [
            FidelityPoint(
                param=param,
                fi_mns=float(mns),
                fi_dfs=float(dfs),
                j_opt=result.best_j,
                converged=ok,
                mns_params=result.best_params,
            )
            for param, mns, dfs in zip(params, fi_mns, fi_dfs)
        ]

    if mode == "tf":
        return scored(grid, model_for(None), grid)

    for value in grid:
        try:
            points += scored([value], model_for(value), [t_f])
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            logging.getLogger("mns").warning("sweep point %r failed: %s", value, error)
            nan = float("nan")
            points.append(FidelityPoint(value, nan, nan, nan, converged=False, error=error))
    return points
