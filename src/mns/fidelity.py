"""Exact time evolution and worst-case fidelity of encoded states.

The channel over [0, t_f] is exp(L t_f), for the model's row-major
vectorized Liouvillian L (``noise.liouvillian``).  Every model built here
has Hermitian Lindblad operators, so L is Hermitian and
exp(L t_f) = Q diag(exp(lam t_f)) Q^dag comes from one eigendecomposition
per model (``LindbladModel.spectrum``): each time costs one product.  A
non-Hermitian generator (amplitude damping, say) takes SciPy's ``expm``.

Fidelity of an encoding with encoded rows V (dims (n1, n2)) for a logical
pure state psi:

    f(psi) = <psi| Tr_H2[V Lambda(V^dag (|psi><psi| (x) I/n2) V) V^dag] |psi>,

with Lambda the evolved channel.  The projected partial trace is not
renormalized, so population that leaks out of the encoded block counts as
infidelity.  f is a quadratic form in |psi><psi| through the logical map
(``logical_map``).  The worst case minimizes f over pure states: exactly
for a qubit (a quadratic on the Bloch sphere), by multi-start BFGS descent
for larger logical dimensions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import dagger
from .noise import LindbladModel, lindblad_to_kraus, liouvillian
from .parametrization import UnitaryParams, polar, realize
from .search import SearchConfig, _lockstep, find_mns

__all__ = [
    "EvolvedChannel",
    "FidelityPoint",
    "evolve",
    "logical_map",
    "worst_case_fidelity",
    "fidelity_sweep",
]


@dataclass(frozen=True)
class EvolvedChannel:
    """exp(L t_f) acting on row-major vectorized density matrices."""

    dim: int
    t_f: float
    superoperator: np.ndarray


def evolve(model: LindbladModel, t_f: float) -> EvolvedChannel:
    """Exact channel for a finite evolution time t_f >= 0: from the model's
    cached eigendecomposition when its Liouvillian is Hermitian, by
    ``scipy.linalg.expm`` when it is not."""
    if not (np.isfinite(t_f) and t_f >= 0):
        raise ValidationError(f"t_f must be finite and >= 0, got {t_f}")
    dim = model.dim
    if t_f == 0.0:
        sup = np.eye(dim * dim, dtype=np.complex128)
    elif model.spectrum is None:
        from scipy.linalg import expm  # here, not at the top: no bundled model needs it

        sup = expm(liouvillian(model) * t_f)
    else:
        lam, q = model.spectrum
        sup = (q * np.exp(lam * t_f)) @ dagger(q)
    return EvolvedChannel(dim=dim, t_f=float(t_f), superoperator=sup)


def logical_map(superoperator: np.ndarray, v: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Matrix of rho1 -> Tr_H2[V Lambda(V^dag (rho1 (x) I/n2) V) V^dag] on
    row-major vectorized H1 operators, for the superoperator of Lambda and
    the encoded rows V.

    With vec(A rho B) = (A (x) B^T) vec(rho), a = V (x) conj(V) decodes and
    a^dag encodes, so a Sup a^dag is Lambda restricted to the encoded block.
    Tracing H2 out of its output and contracting its input with I/n2 leaves
    the n1^2 x n1^2 logical map.
    """
    a = np.kron(v, v.conj())
    blk = (a @ superoperator @ a.conj().T).reshape((n1, n2) * 4)
    return np.einsum("iajakblb->ijkl", blk).reshape(n1 * n1, n1 * n1) / n2


# Columns vec(sigma_mu)/2 for sigma = (I, X, Y, Z): vec((I + r.sigma)/2) = _BLOCH @ (1, r).
_BLOCH = 0.5 * np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]]).T


def _sphere_minimum(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unit r minimizing b.r + r^T c r for symmetric 3x3 c: the trust-region
    boundary problem (More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553
    (1983)).  With c = V diag(lam) V^T and beta = V^T b, r = V y where
    y_i = -beta_i / (2 (lam_i - mu)) and mu < lam_0 is the root of |y| = 1, or
    mu = lam_0 in the hard case (beta_0 = 0 and |y(lam_0)| <= 1).  y_0 comes
    from |y| = 1, which stays accurate where mu sits next to lam_0."""
    lam, v = np.linalg.eigh(c)
    beta = v.T @ b

    def y(mu: float) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(beta == 0.0, 0.0, -beta / (2.0 * (lam - mu)))

    mu = lam[0]
    if np.linalg.norm(y(mu)) > 1.0:  # |y| <= 1/2 at lam_0 - |b|; nextafter keeps that below lam_0
        low = np.nextafter(lam[0] - np.linalg.norm(b), -np.inf)
        mu = _brent_root(lambda m: 1.0 / np.linalg.norm(y(m)) - 1.0, low, lam[0], 1e-300)
    # mu can round onto a degenerate lam_i with beta_i != 0; that pole is a flat direction
    rest = np.nan_to_num(y(mu)[1:], posinf=0.0, neginf=0.0)
    r = v @ np.concatenate([[-np.copysign(np.sqrt(max(0.0, 1.0 - rest @ rest)), beta[0])], rest])
    return r / np.linalg.norm(r)


def _brent_root(f, xa, xb, xtol: float) -> float:
    """Root of f between xa and xb, where f changes sign: SciPy 1.17.1's
    ``brentq`` (``Zeros/brentq.c``) with rtol = 4 eps and at most 100
    iterations, step for step, so the points tried and the root are SciPy's
    to the bit.  f returns NumPy floats, so the arithmetic runs on NumPy
    scalars and a zero denominator gives inf or nan as in C, which sends the
    step to bisection."""
    rtol = 4 * np.finfo(float).eps
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(100):
            if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):  # keep xcur the better end of the bracket
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (xtol + rtol * abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            if fcur == 0 or abs(sbis) < delta:
                return xcur
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # short enough: take it
                    spre, scur = scur, stry
                else:
                    spre = scur = sbis
            else:
                spre = scur = sbis
            xpre, fpre = xcur, fcur
            xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
            fcur = f(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _descent_minimum(gmat: np.ndarray, n1: int) -> float:
    """Least f(z/|z|) reached by BFGS over (Re z, Im z) from every basis state
    and every equal-weight pair of basis states with relative phase 1 or i,
    the starts run as lanes of one ``_lockstep`` descent.
    f = v^H S v / 2 with v = vec(z z^dag) and S = G + G^H; at a unit z its
    gradient is 2 K z with K = unvec(S v), and the normalization z/|z| is the
    m = 1 case of ``polar``.  BFGS stops on saddles, and the starts are saddles
    of every map that commutes with diagonal phases, so the best point leaves
    along negative curvature until there is none or it lowers f no further."""
    s = gmat + dagger(gmat)

    def fg(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v, pullback = polar(xs, 1)
        z = v[:, 0, :, None]  # (R, n1, 1)
        zz = (z * dagger(z)).reshape(-1, n1 * n1, 1)
        kz = (s @ zz).reshape(-1, n1, n1) @ z
        return 0.5 * (dagger(z) @ kz)[:, 0, 0].real, pullback(2.0 * kz.swapaxes(1, 2))

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


def worst_case_fidelity(u: np.ndarray, dims: tuple[int, int], evolved: EvolvedChannel) -> float:
    """Minimize f(psi) over pure logical states: exactly for a qubit, where f
    is a quadratic a + b.r + r^T C r in the Bloch vector (``_sphere_minimum``),
    and by the multi-start descent of ``_descent_minimum`` otherwise."""
    n1, n2 = dims
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (evolved.dim, evolved.dim):
        raise ValidationError(f"unitary shape {u.shape} does not match dim {evolved.dim}")
    if n1 * n2 > evolved.dim:
        raise ValidationError(f"encoded block {n1}x{n2} exceeds dim {evolved.dim}")
    gmat = logical_map(evolved.superoperator, u[: n1 * n2], n1, n2)
    if n1 != 2:
        return _descent_minimum(gmat, n1)
    q = np.real(dagger(_BLOCH) @ gmat @ _BLOCH)
    b, c = q[0, 1:] + q[1:, 0], 0.5 * (q[1:, 1:] + q[1:, 1:].T)
    r = _sphere_minimum(b, c)
    return float(q[0, 0] + b @ r + r @ c @ r)


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
) -> list[FidelityPoint]:
    """Worst-case fidelity of searched vs reference encodings over a grid.

    ``model_for(value)`` builds the Lindblad model for one grid value.  In
    mode "delta" the model (and the searched encoding) changes per point and
    evolution time is fixed at ``t_f``; in mode "tf" the model is fixed (the
    factory is called once, with ``None`` -- pass a closure over the fixed
    perturbation), the search runs once, and the grid values are evolution
    times.  Channels use the step ``config.dt``.  In mode "delta" a point
    that raises is flagged (NaN row, ``error`` set, logged to the "mns"
    logger), not raised.
    """
    if mode not in ("delta", "tf"):
        raise ValidationError(f"sweep mode must be 'delta' or 'tf', got {mode!r}")
    grid = [float(v) for v in grid]
    if not grid:
        raise ValidationError("sweep grid is empty")
    points: list[FidelityPoint] = []

    def search_best(model):
        channel = lindblad_to_kraus(model, config.dt)
        result = find_mns(channel, config)[dims]
        ok = result.per_restart[result.best_restart].converged
        return result, realize(result.best_params), ok

    def point(param, model, t, found) -> FidelityPoint:
        result, u_mns, ok = found
        evolved = evolve(model, t)
        return FidelityPoint(
            param=param,
            fi_mns=worst_case_fidelity(u_mns, dims, evolved),
            fi_dfs=worst_case_fidelity(u_dfs, dims, evolved),
            j_opt=result.best_j,
            converged=ok,
            mns_params=result.best_params,
        )

    if mode == "tf":
        model = model_for(None)
        found = search_best(model)
        return [point(t, model, t, found) for t in grid]

    for value in grid:
        try:
            model = model_for(value)
            points.append(point(value, model, t_f, search_best(model)))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            logging.getLogger("mns").warning("sweep point %r failed: %s", value, error)
            nan = float("nan")
            points.append(FidelityPoint(value, nan, nan, nan, converged=False, error=error))
    return points
