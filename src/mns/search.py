"""Multi-start BFGS search for minimal-noise encodings.

Maximizes J by running BFGS (inverse-Hessian update, strong-Wolfe line
search with c1=1e-4, c2=0.9, ported from SciPy) from ``num_restarts``
random initial points per candidate dimension pair.  J depends on the
encoding unitary only through its first m = n1*n2 rows V, so BFGS moves an
unconstrained m x N matrix X and evaluates J at V = ``polar``(X); results are
reported in chart coordinates (``chart_of``).

The restarts of one dimension pair run in lockstep (``_lockstep``): each is a
lane that hands over the next point it needs, and one call of ``polar`` and
``value_and_gradient`` evaluates every lane's point as a stack.  A lane's
results do not depend on which other lanes share the stack, and restart
seeds are derived from the master seed and the (dims, restart) indices, so
each restart can be reproduced on its own.

Each restart is one descent of (1 - J)/dt, written as a sum of squares R
plus an O(dt^2) completeness term (``objective.value_and_gradient``).  R
vanishes exactly where the noise acts as I (x) M_k on the encoded block,
the first-order noiseless-subsystem condition, so this one stage resolves a
decoherence-free winner to the precision ``dfs_check`` asks for.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .noise import KrausChannel, dfs_check
from .objective import value_and_gradient
from .parametrization import UnitaryParams, chart_of, num_angles, num_phases, polar, realize

__all__ = [
    "SearchConfig",
    "RestartRecord",
    "SearchResult",
    "bfgs_maximize",
    "find_mns",
    "default_candidate_dims",
]

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9


@dataclass(frozen=True)
class SearchConfig:
    candidate_dims: tuple[tuple[int, int], ...] = ()
    num_restarts: int = 20
    max_iterations: int = 2000
    gradient_tolerance: float = 1e-8
    objective_tolerance: float = 1e-12
    seed: int = 0
    dt: float | None = None  # step of the first-order channel; None: default_dt

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.num_restarts < 1:
            raise ValidationError("num_restarts must be >= 1")
        if self.gradient_tolerance <= 0 or self.objective_tolerance <= 0:
            raise ValidationError("tolerances must be positive")
        dims = tuple((int(a), int(b)) for a, b in self.candidate_dims)
        if any(a < 1 or b < 1 for a, b in dims):
            raise ValidationError(f"candidate dims must be positive, got {dims}")
        object.__setattr__(self, "candidate_dims", dims)


@dataclass(frozen=True)
class RestartRecord:
    """One restart's ascent, from the seed of its initial point.

    The trace and ``final_j`` report J.  ``isometry_final`` is the encoded
    rows V at the final point; ``find_mns`` charts only the winner's.
    """

    index: int
    seed: tuple[int, ...]
    final_j: float
    iterations: int
    trace: tuple[float, ...]
    stop_reason: str
    gradient_norm: float
    isometry_final: np.ndarray = field(compare=False)

    @property
    def converged(self) -> bool:
        """Stopped on the gradient or the stall rule."""
        return self.stop_reason in ("gradient", "stall")

    @property
    def degraded(self) -> bool:
        """Stopped because the line search and its fallback both failed."""
        return self.stop_reason == "line_search"


@dataclass(frozen=True)
class SearchResult:
    dims: tuple[int, int, int]
    best_j: float
    best_params: UnitaryParams
    best_restart: int
    is_dfs: bool
    per_restart: tuple[RestartRecord, ...]
    agreement_fraction: float


def bfgs_maximize(
    channel: KrausChannel,
    dims: tuple[int, int],
    initial: UnitaryParams,
    config: SearchConfig,
) -> RestartRecord:
    """Run one BFGS ascent of J from ``initial``, as a descent of
    f = (1 - J)/dt with dt the channel's step (1 for an exact channel), so
    the tolerances mean the same for every step size.

    Stops when |grad f| falls below ``gradient_tolerance``, when an accepted
    step lowers f by no more than ``objective_tolerance``*|f|, or at
    ``max_iterations``; ``stop_reason`` says which (see ``_bfgs_minimize``)
    and ``converged`` is true for the first two.  A failed line search
    returns the best point found so far with ``degraded=True`` instead of
    raising.  X starts at the first m = n1*n2 rows of ``realize(initial)``.
    It is the one-lane case of the ascents ``find_mns`` runs together, and
    its record is restart 0 with seed ().
    """
    return _ascend(channel, dims, {(): initial}, config)[0]


def _ascend(
    channel: KrausChannel,
    dims: tuple[int, int],
    initials: dict[tuple[int, ...], UnitaryParams],
    config: SearchConfig,
) -> list[RestartRecord]:
    """``bfgs_maximize`` from each restart's initial point, keyed by its seed
    and indexed in order, as lanes of one ``_lockstep`` run: f and its
    gradient come from one stacked ``polar`` and ``value_and_gradient`` call
    per round of the lanes' points."""
    n1, n2 = dims
    if n1 * n2 > channel.dim:
        raise ValidationError(f"encoded block {n1}x{n2} exceeds channel dim {channel.dim}")
    if any(initial.dim != channel.dim for initial in initials.values()):
        raise ValidationError("initial parameters live on the wrong dimension")

    m = n1 * n2
    scale = channel.dt or 1.0

    def fg(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v, pullback = polar(xs, m)
        values, gradients = value_and_gradient(channel, v, n1, n2)
        return values / scale, pullback(gradients) / scale

    runs = _lockstep(
        fg,
        [_flat(realize(initial)[:m]) for initial in initials.values()],
        config.max_iterations,
        config.gradient_tolerance,
        config.objective_tolerance,
    )
    finals = polar(np.array([run.x for run in runs]), m)[0]
    records = []
    for index, (seed, run, v) in enumerate(zip(initials, runs, finals)):
        trace = tuple(1.0 - scale * f for f in run.trace)
        records.append(
            RestartRecord(
                index=index,
                seed=seed,
                final_j=trace[-1],
                iterations=run.iterations,
                trace=trace,
                stop_reason=run.stop_reason,
                gradient_norm=run.gradient_norm,
                isometry_final=v,
            )
        )
    return records


def _flat(v: np.ndarray) -> np.ndarray:
    """The packing [Re V | Im V] that ``polar`` reads."""
    return np.concatenate([v.real.ravel(), v.imag.ravel()])


class Descent(NamedTuple):
    """What ``_bfgs_minimize`` returns: the final point, the f value after
    each iteration starting from the initial one, the iteration count, why
    it stopped and |grad f| at the final point."""

    x: np.ndarray
    trace: list[float]
    iterations: int
    stop_reason: str
    gradient_norm: float


def _lockstep(
    fg: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    starts,
    max_iterations: int,
    gradient_tolerance: float,
    objective_tolerance: float,
) -> list[Descent]:
    """One ``_bfgs_minimize`` descent from each start point, all run
    together: ``fg`` takes an (R, n) stack of points to the R values of f
    and the (R, n) gradients.

    Every round stacks the point each unfinished lane waits on, makes one
    ``fg`` call and sends each lane its row; a lane that finishes leaves the
    stack.  A lane sees only its own rows, so where ``fg`` computes each row
    independently of the others, each descent is the one it would be alone.
    """
    lanes = [
        _bfgs_minimize(x, max_iterations, gradient_tolerance, objective_tolerance)
        for x in starts
    ]
    waiting = {i: next(lane) for i, lane in enumerate(lanes)}
    descents: list[Descent] = [None] * len(lanes)
    while waiting:
        active = list(waiting)
        values, gradients = fg(np.array([waiting[i] for i in active]))
        for i, value, gradient in zip(active, values.tolist(), gradients):
            try:
                waiting[i] = lanes[i].send((value, gradient))
            except StopIteration as stop:
                descents[i] = stop.value
                del waiting[i]
    return descents


def _bfgs_minimize(
    x: np.ndarray,
    max_iterations: int,
    gradient_tolerance: float,
    objective_tolerance: float,
) -> Generator[np.ndarray, tuple[float, np.ndarray], Descent]:
    """BFGS descent of f from ``x``, as a generator: it yields each point
    where it needs f, is sent (f(x), grad f(x)) back, and returns the
    ``Descent``.  ``_lockstep`` runs it.

    Each iteration takes a strong-Wolfe step along the quasi-Newton
    direction p (``_wolfe_step``, SciPy's ``line_search`` to the bit), falling
    back to Armijo backtracking (``_backtrack``) when it fails.  The stop
    reason is "gradient" when |grad f| <= ``gradient_tolerance`` at the final
    point, else "stall" when an accepted step lowered f by no more than
    ``objective_tolerance`` times |f| at the new point, "line_search" when
    the backtracking failed too, or "max_iterations".

    Both line searches work on phi(alpha) = f(x + alpha p): they yield step
    lengths and are sent (phi(alpha), phi'(alpha)).  The loop builds
    x + alpha p once per step length and keeps the iteration's
    (point, f, grad f) by alpha, so it yields each point of an iteration at
    most once: the accepted point and its gradient come from that table, and
    the backtracking's retries of step lengths a failed line search already
    tried are answered from it.
    """
    fx, gx = yield x
    n = x.size
    h = np.eye(n)
    trace = [fx]
    reason = "max_iterations"
    iterations = 0

    for it in range(1, max_iterations + 1):
        if _norm(gx) <= gradient_tolerance:
            break
        iterations = it
        p = -(h @ gx)
        slope = p @ gx
        if slope >= 0:  # not a descent direction; reset the approximation
            h = np.eye(n)
            p = -gx
            slope = p @ gx
        tried: dict[float, tuple[np.ndarray, float, np.ndarray]] = {}
        for search in (_wolfe_step(fx, slope), _backtrack(fx, slope)):
            alpha = next(search)
            try:
                while True:
                    if alpha not in tried:
                        point = x + alpha * p
                        tried[alpha] = (point, *(yield point))
                    _, f, g = tried[alpha]
                    alpha = search.send((f, np.dot(g, p)))
            except StopIteration as stop:
                alpha, f_new = stop.value
            if alpha is not None:
                break
        else:
            reason = "line_search"
            break
        x_new, _, g_new = tried[alpha]
        s = x_new - x
        y = g_new - gx
        sy = s @ y
        if sy > 1e-14 * _norm(s) * _norm(y):
            # H += w s^T + s w^T, the BFGS inverse update with
            # w = rho ((rho y^T H y + 1)/2 s - H y)
            rho = 1.0 / sy
            hy = h @ y
            w = rho * ((0.5 * (rho * (y @ hy) + 1.0)) * s - hy)
            update = w[:, None] * s
            update += update.T
            h += update
        improvement = fx - f_new
        x, fx, gx = x_new, f_new, g_new
        trace.append(fx)
        if 0 <= improvement <= objective_tolerance * abs(fx):
            reason = "stall"
            break

    gradient_norm = _norm(gx)
    if gradient_norm <= gradient_tolerance:
        reason = "gradient"
    return Descent(x, trace, iterations, reason, gradient_norm)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D real array to the bit (it computes
    sqrt(x.dot(x)) too), without the dispatch the loop pays per call."""
    return math.sqrt(x.dot(x))


def _wolfe_step(phi0, derphi0):
    """Step length alpha > 0 that meets the strong Wolfe conditions with
    c1 = ``WOLFE_C1`` and c2 = ``WOLFE_C2`` for phi(alpha) = f(x + alpha p),
    given phi(0) and phi'(0) < 0, and phi(alpha); (None, None) when the zoom
    fails.  A generator: it yields each step length it tries and is sent
    (phi(alpha), phi'(alpha)) back.

    This is SciPy 1.17.1's ``scalar_search_wolfe2`` with ``_zoom`` (Nocedal &
    Wright, Alg. 3.5-3.6), as ``line_search`` calls it for the one call the
    descent makes: first trial alpha = 1, the step doubling at most 25 times,
    no maximum step.  Every expression is SciPy's, so the trial steps and
    the result are its own to the bit.  Like SciPy, it returns the last trial
    step when the doubling runs out.
    """
    alpha0, alpha1 = 0, 1.0
    phi_a0, derphi_a0 = phi0, derphi0
    phi_a1, derphi_a1 = yield alpha1
    for i in range(25):
        if (phi_a1 > phi0 + WOLFE_C1 * alpha1 * derphi0) or ((phi_a1 >= phi_a0) and i > 0):
            return (yield from _zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0, phi0, derphi0))
        if abs(derphi_a1) <= -WOLFE_C2 * derphi0:
            return alpha1, phi_a1
        if derphi_a1 >= 0:
            return (yield from _zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1, phi0, derphi0))
        alpha0, alpha1 = alpha1, 2 * alpha1
        phi_a0, derphi_a0 = phi_a1, derphi_a1
        phi_a1, derphi_a1 = yield alpha1
    return alpha1, phi_a1


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi0, derphi0):
    """Shrink the bracket [a_lo, a_hi] to a strong-Wolfe step: trial steps at
    the cubic, else the quadratic interpolant's minimizer, else the midpoint;
    (None, None) after 11 trials.  Yields step lengths, like ``_wolfe_step``."""
    phi_rec, a_rec = phi0, 0
    for i in range(11):
        dalpha = a_hi - a_lo
        a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
        if i > 0:
            cchk = 0.2 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if (i == 0) or (a_j is None) or (a_j > b - cchk) or (a_j < a + cchk):
            qchk = 0.1 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if (a_j is None) or (a_j > b - qchk) or (a_j < a + qchk):
                a_j = a_lo + 0.5 * dalpha
        phi_aj, derphi_aj = yield a_j
        if (phi_aj > phi0 + WOLFE_C1 * a_j * derphi0) or (phi_aj >= phi_lo):
            phi_rec, a_rec = phi_hi, a_hi
            a_hi, phi_hi = a_j, phi_aj
        else:
            if abs(derphi_aj) <= -WOLFE_C2 * derphi0:
                return a_j, phi_aj
            if derphi_aj * (a_hi - a_lo) >= 0:
                phi_rec, a_rec = phi_hi, a_hi
                a_hi, phi_hi = a_lo, phi_lo
            else:
                phi_rec, a_rec = phi_lo, a_lo
            a_lo, phi_lo, derphi_lo = a_j, phi_aj, derphi_aj
    return None, None


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic A (x-a)^3 + B (x-a)^2 + C (x-a) + fa through
    (b, fb) and (c, fc) with slope C = fpa at a, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0] = dc**2
            d1[0, 1] = -(db**2)
            d1[1, 0] = -(dc**3)
            d1[1, 1] = db**3
            A, B = np.dot(d1, np.asarray([fb - fa - C * db, fc - fa - C * dc]))
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa), (b, fb) with slope fpa at
    a, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a * 1.0
            B = (fb - fa - fpa * db) / (db * db)
            xmin = a - fpa / (2.0 * B)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _backtrack(phi0, derphi0):
    """First of the step lengths 1, 1/2, 1/4, .. that meets the Armijo
    condition with c1 = ``WOLFE_C1``, and phi there; (None, None) after 40
    halvings, at steps below 2^-39.  Yields step lengths, like
    ``_wolfe_step``."""
    alpha = 1.0
    for _ in range(40):
        phi_a, _ = yield alpha
        if phi_a <= phi0 + WOLFE_C1 * alpha * derphi0:
            return alpha, phi_a
        alpha *= 0.5
    return None, None


def _initial_point(dim: int, rng: np.random.Generator) -> UnitaryParams:
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_phases(dim))
    angles = rng.uniform(0.0, np.pi, size=num_angles(dim))
    return UnitaryParams(dim, phases, angles)


def default_candidate_dims(dim: int, n1: int = 2) -> tuple[tuple[int, int], ...]:
    """All (n1, n2) with n1*n2 <= dim, n2 ascending."""
    return tuple((n1, n2) for n2 in range(1, dim // n1 + 1))


def find_mns(
    channel: KrausChannel,
    config: SearchConfig,
) -> dict[tuple[int, int], SearchResult]:
    """Multi-start search over every candidate dimension pair in the config.

    Returns one SearchResult per (n1, n2): the restart with the highest J
    wins, ties by lowest restart index, and is reported as found.  The
    winner's isometry gives both ``best_params`` (``chart_of``, which
    completes it to a unitary) and ``is_dfs``: ``dfs_check``'s verdict on
    it, which tests [E_k, rho] = 0 for encoded states rho.  For Hermitian
    Kraus sets, which covers every bundled model, that is the condition
    R = 0 the descent drives toward; for other sets it is stricter.
    """
    dims_list = config.candidate_dims or default_candidate_dims(channel.dim)
    results: dict[tuple[int, int], SearchResult] = {}
    for di, (n1, n2) in enumerate(dims_list):
        seeds = [(config.seed, di, r) for r in range(config.num_restarts)]
        initials = {
            key: _initial_point(channel.dim, np.random.default_rng(np.random.SeedSequence(key)))
            for key in seeds
        }
        records = _ascend(channel, (n1, n2), initials, config)

        final_j = np.array([rec.final_j for rec in records])
        best = int(np.argmax(final_j))
        best_j = float(final_j[best])
        agreement = float(np.mean(final_j >= best_j - 1e-6))
        v = records[best].isometry_final
        results[(n1, n2)] = SearchResult(
            dims=(n1, n2, channel.dim - n1 * n2),
            best_j=best_j,
            best_params=chart_of(v),
            best_restart=best,
            is_dfs=dfs_check(channel, v, n1, n2)[0],
            per_restart=tuple(records),
            agreement_fraction=agreement,
        )
    return results
