"""Multi-start BFGS search for minimal-noise encodings.

Maximizes J by running BFGS (inverse-Hessian update, Armijo backtracking
from the unit step with c1=1e-4) from ``num_restarts`` random initial points
per candidate dimension pair.  J depends on the encoding unitary only
through its first m = n1*n2 rows V, so BFGS moves an unconstrained m x N
matrix X and evaluates J at V = ``polar``(X); results are reported in chart
coordinates (``chart_of``).

Each restart is Riemannian BFGS on the isometries with the polar factor as
its retraction (``_bfgs_minimize``): every point X is evaluated at
V = ``polar``(X), with one gradient, the tangent projection at V of the
gradient in V (``tangent``), and after an accepted step the restart goes on
from V.  X left free would drift from the isometries (its singular values
grow from 1 to 2-5 over a restart), and the curvature BFGS learns would
drift with it.

``find_mns`` makes one ``bfgs_maximize`` call per dimension pair, and that
call runs the pair's restarts in lockstep (``_lockstep``): each is a lane
that hands over the next point it needs, and one call of ``polar`` and
``value_and_gradient`` evaluates every lane's point as a stack.  A lane's
results do not depend on which other lanes share the stack, and restart
seeds are derived from the master seed and the (dims, restart) indices, so
each restart can be reproduced on its own.

Each restart is one descent of (1 - J)/dt, written as a sum of squares R
plus an O(dt^2) completeness term (``objective.value_and_gradient``).  R
vanishes exactly where the noise acts as I (x) M_k on the encoded block,
the first-order noiseless-subsystem condition, so this one stage resolves a
decoherence-free winner to the precision ``dfs_check`` asks for, which
reads the same residuals (``noise.residuals``) of E_k and E_k^dag.  The stall
rule measures a step's gain against R/dt, not against f, whose
completeness term is all that is left of it at a decoherence-free point.
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
from .parametrization import (
    UnitaryParams,
    chart_of,
    num_angles,
    num_phases,
    pack_complex,
    polar,
    realize,
    tangent,
)

__all__ = [
    "SearchConfig",
    "RestartRecord",
    "SearchResult",
    "bfgs_maximize",
    "find_mns",
    "default_candidate_dims",
]

ARMIJO_C1 = 1e-4


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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.gradient_tolerance <= 0 or self.objective_tolerance <= 0:
            raise ValidationError("tolerances must be positive")
        dims = tuple((int(a), int(b)) for a, b in self.candidate_dims)
        if any(a < 1 or b < 1 for a, b in dims):
            raise ValidationError(f"candidate dims must be positive, got {dims}")
        if len(set(dims)) < len(dims):  # the result keeps one search per pair
            raise ValidationError(f"candidate dims must not repeat a pair, got {dims}")
        object.__setattr__(self, "candidate_dims", dims)


@dataclass(frozen=True)
class RestartRecord:
    """One restart's ascent, from the seed of its initial point.

    The trace and ``final_j`` report J.  ``evaluations`` counts the points
    at which the ascent evaluated J and its gradient, the start included.
    ``isometry_final`` is the encoded rows V at the final point;
    ``find_mns`` charts only the winner's.
    """

    index: int
    seed: tuple[int, ...]
    final_j: float
    iterations: int
    evaluations: int
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
        """Stopped because the line search found no step that lowered f."""
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
    initials: dict[tuple[int, ...], UnitaryParams],
    config: SearchConfig,
) -> list[RestartRecord]:
    """Run one BFGS ascent of J from each restart's initial point, keyed by
    its seed, and return their records indexed in order.  Each ascent is a
    descent of f = (1 - J)/dt with dt the channel's step (1 for an exact
    channel), so the tolerances mean the same for every step size.

    An ascent stops when |grad f| falls below ``gradient_tolerance``, when an
    accepted step lowers f by no more than ``objective_tolerance``*R/dt (R
    the residual part of 1 - J) or the slope along its next direction is no
    more than ``FLOOR_SLOPE``*|f| (f's rounding), or at ``max_iterations``;
    ``stop_reason`` says which (see ``_bfgs_minimize``) and ``converged`` is
    true for the first two.  A failed line search ends the ascent at the
    best point found so far with ``degraded=True`` instead of raising.  X
    starts at the first m = n1*n2 rows of ``realize(initial)``, one stacked
    ``realize`` call giving every restart's start.  The ascents
    run as lanes of one ``_lockstep`` run: one stacked ``polar`` and
    ``value_and_gradient`` call per round of the lanes' points gives each
    point's f, its polar factor V (the lane's retraction), the gradient at V
    (the tangent projection) and R/dt; ``_bfgs_minimize`` says when a lane
    moves to V.
    No initial points, no ascents: an empty dict gives an empty list.
    """
    n1, n2 = dims
    if n1 * n2 > channel.dim:
        raise ValidationError(f"encoded block {n1}x{n2} exceeds channel dim {channel.dim}")
    if any(initial.dim != channel.dim for initial in initials.values()):
        raise ValidationError("initial parameters live on the wrong dimension")

    if not initials:
        return []
    m = n1 * n2
    scale = channel.dt or 1.0

    def fg(xs: np.ndarray) -> tuple[np.ndarray, ...]:
        v = polar(xs, m)
        values, gradients, residuals = value_and_gradient(channel, v, n1, n2)
        return values / scale, tangent(v, gradients) / scale, pack_complex(v), residuals / scale

    runs = _lockstep(
        fg,
        pack_complex(realize(initials.values())[:, :m]),
        config.max_iterations,
        config.gradient_tolerance,
        config.objective_tolerance,
    )
    finals = polar(np.array([run.x for run in runs]), m)
    records = []
    for index, (seed, run, v) in enumerate(zip(initials, runs, finals)):
        trace = tuple(1.0 - scale * f for f in run.trace)
        records.append(
            RestartRecord(
                index=index,
                seed=seed,
                final_j=trace[-1],
                iterations=run.iterations,
                evaluations=run.evaluations,
                trace=trace,
                stop_reason=run.stop_reason,
                gradient_norm=run.gradient_norm,
                isometry_final=v,
            )
        )
    return records


class Descent(NamedTuple):
    """What ``_bfgs_minimize`` returns: the final point, the f value after
    each iteration starting from the initial one, the iteration count, why
    it stopped, |grad f| at the final point and how many points it yielded
    for evaluation."""

    x: np.ndarray
    trace: list[float]
    iterations: int
    stop_reason: str
    gradient_norm: float
    evaluations: int


def _lockstep(
    fg: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    starts,
    max_iterations: int,
    gradient_tolerance: float,
    objective_tolerance: float,
) -> list[Descent]:
    """One ``_bfgs_minimize`` descent from each start point, all run
    together: ``fg`` takes an (L, n) stack of points to four stacks, each
    point's f, the gradient at its retraction, the retraction itself and the
    part of f that the stall rule measures gains against (R/dt in
    ``bfgs_maximize``).  A descent in flat space returns the points as their
    own retractions and |f| as that part.

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
        xs = np.array([waiting[i] for i in active])
        values, gradients, points, residuals = fg(xs)
        rows = zip(values.tolist(), gradients, points, residuals.tolist())
        for i, row in zip(active, rows):
            try:
                waiting[i] = lanes[i].send(row)
            except StopIteration as stop:
                descents[i] = stop.value
                del waiting[i]
    return descents


# an accepted step that lowers f by more than this times |f| moves the lane
# to the trial's retraction; below it f is at its rounding floor
RETRACT_GAIN = math.sqrt(np.finfo(float).eps)
# a slope -phi'(0) no more than this times |f| is below f's rounding, so no
# step along p can lower f by an amount its evaluation resolves
FLOOR_SLOPE = 4 * np.finfo(float).eps
# the line search gives up below this step length, after at most 40 trials
MIN_STEP = 2.0**-39


def _bfgs_minimize(
    x: np.ndarray,
    max_iterations: int,
    gradient_tolerance: float,
    objective_tolerance: float,
) -> Generator[np.ndarray, tuple[float, np.ndarray, np.ndarray, float], Descent]:
    """BFGS descent of f from ``x``, as a generator: it yields each point
    where it needs f, is sent (f, g, r, f_R) back, where r is the point's
    retraction (its polar factor in ``bfgs_maximize``, so f(r) is f), g the
    gradient of f at r and f_R the part of f the stall rule measures gains
    against (R/dt in ``bfgs_maximize``), and returns the ``Descent``.
    ``_lockstep`` runs it.

    Each iteration backtracks along the quasi-Newton direction p on
    phi(alpha) = f(x + alpha p) from alpha = 1 until the Armijo condition
    phi(alpha) <= phi(0) + c1 alpha phi'(0) holds, c1 = ``ARMIJO_C1``.  A
    trial that fails it is followed by the minimizer q of the quadratic
    through phi(0), phi'(0) and phi(alpha), kept within [0.1, 0.5] alpha
    (Nocedal & Wright, 2nd ed., sec. 3.5), so the steps only shrink and no
    point is tried twice.  The stop reason is "gradient" when
    |grad f| <= ``gradient_tolerance`` at the final point, else "stall" when
    an accepted step lowered f by no more than ``objective_tolerance`` times
    f_R at the new point, or when the slope -phi'(0) = -p.grad f along the
    direction is no more than ``FLOOR_SLOPE`` (4 machine epsilons) times
    |f|, "line_search" when the step fell below ``MIN_STEP`` without meeting
    the Armijo condition, or "max_iterations".  The stall rule is relative
    to f_R rather than to f because the completeness term of
    (1 - J)/dt = R/dt + O(dt) is all that is left of f at a decoherence-free
    point: relative to it, a search would stop while R still falls.  The
    slope test is the directional form of the relative-gradient stop test
    (Dennis & Schnabel 1983, sec. 7.2) and is about f's rounding, so it
    stays relative to |f|: below it no step along p lowers f by an amount
    f's evaluation resolves, and a line search would only sample rounding
    noise, so the lane stops before its line search, takes no step and does
    not count the iteration.

    The descent is Riemannian BFGS with a retraction (Absil, Mahony &
    Sepulchre 2008, sec. 4.1; Huang, Gallivan & Absil, SIAM J. Optim. 25,
    1660 (2015)): the lane continues from the accepted trial's retraction,
    with f and the gradient there from the same evaluation, so the inverse
    Hessian H learns the curvature on the manifold rather than along the
    directions that only rescale x.  The update is cautious: it is skipped
    when s^T y <= 1e-14 |s| |y|, which keeps H positive definite under
    Armijo steps (Huang, Absil & Gallivan, SIAM J. Optim. 28, 470 (2018)).
    H starts as (s^T y / y^T y) I at the first update (Nocedal & Wright,
    2nd ed., eq. 6.20), and again after a reset.  A step that lowered f by
    no more than ``RETRACT_GAIN`` (sqrt of the machine epsilon) times |f|
    keeps the trial point itself, with the gradient at its retraction: f
    there is at its rounding floor and f at the retraction equals it only
    up to rounding, while the Armijo condition and the stall rule need
    phi(0) to be f at the point the trials start from.
    """
    fx, gx, *_ = yield x
    n = x.size
    h = None  # the identity, until the first update scales it
    trace = [fx]
    reason = "max_iterations"
    iterations = 0
    evaluations = 1

    for it in range(1, max_iterations + 1):
        if _norm(gx) <= gradient_tolerance:
            break
        if h is None:
            p = -gx
        else:
            p = h @ gx
            np.negative(p, out=p)
        slope = p @ gx
        if slope >= 0:  # not a descent direction; reset the approximation
            h = None
            p = -gx
            slope = p @ gx
        if -slope <= FLOOR_SLOPE * abs(fx):
            reason = "stall"
            break
        iterations = it
        alpha = 1.0
        while alpha >= MIN_STEP:
            x_new = x + p if alpha == 1.0 else x + alpha * p
            f_new, g_new, retraction, f_residual = yield x_new
            evaluations += 1
            if f_new <= fx + ARMIJO_C1 * alpha * slope:
                break
            q = -slope * alpha * alpha / (2.0 * (f_new - fx - slope * alpha))
            # a NaN q (f_new NaN) loses both comparisons and leaves 0.1 alpha
            alpha = min(0.5 * alpha, max(0.1 * alpha, q))
        else:
            reason = "line_search"
            break
        improvement = fx - f_new
        if improvement > RETRACT_GAIN * abs(f_new):
            x_new = retraction
        s = x_new - x
        y = g_new - gx
        sy = s @ y
        if sy > 1e-14 * _norm(s) * _norm(y):
            if h is None:
                h = np.eye(n) * (sy / (y @ y))
            # H += w s^T + s w^T, the BFGS inverse update with
            # w = rho ((rho y^T H y + 1)/2 s - H y); s w^T is (w s^T)^T
            rho = 1.0 / sy
            hy = h @ y
            w = rho * ((0.5 * (rho * (y @ hy) + 1.0)) * s - hy)
            ws = np.multiply.outer(w, s)
            h += ws + ws.T
        x, fx, gx = x_new, f_new, g_new
        trace.append(fx)
        if improvement <= objective_tolerance * f_residual:
            reason = "stall"
            break

    gradient_norm = _norm(gx)
    if gradient_norm <= gradient_tolerance:
        reason = "gradient"
    return Descent(x, trace, iterations, reason, gradient_norm, evaluations)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D real array to the bit (it computes
    sqrt(x.dot(x)) too), without the dispatch the loop pays per call."""
    return math.sqrt(x.dot(x))


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
    it, whether R's residuals vanish for each E_k and E_k^dag, which is
    [E_k, rho] = 0 for every encoded state rho.  For Hermitian Kraus sets,
    which covers every bundled model, that is the condition R = 0 the descent
    drives toward; for other sets it is stricter.
    """
    dims_list = config.candidate_dims or default_candidate_dims(channel.dim)
    results: dict[tuple[int, int], SearchResult] = {}
    for di, (n1, n2) in enumerate(dims_list):
        seeds = [(config.seed, di, r) for r in range(config.num_restarts)]
        initials = {
            key: _initial_point(channel.dim, np.random.default_rng(np.random.SeedSequence(key)))
            for key in seeds
        }
        records = bfgs_maximize(channel, (n1, n2), initials, config)

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
