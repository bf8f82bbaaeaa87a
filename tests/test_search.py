import math
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mns.errors import ValidationError
from mns.experiments import build_channel, build_model, load_config
from mns.linalg import dagger
from mns.noise import (
    collective_xz,
    default_dt,
    dfs_check,
    lindblad_to_kraus,
    perturbed_collective,
    random_perturbation_unitary,
)
from mns.parametrization import chart_of, realize
import mns.search
from mns.search import (
    ARMIJO_C1,
    MIN_STEP,
    RETRACT_GAIN,
    Descent,
    SearchConfig,
    _bfgs_minimize,
    _initial_point,
    _lockstep,
    bfgs_maximize,
    default_candidate_dims,
    find_mns,
)
from oracles import (
    block_projector,
    containment_defect,
    identity_channel,
    projector_distance,
    subspace_projector,
    zero_params,
)

from conftest import P_ONE_EXCITED, P_TWO_EXCITED, TIGHT

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(max_iterations=0)
    with pytest.raises(ValidationError):
        SearchConfig(num_restarts=0)
    with pytest.raises(ValidationError):
        SearchConfig(gradient_tolerance=0.0)
    with pytest.raises(ValidationError):
        SearchConfig(candidate_dims=((0, 2),))
    # a repeated pair would run twice, and the result keeps only one search
    with pytest.raises(ValidationError, match=r"not repeat a pair, got \(\(2, 1\), \(2, 1\)\)"):
        SearchConfig(candidate_dims=((2, 1), (2, 1)))
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        SearchConfig(seed=-1)


def test_default_candidate_dims():
    assert default_candidate_dims(8) == ((2, 1), (2, 2), (2, 3), (2, 4))
    assert default_candidate_dims(8, n1=3) == ((3, 1), (3, 2))


def test_bfgs_from_optimum_terminates_immediately(collective_channel, collective_search):
    config = SearchConfig(num_restarts=1, candidate_dims=((2, 2),))
    [out] = bfgs_maximize(collective_channel, (2, 2), {(): collective_search.best_params}, config)
    assert out.iterations <= 2
    assert out.converged
    assert out.final_j >= 1.0 - 1e-6


def test_bfgs_traces_non_decreasing(collective_search, local_dephasing_search):
    for result in (collective_search, local_dephasing_search[(2, 1)]):
        for rec in result.per_restart:
            diffs = np.diff(rec.trace)
            assert diffs.min() >= -1e-15
            assert rec.trace[-1] == rec.final_j


def _count_evaluations(monkeypatch) -> tuple[list[list[bytes]], list[bytes]]:
    """Record the points each BFGS lane hands to ``_lockstep``, one list per
    lane, and the rows its stacked evaluations receive."""
    lanes: list[list[bytes]] = []
    rows: list[bytes] = []
    minimize, lockstep = mns.search._bfgs_minimize, mns.search._lockstep

    def counted_minimize(*args):
        points: list[bytes] = []
        lanes.append(points)
        run = minimize(*args)
        x = next(run)
        while True:
            points.append(x.tobytes())
            try:
                x = run.send((yield x))
            except StopIteration as stop:
                return stop.value

    def counted_lockstep(fg, *args):
        def counted(xs):
            rows.extend(x.tobytes() for x in xs)
            return fg(xs)

        return lockstep(counted, *args)

    monkeypatch.setattr(mns.search, "_bfgs_minimize", counted_minimize)
    monkeypatch.setattr(mns.search, "_lockstep", counted_lockstep)
    return lanes, rows


def test_bfgs_evaluates_each_point_once(
    collective_channel, local_dephasing_channel, monkeypatch
):
    lanes, rows = _count_evaluations(monkeypatch)
    # the collective restart and one on the flat local-dephasing (3, 1)
    # landscape: each point a lane hands over is evaluated once, and the
    # backtracking never returns to a step length it tried
    cases = (
        (collective_channel, (2, 2), SearchConfig(num_restarts=1)),
        (local_dephasing_channel, (3, 1), SearchConfig(num_restarts=1, **TIGHT)),
    )
    for channel, dims, config in cases:
        lanes.clear()
        rows.clear()
        rng = np.random.default_rng(np.random.SeedSequence((1, 0, 0)))
        [out] = bfgs_maximize(channel, dims, {(): _initial_point(8, rng)}, config)
        assert out.converged and not out.degraded
        assert len(lanes) == 1
        seen = lanes[0]
        assert seen and rows == seen
        assert len(set(seen)) == len(seen)
        if dims == (2, 2):
            # one evaluation per iteration plus the start and the rare extra
            # line-search trial (the unfused loop made about three)
            assert len(seen) <= 1.1 * out.iterations + 1


def test_restart_records_count_their_evaluations(collective_channel, monkeypatch):
    # a record's evaluations are the points its lane handed to _lockstep
    lanes, rows = _count_evaluations(monkeypatch)
    config = SearchConfig(num_restarts=3, seed=1, candidate_dims=((2, 1), (2, 2)))
    results = find_mns(collective_channel, config)
    records = [rec for result in results.values() for rec in result.per_restart]
    assert [rec.evaluations for rec in records] == [len(points) for points in lanes]
    assert sum(rec.evaluations for rec in records) == len(rows)
    assert all(rec.evaluations > rec.iterations for rec in records)


def test_bfgs_maximize_without_initials_evaluates_nothing(collective_channel):
    config = SearchConfig(candidate_dims=((2, 2),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bfgs_maximize(collective_channel, (2, 2), {}, config) == []


def test_accepted_steps_retract_onto_the_isometries(local_dephasing_channel, monkeypatch):
    # the descent from one restart, cut after each of its iterations: a step
    # that gained more than RETRACT_GAIN |f| leaves the lane at the accepted
    # trial's polar factor, orthonormal, with the trial's f; a smaller gain
    # leaves it at the trial itself
    captured = []
    lockstep = mns.search._lockstep
    monkeypatch.setattr(
        mns.search,
        "_lockstep",
        lambda fg, starts, *rules: captured.append((fg, starts, rules)) or lockstep(fg, starts, *rules),
    )
    config = SearchConfig(num_restarts=1, **TIGHT)
    rng = np.random.default_rng(np.random.SeedSequence((1, 0, 0)))
    [out] = bfgs_maximize(local_dephasing_channel, (2, 1), {(): _initial_point(8, rng)}, config)
    [(fg, [start], (_, *rules))] = captured
    rows = []

    def logged(xs):
        evaluated = fg(xs)
        values, _, points, *_ = evaluated
        rows.extend(zip(xs, values.tolist(), points))
        return evaluated

    retracted = kept = 0
    for k in range(1, out.iterations + 1):
        rows.clear()
        (run,) = lockstep(logged, [start], k, *rules)
        assert run.iterations == k
        f = run.trace[-1]
        trial, retraction = [(x, r) for x, value, r in rows if value == f][-1]
        if run.trace[-2] - f > RETRACT_GAIN * abs(f):
            assert np.array_equal(run.x, retraction)
            v = (run.x[:16] + 1j * run.x[16:]).reshape(2, 8)
            assert np.abs(v @ dagger(v) - np.eye(2)).max() <= 1e-13
            assert abs(fg(run.x[None])[0][0] - f) <= 1e-12 * abs(f)
            retracted += 1
        else:
            assert np.array_equal(run.x, trial)
            kept += 1
    assert retracted > 0 and kept > 0


def test_first_update_scales_the_inverse_hessian():
    # on an ill-conditioned quadratic the second iteration's first trial,
    # x1 + p at alpha = 1, follows the BFGS update of (s^T y / y^T y) I, not
    # of I
    a = np.diag([1.0, 10.0, 100.0])
    x0 = np.ones(3)

    def fg(xs):
        f = 0.5 * np.einsum("ri,ij,rj->r", xs, a, xs)
        return f, xs @ a, xs, np.abs(f)

    seen = []

    def logged(xs):
        seen.extend(xs)
        return fg(xs)

    (first,) = _lockstep(fg, [x0], 1, 0.0, 0.0)
    (second,) = _lockstep(logged, [x0], 2, 0.0, 0.0)
    assert second.iterations == 2
    x1, g1 = first.x, first.x @ a
    s, y = x1 - x0, (x1 - x0) @ a
    rho = 1.0 / (s @ y)
    e = np.eye(3) - rho * np.outer(s, y)

    def step(h0):
        return x1 - (e @ h0 @ e.T + rho * np.outer(s, s)) @ g1

    trial = seen[first.evaluations]
    assert np.abs(trial - step((s @ y) / (y @ y) * np.eye(3))).max() <= 1e-14
    assert np.abs(trial - step(np.eye(3))).max() > 1e-2


def test_inverse_hessian_update_is_the_textbook_one():
    # on a random strictly convex quadratic, each update takes H to
    # (I - rho s y^T) H (I - rho y s^T) + rho s s^T with rho = 1/(s^T y),
    # H being (s^T y / y^T y) I before the first
    rng = np.random.default_rng(28)
    n = 6
    q = rng.standard_normal((n, n))
    a, b = q @ q.T + np.eye(n), rng.standard_normal(n)
    run = _bfgs_minimize(rng.standard_normal(n), 30, 1e-10, 0.0)
    x = next(run)
    h = x_at = g_at = None
    updates = 0
    try:
        while True:
            x = run.send((0.5 * x @ a @ x - b @ x, a @ x - b, x, 1.0))
            state = run.gi_frame.f_locals
            if g_at is not None and not np.array_equal(state["x"], x_at):
                s, y = state["x"] - x_at, state["gx"] - g_at
                rho = 1.0 / (s @ y)
                before = (s @ y) / (y @ y) * np.eye(n) if h is None else h
                e = np.eye(n) - rho * np.outer(s, y)
                expected = e @ before @ e.T + rho * np.outer(s, s)
                assert np.linalg.norm(state["h"] - expected) <= 1e-12 * np.linalg.norm(expected)
                updates += 1
            h = None if state["h"] is None else state["h"].copy()
            x_at, g_at = state["x"], state["gx"]
    except StopIteration:
        pass
    assert updates >= 10


def test_bfgs_minimize_reports_each_stop_reason():
    # f = x^T A x / 2 on an ill-conditioned quadratic, from f(x0) = 25
    a = np.diag([1.0, 100.0])
    x0 = np.array([1.0, 0.7])

    def fg(xs, offset=0.0):
        f = offset + 0.5 * np.einsum("ri,ij,rj->r", xs, a, xs)
        return f, xs @ a, xs, np.abs(f)

    def uphill(xs):
        f = 0.5 * np.einsum("ri,ri->r", xs, xs)
        return f, -xs, xs, np.abs(f)

    cases = [
        ("gradient", (fg, x0, 100, 1e-8, 0.0), lambda run: run.gradient_norm <= 1e-8),
        # the stall rule is relative: at f(x0) = 2.5e-13 the first step gains
        # less than 1e-12, which an absolute rule would call a stall, yet the
        # descent goes on to the exact minimum at 0
        (
            "gradient",
            (fg, 1e-7 * x0, 100, 1e-20, 1e-12),
            lambda run: run.iterations > 1 and run.trace[0] - run.trace[1] <= 1e-12,
        ),
        # the first step gains less than 100 |f| while |grad f| is far above 1e-30
        ("stall", (fg, x0, 100, 1e-30, 100.0), lambda run: run.iterations == 1),
        # f offset by 1e6, with a stall tolerance below its rounding: the lane
        # stops on its slope, before a step could gain nothing, so every
        # counted step lowered f
        (
            "stall",
            (partial(fg, offset=1e6), x0, 100, 1e-300, 1e-18),
            lambda run: run.trace[-2] > run.trace[-1] and len(run.trace) == run.iterations + 1,
        ),
        ("max_iterations", (fg, x0, 1, 1e-30, 0.0), lambda run: run.iterations == 1),
        # a gradient of the wrong sign: no step along -grad lowers f
        (
            "line_search",
            (uphill, x0, 100, 1e-30, 0.0),
            lambda run: run.iterations == 1 and run.trace == [0.5 * x0 @ x0],
        ),
    ]
    for reason, (f, start, *rules), check in cases:
        (run,) = _lockstep(f, [start], *rules)
        assert run.stop_reason == reason
        assert check(run), reason
        assert run.gradient_norm == np.linalg.norm(f(run.x[None])[1][0])
        if reason != "gradient":
            assert run.gradient_norm > rules[1]


def _trial_steps(phi) -> tuple[list[float], Descent]:
    """The step lengths the first line search of a one-iteration descent
    tries along phi(alpha) = f(x + alpha p), from x = 0 with f = 1 and
    grad f = 1, so p = -1 and phi'(0) = -1, answering each with phi(alpha),
    and the descent it returns."""
    run = _bfgs_minimize(np.zeros(1), 1, 0.0, 0.0)
    x = next(run)
    x = run.send((1.0, np.ones(1), x, 1.0))
    steps = []
    while True:
        steps.append(-x[0])
        try:
            x = run.send((phi(steps[-1]), np.zeros(1), x, 1.0))
        except StopIteration as stop:
            return steps, stop.value


def test_line_search_backtracks_to_the_clipped_quadratic_minimizer():
    # phi(alpha) = 1 - alpha + c alpha^2 / 2: the quadratic through phi(0),
    # phi'(0) and any trial is phi itself, with minimizer q = 1/c.  Alpha = 1
    # is taken when it meets the Armijo condition; else the next trial is q
    # kept within [0.1, 0.5] alpha, until one meets it
    for c, expected in ((1.5, [1.0]), (2.5, [1.0, 0.4]), (30.0, [1.0, 0.1, 1.0 / 30.0])):

        def phi(alpha):
            return 1.0 - alpha + 0.5 * c * alpha * alpha

        steps, _ = _trial_steps(phi)
        assert steps == pytest.approx(expected, rel=1e-14, abs=0.0)
        armijo = [phi(alpha) <= 1.0 - ARMIJO_C1 * alpha for alpha in steps]
        assert armijo == [False] * (len(steps) - 1) + [True]
    # phi(1) just above the Armijo line puts q = 1/1.9999 above 0.5, and a
    # NaN phi(1) gives a NaN q, which the clip takes to 0.1
    assert _trial_steps(lambda alpha: 0.99995 if alpha == 1.0 else 0.0)[0] == [1.0, 0.5]
    assert _trial_steps(lambda alpha: math.nan if alpha == 1.0 else 0.0)[0] == [1.0, 0.1]


def test_line_search_gives_up_below_the_smallest_step():
    # a flat phi never meets the Armijo condition, and the quadratic through
    # it has q = alpha / 2: the trials halve from 1 down to MIN_STEP, 40 of
    # them, and the descent ends on "line_search" where it started, with
    # the iteration counted and no step taken
    steps, run = _trial_steps(lambda alpha: 1.0)
    assert steps == [2.0**-k for k in range(40)]
    assert steps[-1] == MIN_STEP
    assert run.stop_reason == "line_search"
    assert (run.iterations, run.evaluations, run.trace) == (1, 41, [1.0])
    assert np.array_equal(run.x, np.zeros(1))


def test_stall_rule_measures_gains_against_the_residual_part():
    # f = c + R with R = x^T A x / 2 and c = 1e3, as at a decoherence-free
    # point where the completeness term is all that is left of f.  Measured
    # against |f|, a gain of 1e-2 |f| or less stops the lane while R still
    # falls; an fg that returns R instead of |f| as the fourth entry of its
    # rows has the gains measured against R, and the same descent goes on
    # from there
    a = np.diag([1.0, 100.0])
    c, tol = 1e3, 1e-2
    residual_at = {}

    def fg_with_residual(xs):
        residuals = 0.5 * np.einsum("ri,ij,rj->r", xs, a, xs)
        values, gradients = c + residuals, xs @ a
        residual_at.update(zip(values.tolist(), residuals.tolist()))
        return values, gradients, xs, residuals

    def fg(xs):
        values, gradients, _, _ = fg_with_residual(xs)
        return values, gradients, xs, np.abs(values)

    start = np.array([1.0, 0.7])
    (whole,) = _lockstep(fg, [start], 100, 1e-300, tol)
    (part,) = _lockstep(fg_with_residual, [start], 100, 1e-300, tol)
    whole_gains = [(f - f_new) / abs(f_new) for f, f_new in zip(whole.trace, whole.trace[1:])]
    part_gains = [
        (f - f_new) / residual_at[f_new] for f, f_new in zip(part.trace, part.trace[1:])
    ]
    assert whole.stop_reason == part.stop_reason == "stall"
    assert all(gain > tol for gain in whole_gains[:-1]) and whole_gains[-1] <= tol
    # no gain of the residual lane is small against R: it stopped on its slope
    assert all(gain > tol for gain in part_gains)
    assert part.trace[: len(whole.trace)] == whole.trace
    assert part.iterations > whole.iterations
    assert part.trace[-1] - c < 1e-3 * (whole.trace[-1] - c)


def test_floor_slope_stops_a_lane_before_its_line_search():
    # f = c + x^T A x / 2 with c = 1e6, so the rounding of f is about 1e-10;
    # a stall tolerance of 1e-18 |f| cannot fire on any gain but 0, and the
    # gradient tolerance never fires.  The lane stops "stall" on its slope,
    # and the iteration it stops in yields no point: cut at its counted
    # iterations, the same descent evaluated the same points.
    a = np.diag([1.0, 100.0])

    def fg(xs):
        f = 1e6 + 0.5 * np.einsum("ri,ij,rj->r", xs, a, xs)
        return f, xs @ a, xs, np.abs(f)

    (run,) = _lockstep(fg, [np.array([1.0, 0.7])], 100, 1e-300, 1e-18)
    assert run.stop_reason == "stall"
    assert run.gradient_norm > 0.0
    assert all(earlier > later for earlier, later in zip(run.trace, run.trace[1:]))
    (cut,) = _lockstep(fg, [np.array([1.0, 0.7])], run.iterations, 1e-300, 1e-18)
    assert cut.stop_reason == "max_iterations"
    assert (cut.evaluations, cut.trace) == (run.evaluations, run.trace)
    assert np.array_equal(cut.x, run.x)


def test_lockstep_lanes_match_lanes_run_alone():
    # four descents of different lengths and stop reasons run together, and
    # each alone: a lane's records do not depend on the others in the stack
    a = np.diag([1.0, 100.0, 3.0])

    def fg(xs):
        f = 0.5 * np.einsum("ri,ij,rj->r", xs, a, xs) + np.sum(xs**4, axis=1)
        return f, xs @ a + 4 * xs**3, xs, np.abs(f)

    starts = np.random.default_rng(5).normal(size=(4, 3))
    together = _lockstep(fg, starts, 30, 1e-10, 1e-12)
    assert len({run.iterations for run in together}) > 1
    for start, run in zip(starts, together):
        (alone,) = _lockstep(fg, [start], 30, 1e-10, 1e-12)
        assert np.array_equal(run.x, alone.x)
        assert (run.trace, run.iterations, run.stop_reason, run.gradient_norm) == (
            alone.trace,
            alone.iterations,
            alone.stop_reason,
            alone.gradient_norm,
        )


def test_restart_records_carry_stop_reason(collective_search, local_dephasing_search):
    for result in (collective_search, *local_dephasing_search.values()):
        for rec in result.per_restart:
            assert rec.stop_reason in ("gradient", "stall", "max_iterations", "line_search")
            assert rec.converged == (rec.stop_reason in ("gradient", "stall"))
            assert rec.degraded == (rec.stop_reason == "line_search")
            assert np.isfinite(rec.gradient_norm) and rec.gradient_norm >= 0.0


def test_bfgs_identity_channel_converges_at_start():
    ch = identity_channel(4)
    rng = np.random.default_rng(0)
    [out] = bfgs_maximize(
        ch, (2, 2), {(): _initial_point(4, rng)}, SearchConfig(candidate_dims=((2, 2),))
    )
    assert out.iterations == 0
    assert out.converged
    assert abs(out.final_j - 1.0) <= 1e-12


def test_bfgs_dimension_checks(collective_channel):
    cfg = SearchConfig(candidate_dims=((2, 2),))
    with pytest.raises(ValidationError):
        bfgs_maximize(collective_channel, (3, 3), {(): zero_params(8)}, cfg)
    with pytest.raises(ValidationError):
        bfgs_maximize(collective_channel, (2, 2), {(): zero_params(4)}, cfg)


def test_find_mns_runs_one_descent_per_restart(collective_channel, monkeypatch):
    # one stage: each restart is one descent, and a DFS winner gets no
    # second pass after the restarts
    lanes, rows = _count_evaluations(monkeypatch)
    # find_mns looks bfgs_maximize up as a module global, so a wrapper
    # installed there sees one call per dims pair with all of its restarts
    ascents, ascend = [], mns.search.bfgs_maximize
    monkeypatch.setattr(
        mns.search,
        "bfgs_maximize",
        lambda channel, dims, initials, config: ascents.append((dims, list(initials)))
        or ascend(channel, dims, initials, config),
    )
    config = SearchConfig(num_restarts=2, seed=1, candidate_dims=((2, 1), (2, 2)))
    results = find_mns(collective_channel, config)
    assert ascents == [((2, 1), [(1, 0, 0), (1, 0, 1)]), ((2, 2), [(1, 1, 0), (1, 1, 1)])]
    assert results[(2, 2)].is_dfs
    assert len(lanes) == config.num_restarts * len(config.candidate_dims)
    records = [(dims, rec) for dims, res in results.items() for rec in res.per_restart]
    for points, (dims, rec) in zip(lanes, records):
        assert points and len(set(points)) == len(points)
        if dims == (2, 2):
            assert len(points) <= 1.1 * rec.iterations + 1
    assert sorted(rows) == sorted(x for points in lanes for x in points)


def test_find_mns_collective_model_is_dfs(collective_channel, collective_search):
    assert collective_search.is_dfs
    assert collective_search.best_j >= 1.0 - 1e-6
    assert collective_search.dims == (2, 2, 4)
    # the first-order Kraus set overshoots by exactly dt^2 at the true optimum
    assert abs(collective_search.best_j - (1.0 + 1e-6)) <= 1e-12


def test_find_mns_best_is_max_of_restarts(collective_search, local_dephasing_search):
    for result in (collective_search, local_dephasing_search[(2, 1)]):
        finals = [rec.final_j for rec in result.per_restart]
        assert result.best_j == max(finals)
        assert result.per_restart[result.best_restart].final_j == max(finals)


def test_find_mns_agreement_fraction(collective_search):
    finals = np.array([rec.final_j for rec in collective_search.per_restart])
    expected = float(np.mean(finals >= finals.max() - 1e-6))
    assert collective_search.agreement_fraction == expected
    assert collective_search.agreement_fraction > 0.0


def test_find_mns_two_dim_subspace_inside_double_excitation(local_dephasing_search):
    result = local_dephasing_search[(2, 1)]
    p = subspace_projector(result)
    assert containment_defect(p, P_TWO_EXCITED) <= 1e-6
    # and nowhere near the mirror-image subspace
    assert containment_defect(p, P_ONE_EXCITED) > 0.9


def test_find_mns_qutrit_space_matches_excitation_subspace(local_dephasing_search):
    result = local_dephasing_search[(3, 1)]
    p = subspace_projector(result)
    d = min(
        projector_distance(p, P_TWO_EXCITED), projector_distance(p, P_ONE_EXCITED)
    )
    assert d <= 1e-6


def test_find_mns_perturbed_model_not_dfs():
    v = random_perturbation_unitary(8, 0.1, "global", seed=9)
    ch = lindblad_to_kraus(perturbed_collective(3, 1.0, 1.0, v), 1e-3)
    res = find_mns(ch, SearchConfig(num_restarts=3, seed=1, candidate_dims=((2, 2),)))
    assert not res[(2, 2)].is_dfs
    assert res[(2, 2)].best_j < 1.0 - 1e-6


def test_find_mns_near_dfs_optimum_with_commutation_defect_is_not_dfs():
    # configs/determinism_small.json at delta = 0.05: the best J lies within
    # 1e-6 of 1, yet the encoding fails the commutation check.
    v = random_perturbation_unitary(8, 0.05, "global", seed=9)
    model = perturbed_collective(3, 1.0, 1.0, v)
    channel = lindblad_to_kraus(model, default_dt(model))
    config = SearchConfig(num_restarts=3, max_iterations=400, seed=5, candidate_dims=((2, 2),))
    result = find_mns(channel, config)[(2, 2)]
    assert result.best_j >= 1.0 - 1e-6
    passed, defect, _ = dfs_check(channel, realize(result.best_params)[:4], 2, 2)
    assert not passed and defect > 1e-4
    assert not result.is_dfs
    assert result.best_j == max(rec.final_j for rec in result.per_restart)


def test_best_j_invariant_across_master_seeds(
    collective_channel, collective_search, local_dephasing_channel, local_dephasing_search
):
    res8 = find_mns(
        collective_channel, SearchConfig(num_restarts=2, seed=2, candidate_dims=((2, 2),))
    )
    assert abs(res8[(2, 2)].best_j - collective_search.best_j) <= 1e-6
    res10 = find_mns(
        local_dephasing_channel,
        SearchConfig(num_restarts=4, seed=2, candidate_dims=((2, 1), (3, 1)), **TIGHT),
    )
    for dims in ((2, 1), (3, 1)):
        assert abs(res10[dims].best_j - local_dephasing_search[dims].best_j) <= 1e-6


def test_restarts_agreeing_in_j_describe_same_subspace(
    local_dephasing_channel, local_dephasing_search
):
    # rerun the two best restarts of the qutrit search (seeds are derived from
    # (master, dims index, restart index)) and compare their subspaces
    result = local_dephasing_search[(3, 1)]
    order = sorted(result.per_restart, key=lambda rec: -rec.final_j)
    top_two = order[:2]
    assert abs(top_two[0].final_j - top_two[1].final_j) <= 1e-9
    config = SearchConfig(num_restarts=20, seed=1, candidate_dims=((2, 1), (3, 1)), **TIGHT)
    projs = []
    for rec in top_two:
        rng = np.random.default_rng(np.random.SeedSequence(tuple(rec.seed)))
        [out] = bfgs_maximize(
            local_dephasing_channel, (3, 1), {(): _initial_point(8, rng)}, config
        )
        assert out.final_j == rec.final_j
        v = out.isometry_final
        projs.append(dagger(v) @ v)
    assert projector_distance(projs[0], projs[1]) <= 1e-6


def test_restarts_in_the_stack_are_bitwise_the_restarts_alone():
    # configs/sz_local_dephasing_n3.json, dims (2, 1), seed 1, nine restarts:
    # each record and final point is the same to the bit as the restart run
    # on its own, though the lanes stop at different iterations
    config = load_config(CONFIG_DIR / "sz_local_dephasing_n3.json")
    channel = build_channel(config)
    search = replace(config.search, seed=1, num_restarts=9, candidate_dims=((2, 1),))
    result = find_mns(channel, search)[(2, 1)]
    assert [rec.seed for rec in result.per_restart] == [(1, 0, r) for r in range(9)]
    assert len({rec.iterations for rec in result.per_restart}) > 1
    initials = {
        rec.seed: _initial_point(8, np.random.default_rng(np.random.SeedSequence(rec.seed)))
        for rec in result.per_restart
    }
    stacked = bfgs_maximize(channel, (2, 1), initials, search)
    for rec, initial, lane in zip(result.per_restart, initials.values(), stacked):
        [alone] = bfgs_maximize(channel, (2, 1), {(): initial}, search)
        assert (alone.index, alone.seed) == (0, ())
        assert (rec.trace, rec.iterations, rec.stop_reason, rec.gradient_norm) == (
            alone.trace,
            alone.iterations,
            alone.stop_reason,
            alone.gradient_norm,
        )
        assert rec.final_j == alone.final_j and rec.converged == alone.converged
        assert (lane.index, lane.seed, lane.trace) == (rec.index, rec.seed, alone.trace)
        assert rec.isometry_final.tobytes() == alone.isometry_final.tobytes()
        assert lane.isometry_final.tobytes() == alone.isometry_final.tobytes()
    assert result.best_params == chart_of(stacked[result.best_restart].isometry_final)


def test_find_mns_charts_only_the_winners(monkeypatch):
    # one chart_of per dimension pair, for the winning restart; the other
    # lanes keep their final isometry uncharted
    charted = []
    chart_of = mns.search.chart_of
    monkeypatch.setattr(mns.search, "chart_of", lambda u: charted.append(1) or chart_of(u))
    config = load_config(CONFIG_DIR / "sz_local_dephasing_n3.json")
    search = replace(config.search, seed=1, num_restarts=3, candidate_dims=((2, 1), (3, 1)))
    results = find_mns(build_channel(config), search)
    assert len(charted) == 2
    for result in results.values():
        assert len(result.per_restart) == 3


# find-mns's is_dfs verdicts on each bundled config
BUNDLED_IS_DFS = {
    "collective_xz_n3": {(2, 2): True},
    "determinism_small": {(2, 2): False},
    "perturbed_global_delta_sweep": {(2, 2): False},
    "perturbed_global_tf_sweep": {(2, 2): False},
    "perturbed_local_delta_sweep": {(2, 2): True},
    "sz_local_dephasing_n3": {(2, 1): False, (3, 1): False},
}


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIG_DIR.glob("*.json")))
def test_find_mns_realizes_only_the_start_points(name, monkeypatch):
    # realize builds each restart's start point and nothing else: the
    # winner's dfs_check runs on the isometry its chart point comes from,
    # and gives the verdict that the chart point realized again gets
    realized = []

    def counting(params):
        out = realize(params)
        realized.append(1 if out.ndim == 2 else len(out))  # a stack counts its rows
        return out

    monkeypatch.setattr(mns.search, "realize", counting)
    config = load_config(CONFIG_DIR / f"{name}.json")
    channel = build_channel(config)
    results = find_mns(channel, config.search)
    assert sum(realized) == config.search.num_restarts * len(results)
    assert {dims: result.is_dfs for dims, result in results.items()} == BUNDLED_IS_DFS[name]
    for (n1, n2), result in results.items():
        assert dfs_check(channel, realize(result.best_params)[: n1 * n2], n1, n2)[0] == result.is_dfs


def test_identical_searches_compare_equal(collective_channel):
    # == answers for a SearchResult: the chart coordinates compare entry by
    # entry, and a search from another seed differs
    config = SearchConfig(num_restarts=2, seed=1, candidate_dims=((2, 2),))
    first, again = (find_mns(collective_channel, config)[(2, 2)] for _ in range(2))
    assert first == again
    assert first != find_mns(collective_channel, replace(config, seed=2))[(2, 2)]


def test_subspace_projector_properties(collective_search):
    p = subspace_projector(collective_search)
    assert np.abs(p - dagger(p)).max() <= 1e-12
    assert np.abs(p @ p - p).max() <= 1e-12
    assert abs(np.trace(p).real - 4.0) <= 1e-10
    eig = np.linalg.eigvalsh(p)
    assert int(np.sum(eig > 0.5)) == 4


def test_projector_distance_and_containment():
    p = block_projector(2, 4)
    q = block_projector(3, 4)
    assert projector_distance(p, p) == 0.0
    assert containment_defect(p, q) <= 1e-15
    assert containment_defect(q, p) == 1.0


def test_find_mns_four_qubit_collective_encoding_is_exact():
    model = collective_xz(4, 1.0, 1.0)
    channel = lindblad_to_kraus(model, default_dt(model))
    config = SearchConfig(num_restarts=1, seed=1, candidate_dims=((2, 1),))
    result = find_mns(channel, config)[(2, 1)]
    assert result.is_dfs
    ok, defect, _ = dfs_check(channel, realize(result.best_params)[:2], 2, 1, threshold=1e-8)
    assert ok, defect


def test_find_mns_four_qubit_three_copies_of_spin_one_in_few_iterations():
    # 4-qubit collective x+z, dims (3, 3), one restart at seed 1: a restart
    # kept on the isometries resolves the three j = 1 copies to a tenth of
    # dfs_check's threshold within 100 iterations
    model = collective_xz(4, 1.0, 1.0)
    channel = lindblad_to_kraus(model, default_dt(model))
    config = SearchConfig(num_restarts=1, seed=1, candidate_dims=((3, 3),))
    result = find_mns(channel, config)[(3, 3)]
    assert result.is_dfs
    assert result.per_restart[0].iterations <= 100
    ok, defect, _ = dfs_check(channel, realize(result.best_params)[:9], 3, 3, threshold=1e-9)
    assert ok, defect


def test_find_mns_rejects_oversized_dims(collective_channel):
    with pytest.raises(ValidationError):
        find_mns(collective_channel, SearchConfig(candidate_dims=((3, 3),)))


def test_identity_channel_every_dims_optimal():
    ch = identity_channel(4)
    res = find_mns(ch, SearchConfig(num_restarts=1, seed=0, candidate_dims=((2, 1), (2, 2))))
    for dims, result in res.items():
        assert abs(result.best_j - 1.0) <= 1e-12
        assert result.is_dfs


@pytest.mark.parametrize("dims", [(2, 4), (3, 3)])
def test_find_mns_four_qubit_collective_subsystems(dims):
    # noiseless subsystems of 4-qubit collective x+z: the multiplicity factor
    # of j = 1 (+) j = 0 for (2, 4), and the three j = 1 copies for (3, 3).
    # The stall rule measures gains against R/dt, which vanishes here, not
    # against the completeness term left in f, so the restart runs on until
    # its gradient meets the tolerance, a tenth of dfs_check's threshold
    model = collective_xz(4, 1.0, 1.0)
    channel = lindblad_to_kraus(model, default_dt(model))
    config = SearchConfig(num_restarts=1, seed=1, candidate_dims=(dims,))
    result = find_mns(channel, config)[dims]
    assert result.is_dfs
    assert result.per_restart[0].stop_reason == "gradient"
    v = realize(result.best_params)[: dims[0] * dims[1]]
    ok, defect, _ = dfs_check(channel, v, *dims, threshold=1e-8)
    assert ok, defect
    assert defect <= 1e-9


def test_find_mns_local_dephasing_resolves_double_excitation_pair():
    # configs/sz_local_dephasing_n3.json, dims (2, 1), its seed and first nine
    # restarts: the optimum is span{|011>, |101>}, the two lowest local rates
    config = load_config(CONFIG_DIR / "sz_local_dephasing_n3.json")
    channel = build_channel(config)
    search = replace(config.search, num_restarts=9, candidate_dims=((2, 1),))
    result = find_mns(channel, search)[(2, 1)]
    target = np.diag([1.0 if i in (0b011, 0b101) else 0.0 for i in range(8)])
    assert projector_distance(subspace_projector(result), target) <= 1e-6
    # restart 4 is the first to reach it; with objective_tolerance 1e-18 the
    # lanes end on FLOOR_SLOPE once their slope is below f's rounding, not
    # after line searches of rounding noise (the slowest took 101 points)
    assert result.best_restart == 4
    assert abs(result.best_j - 0.9999203393062502) <= 1e-15
    assert max(rec.evaluations for rec in result.per_restart) <= 60


def test_find_mns_perturbed_restarts_agree_on_optimum():
    # delta = 0.1 of configs/perturbed_global_delta_sweep.json
    config = load_config(CONFIG_DIR / "perturbed_global_delta_sweep.json")
    channel = lindblad_to_kraus(build_model(replace(config.model, delta=0.1)), config.search.dt)
    result = find_mns(channel, config.search)[(2, 2)]
    assert len(result.per_restart) == 10
    finals = [rec.final_j for rec in result.per_restart]
    assert max(finals) - min(finals) <= 1e-8
