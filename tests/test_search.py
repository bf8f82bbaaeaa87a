import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from mns.errors import ValidationError
from mns.experiments import build_channel, load_config
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
    SearchConfig,
    _initial_point,
    _lockstep,
    _wolfe_step,
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


def test_default_candidate_dims():
    assert default_candidate_dims(8) == ((2, 1), (2, 2), (2, 3), (2, 4))
    assert default_candidate_dims(8, n1=3) == ((3, 1), (3, 2))


def test_bfgs_from_optimum_terminates_immediately(collective_channel, collective_search):
    config = SearchConfig(num_restarts=1, candidate_dims=((2, 2),))
    out = bfgs_maximize(collective_channel, (2, 2), collective_search.best_params, config)
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
    # the collective restart converges through the line search alone; the
    # flat local-dephasing landscape also sends steps to the backtracking
    # fallback, which retries step lengths the line search already tried
    cases = (
        (collective_channel, (2, 2), SearchConfig(num_restarts=1)),
        (local_dephasing_channel, (2, 1), SearchConfig(num_restarts=1, **TIGHT)),
    )
    for channel, dims, config in cases:
        lanes.clear()
        rows.clear()
        rng = np.random.default_rng(np.random.SeedSequence((1, 0, 0)))
        out = bfgs_maximize(channel, dims, _initial_point(8, rng), config)
        assert out.converged and not out.degraded
        assert len(lanes) == 1
        seen = lanes[0]
        assert seen and rows == seen
        assert len(set(seen)) == len(seen)
        if dims == (2, 2):
            # one evaluation per iteration plus the start and the rare extra
            # line-search trial (the unfused loop made about three)
            assert len(seen) <= 1.1 * out.iterations + 1


def test_bfgs_minimize_reports_each_stop_reason():
    # f = x^T A x / 2 on an ill-conditioned quadratic, from f(x0) = 25
    a = np.diag([1.0, 100.0])
    x0 = np.array([1.0, 0.7])

    def fg(xs):
        return 0.5 * np.einsum("ri,ij,rj->r", xs, a, xs), xs @ a

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
        ("max_iterations", (fg, x0, 1, 1e-30, 0.0), lambda run: run.iterations == 1),
        # a gradient of the wrong sign: no step along -grad lowers f
        (
            "line_search",
            (lambda xs: (0.5 * np.einsum("ri,ri->r", xs, xs), -xs), x0, 100, 1e-30, 0.0),
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


def test_lockstep_lanes_match_lanes_run_alone():
    # four descents of different lengths and stop reasons run together, and
    # each alone: a lane's records do not depend on the others in the stack
    a = np.diag([1.0, 100.0, 3.0])

    def fg(xs):
        return 0.5 * np.einsum("ri,ij,rj->r", xs, a, xs) + np.sum(xs**4, axis=1), xs @ a + 4 * xs**3

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


def _test_functions(rng, n):
    """(f, grad f) of a random convex quadratic, a quartic with a random
    quadratic part, and the Rosenbrock function, in n variables."""
    a = rng.normal(size=(n, n))
    a = a @ a.T + 0.1 * np.eye(n)
    b = rng.normal(size=n)
    c = rng.normal(size=(n, n))
    c = c + c.T
    return (
        (lambda x: 0.5 * x @ a @ x - b @ x, lambda x: a @ x - b),
        (lambda x: np.sum(x**4) + 0.5 * x @ c @ x, lambda x: 4 * x**3 + c @ x),
        (scipy.optimize.rosen, scipy.optimize.rosen_der),
    )


def _answer(search, f, g, x, p):
    """Drive a line search over phi(alpha) = f(x + alpha p), answering each
    step length it yields with (phi(alpha), phi'(alpha)) computed as SciPy's
    ``line_search`` computes them, and return its result."""
    alpha = next(search)
    while True:
        y = x + alpha * p
        try:
            alpha = search.send((f(y), np.dot(g(y), p)))
        except StopIteration as stop:
            return stop.value


def test_wolfe_step_is_scipy_line_search(monkeypatch):
    # the port must take SciPy's trial steps to the bit: random lines along
    # descent directions and along arbitrary ones (where the zoom fails),
    # with steps from 1e-3 to 1e3 times the gradient
    zooms = []
    zoom = mns.search._zoom
    monkeypatch.setattr(mns.search, "_zoom", lambda *args: zooms.append(1) or (yield from zoom(*args)))
    rng = np.random.default_rng(15)
    failed = 0
    for trial in range(200):
        n = int(rng.integers(2, 6))
        for f, g in _test_functions(rng, n):
            x = rng.normal(size=n)
            fx, gx = f(x), g(x)
            p = -gx if trial % 2 else rng.normal(size=n)
            p = p * 10.0 ** rng.uniform(-3, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                alpha, _, _, f_new, _, _ = scipy.optimize.line_search(
                    f, g, x, p, gfk=gx, old_fval=fx, c1=1e-4, c2=0.9, maxiter=25
                )
            assert _answer(_wolfe_step(fx, np.dot(gx, p)), f, g, x, p) == (alpha, f_new)
            failed += alpha is None
    assert len(zooms) > 300 and 10 < failed < 300


def test_wolfe_step_returns_last_doubling_when_it_runs_out():
    # along -grad of a linear f the slope never flattens: 25 doublings of
    # alpha = 1 and SciPy's answer is the last trial, 2^25
    c = np.array([1.0, -2.0, 0.5])

    def f(x):
        return c @ x

    def g(x):
        return c

    x = np.array([0.3, 0.1, -0.2])
    step = _answer(_wolfe_step(f(x), np.dot(c, -c)), f, g, x, -c)
    assert step == (2.0**25, f(x - 2.0**25 * c))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = scipy.optimize.line_search(f, g, x, -c, gfk=c, old_fval=f(x), maxiter=25)
    assert step == (expected[0], expected[3])


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
    out = bfgs_maximize(
        ch, (2, 2), _initial_point(4, rng), SearchConfig(candidate_dims=((2, 2),))
    )
    assert out.iterations == 0
    assert out.converged
    assert abs(out.final_j - 1.0) <= 1e-12


def test_bfgs_dimension_checks(collective_channel):
    cfg = SearchConfig(candidate_dims=((2, 2),))
    with pytest.raises(ValidationError):
        bfgs_maximize(collective_channel, (3, 3), zero_params(8), cfg)
    with pytest.raises(ValidationError):
        bfgs_maximize(collective_channel, (2, 2), zero_params(4), cfg)


def test_find_mns_runs_one_descent_per_restart(collective_channel, monkeypatch):
    # one stage: each restart is one descent, and a DFS winner gets no
    # second pass after the restarts
    lanes, rows = _count_evaluations(monkeypatch)
    config = SearchConfig(num_restarts=2, seed=1, candidate_dims=((2, 1), (2, 2)))
    results = find_mns(collective_channel, config)
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
        out = bfgs_maximize(
            local_dephasing_channel, (3, 1), _initial_point(8, rng), config
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
    stacked = mns.search._ascend(channel, (2, 1), initials, search)
    for rec, initial, lane in zip(result.per_restart, initials.values(), stacked):
        alone = bfgs_maximize(channel, (2, 1), initial, search)
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
    monkeypatch.setattr(mns.search, "realize", lambda p: realized.append(1) or realize(p))
    config = load_config(CONFIG_DIR / f"{name}.json")
    channel = build_channel(config)
    results = find_mns(channel, config.search)
    assert len(realized) == config.search.num_restarts * len(results)
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
    # of j = 1 (+) j = 0 for (2, 4), and the three j = 1 copies for (3, 3)
    model = collective_xz(4, 1.0, 1.0)
    channel = lindblad_to_kraus(model, default_dt(model))
    config = SearchConfig(num_restarts=1, seed=1, candidate_dims=(dims,))
    result = find_mns(channel, config)[dims]
    assert result.is_dfs
    v = realize(result.best_params)[: dims[0] * dims[1]]
    ok, defect, _ = dfs_check(channel, v, *dims, threshold=1e-8)
    assert ok, defect


def test_find_mns_local_dephasing_resolves_double_excitation_pair():
    # configs/sz_local_dephasing_n3.json, dims (2, 1), its seed and first nine
    # restarts: the optimum is span{|011>, |101>}, the two lowest local rates
    config = load_config(CONFIG_DIR / "sz_local_dephasing_n3.json")
    channel = build_channel(config)
    search = replace(config.search, num_restarts=9, candidate_dims=((2, 1),))
    result = find_mns(channel, search)[(2, 1)]
    target = np.diag([1.0 if i in (0b011, 0b101) else 0.0 for i in range(8)])
    assert projector_distance(subspace_projector(result), target) <= 1e-6


def test_find_mns_perturbed_restarts_agree_on_optimum():
    # delta = 0.1 of configs/perturbed_global_delta_sweep.json
    config = load_config(CONFIG_DIR / "perturbed_global_delta_sweep.json")
    channel = build_channel(config, delta_override=0.1)
    result = find_mns(channel, config.search)[(2, 2)]
    assert len(result.per_restart) == 10
    finals = [rec.final_j for rec in result.per_restart]
    assert max(finals) - min(finals) <= 1e-8
