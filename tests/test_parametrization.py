import numpy as np
import pytest

from mns.errors import ValidationError
from mns.linalg import dagger
from mns.parametrization import (
    UnitaryParams,
    chart_of,
    num_angles,
    num_phases,
    plane_pairs,
    polar,
    random_params,
    realize,
    realize_with_partials,
)
from oracles import haar_random_unitary, pack, unpack, zero_params


@pytest.mark.parametrize("dim,np_,na", [(1, 1, 0), (2, 3, 1), (3, 6, 3), (4, 10, 6), (8, 36, 28)])
def test_parameter_counts(dim, np_, na):
    assert num_phases(dim) == np_
    assert num_angles(dim) == na
    assert num_phases(dim) + num_angles(dim) == dim * dim
    assert len(plane_pairs(dim)) == na


def test_plane_pairs_lexicographic():
    assert plane_pairs(3) == ((0, 1), (0, 2), (1, 2))
    assert plane_pairs(4)[:4] == ((0, 1), (0, 2), (0, 3), (1, 2))


def test_params_validation():
    with pytest.raises(ValidationError):
        UnitaryParams(0, np.zeros(0), np.zeros(0))
    with pytest.raises(ValidationError):
        UnitaryParams(2, np.zeros(2), np.zeros(1))
    with pytest.raises(ValidationError):
        UnitaryParams(2, np.zeros(3), np.zeros(2))
    with pytest.raises(ValidationError):
        UnitaryParams(2, np.array([np.inf, 0.0, 0.0]), np.zeros(1))


def test_params_compare_entry_by_entry():
    rng = np.random.default_rng(3)
    params = UnitaryParams(3, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 3))
    assert params == UnitaryParams(3, params.phases.copy(), params.angles.copy())
    assert params != UnitaryParams(3, params.phases, params.angles + 1e-15)
    assert params != UnitaryParams(3, params.phases + 1e-15, params.angles)
    assert UnitaryParams(1, np.zeros(1), np.zeros(0)) != UnitaryParams(2, np.zeros(3), np.zeros(1))
    assert params != (3, params.phases, params.angles)


def test_zero_params_realize_exact_identity():
    for dim in (1, 2, 3, 5, 8):
        u = realize(zero_params(dim))
        assert np.array_equal(u, np.eye(dim, dtype=np.complex128))


def test_dim2_closed_form():
    # chart for dim 2: diag(e^{i p0}, e^{i p1}) times one plane rotation
    p0, p1, pp, th = 0.3, -0.7, 0.5, 1.1
    u = realize(UnitaryParams(2, np.array([p0, p1, pp]), np.array([th])))
    c, s = np.cos(th), np.sin(th)
    expected = np.array(
        [
            [np.exp(1j * p0) * c, -np.exp(1j * (p0 + pp)) * s],
            [np.exp(1j * (p1 - pp)) * s, np.exp(1j * p1) * c],
        ]
    )
    assert np.abs(u - expected).max() <= 1e-15


def test_realize_unitary_property():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4, 6, 8):
        for _ in range(5):
            params = UnitaryParams(
                dim,
                rng.uniform(-np.pi, np.pi, num_phases(dim)),
                rng.uniform(-np.pi, np.pi, num_angles(dim)),
            )
            u = realize(params)
            assert np.abs(dagger(u) @ u - np.eye(dim)).max() <= 1e-12


def test_realize_phase_periodicity():
    rng = np.random.default_rng(1)
    params = UnitaryParams(3, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 3))
    shifted = UnitaryParams(3, params.phases + 2 * np.pi, params.angles)
    assert np.abs(realize(params) - realize(shifted)).max() <= 1e-13


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(2)
    params = UnitaryParams(4, rng.standard_normal(10), rng.standard_normal(6))
    back = unpack(4, pack(params))
    assert np.array_equal(back.phases, params.phases)
    assert np.array_equal(back.angles, params.angles)
    with pytest.raises(ValidationError):
        unpack(4, np.zeros(15))


def test_random_params_norms_and_determinism():
    p = random_params(4, angle_norm=0.25, phase_norm=1.5, seed=7)
    assert abs(np.linalg.norm(p.angles) - 0.25) <= 1e-15
    assert abs(np.linalg.norm(p.phases) - 1.5) <= 1e-14
    q = random_params(4, angle_norm=0.25, phase_norm=1.5, seed=7)
    assert np.array_equal(pack(p), pack(q))
    z = random_params(3, angle_norm=0.0, seed=0)
    assert np.array_equal(realize(z), np.eye(3))
    with pytest.raises(ValidationError):
        random_params(3, angle_norm=-1.0)


def test_chart_covers_u2():
    # invert the chart in closed form for Haar-random 2x2 unitaries
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = haar_random_unitary(2, rng)
        th = np.arccos(min(1.0, abs(v[0, 0])))
        p0 = np.angle(v[0, 0])
        p1 = np.angle(v[1, 1])
        pp = np.angle(-v[0, 1]) - p0
        u = realize(UnitaryParams(2, np.array([p0, p1, pp]), np.array([th])))
        assert np.abs(u - v).max() <= 1e-10
    # and chart_of inverts it at every size, permutation matrices included
    for dim in (1, 2, 3, 4, 8, 16):
        perms = [np.eye(dim)[rng.permutation(dim)] for _ in range(3)]
        for u in [*(haar_random_unitary(dim, rng) for _ in range(10)), *perms]:
            assert np.abs(realize(chart_of(u)) - u).max() <= 1e-14


@pytest.mark.parametrize("dim", [4, 8])
def test_chart_of_encoded_rows_charts_their_qr_completion(dim):
    # given only m <= N orthonormal rows V, chart_of charts the unitary that
    # complete-mode QR of V^dag completes them to, and realize gives V back
    rng = np.random.default_rng(dim)
    for m in range(1, dim + 1):
        v = haar_random_unitary(dim, rng)[:m]
        params = chart_of(v)
        assert np.abs(realize(params)[:m] - v).max() <= 1e-14
        q = np.linalg.qr(dagger(v), mode="complete")[0]
        assert params == chart_of(np.vstack([v, dagger(q[:, m:])]))


def test_realize_with_partials_matches_realize():
    rng = np.random.default_rng(4)
    params = UnitaryParams(3, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 3))
    u, du = realize_with_partials(params)
    assert np.abs(u - realize(params)).max() <= 1e-14
    assert du.shape == (9, 3, 3)


def test_realize_with_partials_matches_finite_differences():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4):
        params = UnitaryParams(
            dim,
            rng.uniform(-np.pi, np.pi, num_phases(dim)),
            rng.uniform(-np.pi, np.pi, num_angles(dim)),
        )
        _, du = realize_with_partials(params)
        x0 = pack(params)
        h = 1e-6
        for i in range(x0.size):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            fd = (realize(unpack(dim, xp)) - realize(unpack(dim, xm))) / (2 * h)
            assert np.abs(du[i] - fd).max() <= 1e-8


def _realize_one_factor_at_a_time(params):
    """The chart product applied factor by factor, right to left."""
    n = params.dim
    u = np.eye(n, dtype=np.complex128)
    pairs = plane_pairs(n)
    for idx in range(len(pairs) - 1, -1, -1):
        i, j = pairs[idx]
        th = params.angles[idx]
        c, s = np.cos(th), np.sin(th)
        e = np.exp(1j * params.phases[n + idx])
        ri = u[i].copy()
        rj = u[j]
        u[i] = c * ri - e * s * rj
        u[j] = np.conj(e) * s * ri + c * rj
    return np.exp(1j * params.phases[:n])[:, None] * u


def test_realize_matches_factor_by_factor_product():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 4, 5, 8, 16):
        for scale in (1.0, 1e-3):
            params = UnitaryParams(
                dim,
                scale * rng.uniform(-7, 7, num_phases(dim)),
                scale * rng.uniform(-7, 7, num_angles(dim)),
            )
            assert np.array_equal(realize(params), _realize_one_factor_at_a_time(params))


@pytest.mark.parametrize("m,dim", [(1, 1), (1, 3), (2, 8), (4, 8), (3, 16)])
def test_polar_is_an_isometry_with_exact_pullback(m, dim):
    rng = np.random.default_rng(10 + m + dim)
    x = rng.standard_normal(2 * m * dim)
    a = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    def f(x):  # Re tr(A^dag V) + Re tr(V B V^dag)
        v = polar(x, m)[0]
        return np.real(np.vdot(a, v) + np.trace(v @ b @ dagger(v)))

    v, pullback = polar(x, m)
    assert np.abs(v @ dagger(v) - np.eye(m)).max() <= 1e-14
    grad = pullback(a + v @ dagger(b) + v @ b)
    h = 1e-6
    fd = np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(x.size)])
    assert np.abs(grad - fd).max() <= 1e-7
    # at an orthonormal X the pullback is the tangent projection
    g = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    v0, pullback0 = polar(np.concatenate([v.real.ravel(), v.imag.ravel()]), m)
    proj = g - 0.5 * (g @ dagger(v0) + v0 @ dagger(g)) @ v0
    flat_proj = np.concatenate([proj.real.ravel(), proj.imag.ravel()])
    assert np.abs(pullback0(g) - flat_proj).max() <= 1e-13


@pytest.mark.parametrize("m,dim", [(1, 3), (2, 8), (3, 8), (4, 16)])
def test_polar_rows_of_a_stack_are_bitwise_stacks_of_one(m, dim):
    # the search evaluates every restart's point in one call: each row's
    # isometry and pullback must not depend on which rows share the stack
    rng = np.random.default_rng(m * dim)
    xs = rng.standard_normal((7, 2 * m * dim))
    gs = rng.standard_normal((7, m, dim)) + 1j * rng.standard_normal((7, m, dim))
    for lo, hi in ((0, 7), (2, 5), (3, 4)):
        v, pullback = polar(xs[lo:hi], m)
        pulled = pullback(gs[lo:hi])
        for row in range(hi - lo):
            v1, pullback1 = polar(xs[lo + row], m)
            assert np.array_equal(v[row], v1)
            assert np.array_equal(pulled[row], pullback1(gs[lo + row]))
