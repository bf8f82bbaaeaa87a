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
    pack_complex,
    polar,
    tangent,
    random_params,
    realize,
    realize_with_partials,
)
from oracles import (
    chart_of_by_rotations,
    haar_random_unitary,
    pack,
    realize_by_factors,
    unpack,
    zero_params,
)


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


def test_realize_matches_factor_by_factor_product():
    # realize applies one anti-diagonal of disjoint Givens factors at a time;
    # the product is the factor-by-factor one to the bit
    rng = np.random.default_rng(6)
    for dim in (1, 2, 3, 4, 5, 8, 16):
        for scale in (1.0, 1e-3):
            for _ in range(10):
                params = UnitaryParams(
                    dim,
                    scale * rng.uniform(-7, 7, num_phases(dim)),
                    scale * rng.uniform(-7, 7, num_angles(dim)),
                )
                assert np.array_equal(realize(params), realize_by_factors(params))


def _draw(rng, dim: int, scale: float) -> UnitaryParams:
    return UnitaryParams(
        dim,
        scale * rng.uniform(-7, 7, num_phases(dim)),
        scale * rng.uniform(-7, 7, num_angles(dim)),
    )


def _bits(a: np.ndarray) -> np.ndarray:
    """The bit patterns of a float array, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("dim", range(1, 17))
def test_stacked_realize_is_bitwise_the_points_realized_alone(dim):
    # the search realizes every restart's start in one call: each unitary of
    # the stack is the one realize gives its point alone, whatever shares it
    rng = np.random.default_rng(100 + dim)
    for size in (1, 2, 9):
        for scale in (1.0, 1e-3):
            points = [_draw(rng, dim, scale) for _ in range(size)]
            stack = realize(points)
            assert stack.shape == (size, dim, dim) and stack.flags.c_contiguous
            for point, u in zip(points, stack):
                assert np.array_equal(_bits(u), _bits(realize(point)))
    with pytest.raises(ValidationError):
        realize([])
    with pytest.raises(ValidationError):
        realize([zero_params(dim), zero_params(dim + 1)])


@pytest.mark.parametrize("dim", range(1, 17))
def test_chart_of_is_bitwise_the_rotation_by_rotation_peel(dim):
    # chart_of peels a column's Givens group with one recurrence on the
    # pivot row and one stacked update below it, with the arithmetic of one
    # rotation at a time, for the completion of every number of rows
    rng = np.random.default_rng(200 + dim)
    for scale in (1.0, 1e-3):
        for _ in range(10):
            u = realize(_draw(rng, dim, scale))
            for m in range(1, dim + 1):
                got, ref = chart_of(u[:m]), chart_of_by_rotations(u[:m])
                assert np.array_equal(_bits(got.phases), _bits(ref.phases))
                assert np.array_equal(_bits(got.angles), _bits(ref.angles))


@pytest.mark.parametrize("m,dim", [(1, 1), (1, 3), (2, 8), (4, 8), (3, 16)])
def test_polar_is_an_isometry_and_tangent_is_its_gradient(m, dim):
    rng = np.random.default_rng(10 + m + dim)
    g = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))

    def f(x):  # Re tr(G^dag polar(x))
        return np.real(np.vdot(g, polar(x, m)))

    v = polar(rng.standard_normal(2 * m * dim), m)
    assert np.abs(v @ dagger(v) - np.eye(m)).max() <= 1e-14
    x = pack_complex(v)
    assert np.array_equal(x, np.concatenate([v.real.ravel(), v.imag.ravel()]))
    # at the packing of V, tangent(V, G) is the gradient of f
    h = 1e-6
    fd = np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(x.size)])
    assert np.abs(tangent(v, g) - fd).max() <= 1e-7
    # and it is the projection G - (G V^dag + V G^dag) V / 2
    proj = g - 0.5 * (g @ dagger(v) + v @ dagger(g)) @ v
    flat_proj = np.concatenate([proj.real.ravel(), proj.imag.ravel()])
    assert np.abs(tangent(v, g) - flat_proj).max() <= 1e-13


@pytest.mark.parametrize("m,dim", [(1, 3), (2, 8), (3, 8), (4, 16)])
def test_polar_rows_of_a_stack_are_bitwise_stacks_of_one(m, dim):
    # the search evaluates every restart's point in one call: each row's
    # isometry and tangent gradient must not depend on which rows share the
    # stack
    rng = np.random.default_rng(m * dim)
    xs = rng.standard_normal((7, 2 * m * dim))
    gs = rng.standard_normal((7, m, dim)) + 1j * rng.standard_normal((7, m, dim))
    for lo, hi in ((0, 7), (2, 5), (3, 4)):
        v = polar(xs[lo:hi], m)
        projected = tangent(v, gs[lo:hi])
        for row in range(hi - lo):
            v1 = polar(xs[lo + row], m)
            assert np.array_equal(v[row], v1)
            assert np.array_equal(projected[row], tangent(v1, gs[lo + row]))
