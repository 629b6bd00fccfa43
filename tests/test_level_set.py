"""Stacked level-set evaluation and the stacked projection.

A ``ConstraintModel`` implements d, grad_d and hess_d over a stack of
points (each shipped level set in one array pass, the ellipsoid's
closest-point Newton on all rows at once), and ``geodesic._project_rows``
projects a whole stack by one masked Newton iteration.  These tests pin
the per-point views against the rows of the stacked methods, the
ellipsoid's closed-form Hessian against the per-point central-difference
Jacobian, its distance deep inside and on its medial axis against closed
forms and a surface grid, the projection against a per-row reference, its
stop on points with no projection, and the sdf-sphere and ellipsoid solves
against a per-point constraint.  The geodesic's start
(the projected line re-spaced to equal chords) and its least-squares
multipliers are pinned by the iterations and start residuals they buy,
and each Newton kernel's level-set calls per residual and per step, and
its one projection of its start, by a logging sphere.
"""

import warnings

import numpy as np
import pytest

from geocalc import (
    DiscretePath,
    SolverError,
    discrete_exp,
    inverse_transport,
    log2,
    parallel_transport,
    project_onto_level_set,
    sdf_spring_model,
    solve_geodesic,
)
from geocalc import geodesic
from geocalc.cli import main
from geocalc.core import _FD_STEP
from geocalc.geodesic import ConstraintModel, _constraint_view, _project_rows
from geocalc.models import CircleSdf, EllipsoidSdf, SphereSdf

from fd_reference import central_jacobian


def _points(seed, n, d, radius=(0.5, 1.5)):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True) * rng.uniform(*radius, size=(n, 1))


class PerPointSphere(ConstraintModel):
    """Signed distance to the unit sphere, point by point with np.linalg.norm.

    Its stacked methods loop over the rows, so a solve with it is the
    per-point reference for a solve with ``SphereSdf``.
    """

    def d_stacked(self, xs):
        return np.array([float(np.linalg.norm(x)) - 1.0 for x in xs])

    def grad_d_stacked(self, xs):
        return np.array([x / np.linalg.norm(x) for x in xs]).reshape(np.shape(xs))

    def hess_d_stacked(self, xs):
        n, d = np.shape(xs)
        out = np.empty((n, d, d))
        for i, x in enumerate(xs):
            r = np.linalg.norm(x)
            u = x / r
            out[i] = (np.eye(d) - np.outer(u, u)) / r
        return out


class PerPointEllipsoid(ConstraintModel):
    """Signed distance to an axis-aligned ellipsoid, point by point: Newton
    on phi(s) = sum x^2 a^2 / (b + s)^2 - 1, b = a^2 - min a^2, in Python
    floats over the terms of the nonzero x, clamped at s0 = max a |x| - b
    over the nonzero x, the medial axis's closest point in closed form, and
    hess_d = (I + d W)^-1 W from the closest point, NaN where I + d W is
    singular.

    Its stacked methods loop over the rows, so a solve with it is the
    per-point reference for a solve with ``EllipsoidSdf``, which runs the
    same Newton on a whole stack at once.
    """

    def __init__(self, semi_axes):
        self.semi_axes = np.asarray(semi_axes, dtype=float)

    def _closest_point(self, x):
        a, a2 = self.semi_axes, self.semi_axes**2
        m, b = int(np.argmin(a)), a2 - a2.min()
        s0 = max(float(ai * abs(xi) - bi) for ai, bi, xi in zip(a, b, x) if xi != 0)
        s = float(a2[m])
        x2a2 = x**2 * a2
        live = x2a2 != 0
        for _ in range(100):
            denom = b[live] + s
            phi = float(np.sum(x2a2[live] / denom**2)) - 1.0
            if abs(phi) < 1e-14:
                break
            s = max(s - phi / float(np.sum(-2.0 * x2a2[live] / denom**3)), s0)
        if s > 0:
            return x * a2 / (b + s)
        # the medial axis: x_m = 0 and s = 0; the closest point with p_m >= 0
        p = np.array([xi * a2i / bi if xi != 0 else 0.0 for xi, a2i, bi in zip(x, a2, b)])
        p[m] = a[m] * np.sqrt(max(1.0 - float(np.sum(p**2 / a2)), 0.0))
        return p

    def _normal(self, x):
        """The closest point's outward normal p / a^2, and its norm."""
        g = self._closest_point(x) / self.semi_axes**2
        return g, np.sqrt(float(np.sum(g**2)))

    def d_stacked(self, xs):
        level = [float(np.sum(x**2 / self.semi_axes**2)) - 1.0 for x in xs]
        return np.array([np.sign(v) * np.sqrt(np.sum((x - self._closest_point(x)) ** 2)) for v, x in zip(level, xs)])

    def grad_d_stacked(self, xs):
        return np.array([g / norm for g, norm in map(self._normal, xs)]).reshape(np.shape(xs))

    def hess_d_stacked(self, xs):
        n, d = np.shape(xs)
        out = np.empty((n, d, d))
        for i, (x, dist) in enumerate(zip(xs, self.d_stacked(xs))):
            g, norm = self._normal(x)
            proj = np.eye(d) - np.outer(g / norm, g / norm)
            w = proj / self.semi_axes**2 @ proj / norm
            mat = np.eye(d) + dist * w
            out[i] = np.linalg.solve(mat, w) if np.linalg.det(mat) != 0 else np.nan
        return out


class SquaredRadius(ConstraintModel):
    """d(x) = |x|^2 - 1: not a distance, so projection needs more iterations
    the farther a point starts; records the size of every d_stacked stack."""

    def __init__(self):
        self.stack_sizes = []

    def d_stacked(self, xs):
        self.stack_sizes.append(len(xs))
        return np.sum(np.square(xs), axis=1) - 1.0

    def grad_d_stacked(self, xs):
        return 2.0 * np.asarray(xs, dtype=float)

    def hess_d_stacked(self, xs):
        n, d = np.shape(xs)
        return np.broadcast_to(2.0 * np.eye(d), (n, d, d))


def _reference_projection(p, constraint, tol=1e-12, max_iter=50):
    """Per-row Newton projection; returns the point and its count of d evaluations."""
    for n in range(1, max_iter + 1):
        val = constraint.d(p)
        if abs(val) <= tol:
            return p, n
        g = constraint.grad_d(p)
        p = p - val * g / float(g @ g)
    raise AssertionError("reference projection did not converge")


@pytest.mark.parametrize(
    "surface, d", [(CircleSdf(), 2), (SphereSdf(), 3), (EllipsoidSdf([1.0, 0.7, 1.3]), 3)]
)
def test_stacked_constraint_matches_per_point(surface, d):
    # the per-point methods are views of a stack of one: bitwise the rows
    xs = _points(d, 9, d, radius=(0.8, 1.2))
    np.testing.assert_array_equal(surface.d_stacked(xs), [surface.d(x) for x in xs])
    np.testing.assert_array_equal(surface.grad_d_stacked(xs), [surface.grad_d(x) for x in xs])
    np.testing.assert_array_equal(surface.hess_d_stacked(xs), [surface.hess_d(x) for x in xs])
    assert surface.d_stacked(xs).shape == (9,)
    assert surface.grad_d_stacked(xs).shape == (9, d)
    assert surface.hess_d_stacked(xs).shape == (9, d, d)
    assert surface.hess_d_stacked(xs[:0]).shape == (0, d, d)


def test_every_level_set_defines_its_three_stacked_methods():
    for name in ("d_stacked", "grad_d_stacked", "hess_d_stacked"):
        assert name in vars(CircleSdf)
        assert name in vars(EllipsoidSdf)
        assert getattr(SphereSdf, name) is getattr(CircleSdf, name)


def test_constraint_model_refuses_a_per_point_only_subclass():
    class PerPointOnly(ConstraintModel):
        def d(self, x):
            return float(np.linalg.norm(x)) - 1.0

        def grad_d(self, x):
            return np.asarray(x, dtype=float) / np.linalg.norm(x)

    class NoHessian(ConstraintModel):
        def d_stacked(self, xs):
            return np.linalg.norm(xs, axis=1) - 1.0

        def grad_d_stacked(self, xs):
            return np.asarray(xs, dtype=float) / np.linalg.norm(xs, axis=1, keepdims=True)

    for subclass in (PerPointOnly, NoHessian):
        with pytest.raises(TypeError, match="abstract"):
            subclass()
    assert ConstraintModel.__abstractmethods__ == {"d_stacked", "grad_d_stacked", "hess_d_stacked"}


def _ellipsoid_probe(axes):
    """2,000 points at offsets -0.15..0.3 along the outward normal from
    points of the ellipsoid's surface."""
    rng = np.random.default_rng(17)
    u = rng.normal(size=(2000, 3))
    p = u / np.linalg.norm(u, axis=1, keepdims=True) * axes
    normal = p / np.square(axes)
    offset = rng.uniform(-0.15, 0.3, size=(2000, 1))
    return p + offset * normal / np.linalg.norm(normal, axis=1, keepdims=True)


def test_ellipsoid_hess_d_matches_the_per_point_fd_jacobian():
    # the closed form against central differences of the gradient, point by
    # point; it annihilates the normal
    surface = EllipsoidSdf([1.0, 0.8, 0.6])
    xs = _ellipsoid_probe(surface.semi_axes)
    hess, grad = surface.hess_d_stacked(xs), surface.grad_d_stacked(xs)
    for x, h in zip(xs, hess):
        np.testing.assert_allclose(h, central_jacobian(surface.grad_d, x, _FD_STEP), rtol=0, atol=1e-8)
    assert np.abs(np.einsum("nij,nj->ni", hess, grad)).max() <= 1e-14


def _medial_closest_point(x, axes):
    """The closest point, with p_m >= 0, of a point x with x_m = 0 on the
    ellipsoid's medial axis, m its smallest semi-axis (Eberly 2013)."""
    a2 = np.square(axes)
    m = int(np.argmin(axes))
    p = np.array([xi * ai / (ai - a2[m]) if i != m else 0.0 for i, (xi, ai) in enumerate(zip(x, a2))])
    p[m] = axes[m] * np.sqrt(1.0 - np.sum(p**2 / a2))
    return p


def _surface_grid(axes, n=200):
    """Points of the ellipsoid's surface on a coarse latitude-longitude grid."""
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi, n), np.linspace(0.0, 2.0 * np.pi, 2 * n))
    u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1)
    return u.reshape(-1, 3) * axes


@pytest.mark.parametrize("axes", [(1.0, 0.7, 1.3), (1.0, 0.8, 0.6), (3.0, 0.5, 1.0)])
def test_ellipsoid_distance_is_exact_deep_inside(axes):
    axes = np.array(axes)
    surface = EllipsoidSdf(axes)
    # (0.1, 0, 0) lies on the medial axis: its closest point leaves the plane
    x = np.array([0.1, 0.0, 0.0])
    p = _medial_closest_point(x, axes)
    assert abs(surface.d(x) + np.linalg.norm(x - p)) <= 1e-12
    np.testing.assert_allclose(surface.grad_d(x), (p - x) / np.linalg.norm(x - p), rtol=0, atol=1e-12)
    # points of every principal plane near the centre, and farther out
    rng = np.random.default_rng(5)
    xs = []
    for k in range(3):
        for radius in (1e-3, 0.5):
            plane = rng.uniform(-radius, radius, size=(10, 3))
            plane[:, k] = 0.0
            xs.append(plane)
    xs = np.concatenate(xs)
    d, grad = surface.d_stacked(xs), surface.grad_d_stacked(xs)
    p = xs - d[:, None] * grad
    np.testing.assert_allclose(np.sum(p**2 / axes**2, axis=1), 1.0, rtol=0, atol=1e-14)
    normal = p / axes**2
    np.testing.assert_allclose(grad, normal / np.linalg.norm(normal, axis=1, keepdims=True), rtol=0, atol=1e-12)
    grid = _surface_grid(axes)
    for x, dist in zip(xs, d):
        assert abs(dist) <= np.linalg.norm(grid - x, axis=1).min() + 1e-12


def test_ellipsoid_distance_where_a_zero_coordinate_meets_its_pole():
    # the clamp can put s exactly at b_i + s = 0 for a zero x_i, whose term
    # of phi must then stay out rather than turn 0 / 0
    x = np.array([0.5, 0.75, 0.0])
    axes = np.array([2.0, 1.0, 0.5])
    surface = EllipsoidSdf(axes)
    d, grad = surface.d(x), surface.grad_d(x)
    p = x - d * grad
    assert d < 0 and abs(np.sum(p**2 / axes**2) - 1.0) <= 1e-14 and p[2] == 0.0
    np.testing.assert_allclose(grad, p / axes**2 / np.linalg.norm(p / axes**2), rtol=0, atol=1e-12)
    assert abs(d) <= np.linalg.norm(_surface_grid(axes) - x, axis=1).min() + 1e-12
    # (1.5, 0, 0) on (2, 1, 1): the closest point is the pole (2, 0, 0), and
    # x is its centre of curvature, where hess_d is unbounded: NaN in its row
    # alone, as in the per-point reference
    surface, looped = EllipsoidSdf([2.0, 1.0, 1.0]), PerPointEllipsoid([2.0, 1.0, 1.0])
    xs = np.array([[1.5, 0.0, 0.0], [1.2, 0.3, 0.1]])
    assert surface.d_stacked(xs)[0] == -0.5
    assert np.array_equal(surface.grad_d_stacked(xs)[0], [1.0, 0.0, 0.0])
    hess = surface.hess_d_stacked(xs)
    assert np.isnan(hess[0]).all()
    np.testing.assert_allclose(hess[1], central_jacobian(surface.grad_d, xs[1], _FD_STEP), rtol=0, atol=1e-8)
    np.testing.assert_allclose(hess, looped.hess_d_stacked(xs), rtol=0, atol=1e-15)
    np.testing.assert_allclose(surface.d_stacked(xs), looped.d_stacked(xs), rtol=0, atol=1e-15)


def test_level_set_view_stacks_the_per_point_values():
    sphere = SphereSdf()
    xs = _points(2, 6, 3)
    mu = np.random.default_rng(3).normal(size=(6, 1))
    # a level set has no targets: the view never calls them
    view = _constraint_view(sphere, None, 3)
    assert view.c == 1
    np.testing.assert_allclose(view.values(xs), [[sphere.d(x)] for x in xs], rtol=0, atol=1e-15)
    np.testing.assert_allclose(view.jac(xs), [[sphere.grad_d(x)] for x in xs], rtol=0, atol=1e-15)
    np.testing.assert_allclose(view.hess(xs), [[sphere.hess_d(x)] for x in xs], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        geodesic._weighted(mu, view.hess(xs)), [m[0] * sphere.hess_d(x) for x, m in zip(xs, mu)], rtol=0, atol=1e-15
    )
    # a linear constraint has no Hessians to weigh
    assert _constraint_view(None, None, 3).hess is None


def test_stacked_projection_matches_per_row_projection():
    constraint = SquaredRadius()
    # rows from on the set to far off it need different iteration counts
    xs = np.array(
        [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.3, -0.2, 1.1], [2.0, 1.0, -0.5], [9.0, -4.0, 3.0], [0.05, 0.02, -0.1]]
    )
    reference = [_reference_projection(x, constraint) for x in xs]
    counts = np.array([n for _, n in reference])
    assert len(set(counts)) >= 4

    stacked = xs.copy()
    constraint.stack_sizes.clear()
    _project_rows(stacked, constraint)
    np.testing.assert_allclose(stacked, [p for p, _ in reference], rtol=0, atol=1e-15)
    # iteration t evaluates d on exactly the rows whose own count exceeds t
    assert constraint.stack_sizes == [int(np.sum(counts > t)) for t in range(counts.max())]
    for row, x in zip(stacked, xs):
        np.testing.assert_allclose(project_onto_level_set(x, constraint), row, rtol=0, atol=1e-15)


def test_projection_exhausting_its_iterations_reports_the_residual():
    with pytest.raises(SolverError, match=r"did not reach \|d\| <= 1e-12") as info:
        project_onto_level_set([9.0, -4.0, 3.0], SquaredRadius(), max_iter=2)
    assert info.value.residual > 1.0
    with pytest.raises(TypeError, match="expected a ConstraintModel"):
        project_onto_level_set([2.0, 0.0, 0.0], None)


def test_projection_stops_on_a_point_with_no_projection():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"row 0 .*grad_d is zero or not finite") as info:
            project_onto_level_set([0.0, 0.0, 0.0], SphereSdf())
        assert info.value.residual == 1.0
        # the ellipsoid's centre, and a point so near it that the Newton step
        # on phi overflows, have no closest point: d is -min a there
        ellipsoid = EllipsoidSdf([1.0, 0.7, 1.3])
        for centre in ([0.0, 0.0, 0.0], [1e-160, 0.0, 0.0]):
            assert ellipsoid.d(centre) == -0.7
            assert not np.isfinite(ellipsoid.grad_d(centre)).any()
            with pytest.raises(SolverError, match=r"row 0 .*grad_d is zero or not finite") as info:
                project_onto_level_set(centre, ellipsoid)
            assert info.value.residual == 0.7
        stack = np.array([[2.0, 0.0, 0.0], [1e200, 0.0, 0.0]])
        with pytest.raises(SolverError, match=r"row 1 .*d is not finite"):
            _project_rows(stack, SquaredRadius())


def test_antipodal_constrained_solve_fails_at_the_projection(capsys):
    model, sphere = sdf_spring_model(SphereSdf())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the straight start puts x_2 (row 1 of the interior stack) at the centre
        for surface in (sphere, EllipsoidSdf([1.0, 0.7, 1.3])):
            with pytest.raises(SolverError, match=r"row 1 at \[0\. 0\. 0\.\]: grad_d is zero") as info:
                solve_geodesic([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 4, model, constraint=surface)
            assert info.value.residual == -surface.d([0.0, 0.0, 0.0])
        code = main(["geodesic", "--model", "sdf-sphere", "--xa", "1,0,0", "--xb", "-1,0,0", "--K", "4"])
    assert code == 2
    assert "grad_d is zero" in capsys.readouterr().err


def _run_operators(surface, monkeypatch):
    """Solve, log, exp, transport and inverse transport on the level set
    ``surface``, between two points projected onto it, with the Newton
    iteration count of every inner solve."""
    iterations = []
    newton = geodesic._newton

    def counting(*args, **kwargs):
        out = newton(*args, **kwargs)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(geodesic, "_newton", counting)
    model = sdf_spring_model(surface)[0]
    a = project_onto_level_set([0.0, 0.6, 0.8], surface)
    b = project_onto_level_set([0.8, 0.0, 0.6], surface)
    K = 16
    res = solve_geodesic(a, b, K, model, constraint=surface)
    zeta = res.path[1] - res.path[0]
    w = 0.4 * np.cross(a, b) / np.linalg.norm(np.cross(a, b)) / K
    zt, trace = parallel_transport(res.path, w, model, constraint=surface)
    outputs = {
        "path": res.path.points,
        "multipliers": res.multipliers,
        "log2": log2(res.path[0], res.path[2], model, constraint=surface),
        "exp": discrete_exp(a, zeta, K, model, constraint=surface),
        "transport": zt,
        "corners": trace.x_p,
        "inverse": inverse_transport(res.path, zt, model, constraint=surface),
        "inverse_rung": inverse_transport(DiscretePath(res.path.points[:2]), zeta, model, constraint=surface),
    }
    monkeypatch.undo()
    return outputs, iterations


def test_sdf_sphere_operators_match_the_per_point_constraint(monkeypatch):
    stacked, stacked_iterations = _run_operators(SphereSdf(), monkeypatch)
    looped, looped_iterations = _run_operators(PerPointSphere(), monkeypatch)
    assert stacked_iterations == looped_iterations
    assert len(stacked_iterations) == 6
    for name, value in stacked.items():
        np.testing.assert_allclose(value, looped[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("axes", [(1.0, 0.8, 0.6), (1.2, 0.9, 1.0)])
def test_ellipsoid_operators_match_the_per_point_constraint(axes, monkeypatch):
    stacked, stacked_iterations = _run_operators(EllipsoidSdf(axes), monkeypatch)
    looped, looped_iterations = _run_operators(PerPointEllipsoid(axes), monkeypatch)
    assert stacked_iterations == looped_iterations
    assert len(stacked_iterations) == 6
    for name, value in stacked.items():
        np.testing.assert_allclose(value, looped[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("axes", [(1.0, 0.7, 1.3), (2.0, 1.0, 1.0), (1.0, 0.8, 0.6), (3.0, 0.5, 1.0)])
def test_ellipsoid_matches_the_per_point_newton(axes):
    # the same Newton, medial-axis branch and closed-form Hessian, each row
    # stopping on its own, so up to rounding
    xs = _points(3, 2000, 3, radius=(0.3, 2.5))
    # and points of the medial axis, zero on the smallest semi-axis
    medial = _points(4, 50, 3, radius=(0.01, 0.3))
    medial[:, np.argmin(axes)] = 0.0
    xs = np.concatenate([xs, medial])
    stacked, looped = EllipsoidSdf(axes), PerPointEllipsoid(axes)
    np.testing.assert_allclose(stacked.d_stacked(xs), looped.d_stacked(xs), rtol=0, atol=1e-15)
    np.testing.assert_allclose(stacked.grad_d_stacked(xs), looped.grad_d_stacked(xs), rtol=0, atol=1e-15)
    np.testing.assert_allclose(stacked.hess_d_stacked(xs), looped.hess_d_stacked(xs), rtol=0, atol=1e-15)


def test_off_set_init_path_is_projected_before_the_solve():
    model, sphere = sdf_spring_model(SphereSdf())
    a, b, K = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), 8
    off = 1.3 * (a + np.linspace(0.0, 1.0, K + 1)[:, None] * (b - a))
    projected = off.copy()
    _project_rows(projected[1:K], sphere)
    from_off = solve_geodesic(a, b, K, model, constraint=sphere, init_path=off)
    from_projected = solve_geodesic(a, b, K, model, constraint=sphere, init_path=projected)
    assert from_off.converged
    assert from_off.iterations == from_projected.iterations
    assert np.array_equal(from_off.path.points, from_projected.path.points)


@pytest.mark.parametrize("shot", [False, True], ids=["interior", "shot"])
def test_the_path_kernel_projects_its_own_start(shot):
    """``_solve_path`` puts its unknown rows on the level set before Newton
    starts, on a copy: from a start off the sphere it returns the bytes it
    returns from that start projected, and the given start is untouched."""
    model, sphere = sdf_spring_model(SphereSdf())
    a, b, K = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), 8
    if shot:
        off = a + np.arange(K + 1)[:, None] * (b - a) / (2 * K)
    else:
        off = 1.3 * (a + np.linspace(0.0, 1.0, K + 1)[:, None] * (b - a))
        off[[0, K]] = a, b
    unknown = slice(2, K + 1) if shot else slice(1, K)
    assert np.min(np.abs(np.linalg.norm(off[unknown], axis=1) - 1.0)) > 1e-3
    given = off.copy()
    projected = off.copy()
    _project_rows(projected[unknown], sphere)
    from_off = geodesic._solve_path(off, model, sphere, None, "path", shot=shot)
    from_projected = geodesic._solve_path(projected, model, sphere, None, "path", shot=shot)
    assert from_off[4]
    assert np.array_equal(off, given)
    for got, want in zip(from_off, from_projected):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class LoggedSphere(SphereSdf):
    """The unit sphere's signed distance, logging each stacked call as
    (method, rows) into ``log``."""

    def __init__(self, log):
        self.log = log

    def d_stacked(self, xs):
        self.log.append(("d", len(xs)))
        return super().d_stacked(xs)

    def grad_d_stacked(self, xs):
        self.log.append(("grad_d", len(xs)))
        return super().grad_d_stacked(xs)

    def hess_d_stacked(self, xs):
        self.log.append(("hess_d", len(xs)))
        return super().hess_d_stacked(xs)


def _kernel_log(solve, monkeypatch):
    """The level-set calls of ``solve(sphere)`` on a LoggedSphere, grouped by
    the last start ("project") or end ("projected") of a ``_project_rows``
    call, residual or step of the Newton loop before them: a list of
    (marker, [(method, rows), ...])."""
    log = []
    newton, project = geodesic._newton, geodesic._project_rows

    def marked(name, f):
        def call(*args):
            log.append(name)
            return f(*args)

        return call

    def marked_newton(residual, step, z0, cfg, context):
        return newton(marked("residual", residual), marked("step", step), z0, cfg, context)

    def marked_project(*args):
        marked("project", project)(*args)
        log.append("projected")

    monkeypatch.setattr(geodesic, "_newton", marked_newton)
    monkeypatch.setattr(geodesic, "_project_rows", marked_project)
    assert solve(LoggedSphere(log))[-1]
    monkeypatch.undo()
    groups = []
    for entry in log:
        if isinstance(entry, str):
            groups.append((entry, []))
        else:
            groups[-1][1].append(entry)
    return groups


# (window, residual's calls, step's calls) at K = 8: the interior window
# reads J at x_1 .. x_7, the shifted one at x_1 .. x_8 and d at x_2 .. x_8;
# the ladder at all 8 midpoints and 8 corners in one call each
KERNEL_CALLS = [
    ("geodesic", [("grad_d", 7), ("d", 7)], [("hess_d", 7)]),
    ("exp", [("grad_d", 8), ("d", 7)], [("hess_d", 6)]),
    ("ladder", [("grad_d", 16), ("d", 16)], [("hess_d", 8)]),
]


@pytest.mark.parametrize("window, residual_calls, step_calls", KERNEL_CALLS, ids=[k[0] for k in KERNEL_CALLS])
def test_level_set_kernels_evaluate_each_iterate_once(window, residual_calls, step_calls, monkeypatch):
    """A kernel projects its start in one ``_project_rows`` call, and
    nothing else evaluates the level set before the first residual: the
    least-squares multipliers of a path solve's start come from that
    residual's rows and gradients.  Each residual makes one
    ``grad_d_stacked`` and one ``d_stacked`` call, and each step only one
    ``hess_d_stacked`` call: it reuses the constraint gradients of the
    residual at its iterate."""
    model = sdf_spring_model(SphereSdf())[0]
    a, b, K = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), 8
    line = a + np.linspace(0.0, 1.0, K + 1)[:, None] * (b - a)
    ray = a + np.arange(K + 1.0)[:, None] * (b - a) / K
    path = solve_geodesic(a, b, K, model, constraint=SphereSdf()).path.points
    zeta = 0.4 * np.cross(a, b) / np.linalg.norm(np.cross(a, b)) / K
    solves = {
        "geodesic": lambda sphere: geodesic._solve_path(line, model, sphere, None, "path"),
        "exp": lambda sphere: geodesic._solve_path(ray, model, sphere, None, "exp", shot=True),
        "ladder": lambda sphere: geodesic._solve_ladder(path, zeta, model, sphere, None, "ladder"),
    }
    groups = _kernel_log(solves[window], monkeypatch)
    markers = [marker for marker, _ in groups]
    assert markers[:3] == ["project", "projected", "residual"] and markers.count("project") == 1
    assert groups[1][1] == []
    assert markers.count("step") >= 2
    for marker, calls in groups[2:]:
        assert calls == (residual_calls if marker == "residual" else step_calls), marker


def _recording_starts(monkeypatch):
    """Record (start points, start residual) of every path solve's Newton loop."""
    starts = []
    newton = geodesic._newton

    def recording(residual, step, z0, cfg, context):
        starts.append((z0[:, :3].copy(), geodesic._sup(residual(z0))))
        return newton(residual, step, z0, cfg, context)

    monkeypatch.setattr(geodesic, "_newton", recording)
    return starts


@pytest.mark.parametrize("K", [16, 128, 1024])
def test_sdf_sphere_geodesic_starts_on_equal_chords(K, monkeypatch):
    model, sphere = sdf_spring_model(SphereSdf())
    a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
    starts = _recording_starts(monkeypatch)
    res = solve_geodesic(a, b, K, model, constraint=sphere)
    # the projected line took 3 iterations to 6e-11
    assert res.converged and res.iterations <= 2 and res.residual <= 1e-12
    (start, _), = starts
    assert np.max(np.abs(np.linalg.norm(start, axis=1) - 1.0)) <= 1e-12
    # one re-spacing leaves the chords O(1/K^2) apart, against 0.6 for the
    # projected line, whose steps are uneven by O(1)
    def spread(points):
        chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
        return (chords.max() - chords.min()) / chords.mean()

    line = a + np.linspace(0.0, 1.0, K + 1)[:, None] * (b - a)
    assert spread(start) <= 0.3 / K**2
    assert spread(line / np.linalg.norm(line, axis=1, keepdims=True)) > 0.5


def test_least_squares_multipliers_start_a_converged_path_converged(monkeypatch):
    model, sphere = sdf_spring_model(SphereSdf())
    a, b, K = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), 16
    solved = solve_geodesic(a, b, K, model, constraint=sphere)
    starts = _recording_starts(monkeypatch)
    solve_geodesic(a, b, K, model, constraint=sphere, init_path=solved.path)
    (_, start_residual), = starts
    assert start_residual <= 1e-9
    # multipliers at 0 would start at the size of the Euler-Lagrange rows
    assert geodesic._sup(geodesic._el_rows(model, solved.path.points)) > 1e-2


def test_a_start_within_the_tolerance_still_takes_a_step():
    # seed 0, pair 10 of the surface_ladder benchmark's generator: the
    # re-spaced start meets newton_tol at once, and stopping there put the
    # exp of the first increment 4e-8 off b
    model, sphere = sdf_spring_model(SphereSdf())
    a = np.array([0.4479651046637141, 0.8819813579342993, -0.14641089187624293])
    b = np.array([0.16558491234770872, 0.9684417266554519, 0.18628542314257598])
    K = 128
    res = solve_geodesic(a, b, K, model, constraint=sphere)
    assert res.converged and res.iterations >= 1
    end = discrete_exp(a, res.path[1] - res.path[0], K, model, constraint=sphere)
    assert np.linalg.norm(end - b) <= 1e-9
