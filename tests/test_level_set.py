"""Stacked level-set evaluation and the stacked projection.

``ConstraintModel`` evaluates d, grad_d and hess_d over a stack of points
(natively for the circle and sphere, by a per-point loop otherwise), and
``geodesic._project_rows`` projects a whole stack by one masked Newton
iteration.  These tests pin the stacked methods against the per-point
ones, the fallback rule for subclasses, the projection against a per-row
reference, its stop on points with no projection, and the sdf-sphere
solves against a per-point constraint.
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
from geocalc import geodesic, operators
from geocalc.cli import main
from geocalc.geodesic import ConstraintModel, _constraint_view, _project_rows
from geocalc.models import CircleSdf, EllipsoidSdf, SphereSdf


def _points(seed, n, d, radius=(0.5, 1.5)):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True) * rng.uniform(*radius, size=(n, 1))


class PerPointSphere(ConstraintModel):
    """Signed distance to the unit sphere, point by point with np.linalg.norm.

    Its stacked methods are the looping defaults, so a solve with it is the
    per-point reference for a solve with ``SphereSdf``.
    """

    def d(self, x):
        return float(np.linalg.norm(x)) - 1.0

    def grad_d(self, x):
        return np.asarray(x, dtype=float) / np.linalg.norm(x)

    def hess_d(self, x):
        r = np.linalg.norm(x)
        u = np.asarray(x, dtype=float) / r
        return (np.eye(u.size) - np.outer(u, u)) / r


class SquaredRadius(ConstraintModel):
    """d(x) = |x|^2 - 1: not a distance, so projection needs more iterations
    the farther a point starts; records the size of every d_stacked stack."""

    def __init__(self):
        self.stack_sizes = []

    def d(self, x):
        return float(np.sum(np.square(x))) - 1.0

    def grad_d(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def d_stacked(self, xs):
        self.stack_sizes.append(len(xs))
        return super().d_stacked(xs)


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
    xs = _points(d, 9, d, radius=(0.8, 1.2))
    np.testing.assert_allclose(surface.d_stacked(xs), [surface.d(x) for x in xs], rtol=0, atol=1e-15)
    np.testing.assert_allclose(surface.grad_d_stacked(xs), [surface.grad_d(x) for x in xs], rtol=0, atol=1e-15)
    np.testing.assert_allclose(surface.hess_d_stacked(xs), [surface.hess_d(x) for x in xs], rtol=0, atol=1e-15)
    assert surface.d_stacked(xs).shape == (9,)
    assert surface.grad_d_stacked(xs).shape == (9, d)
    assert surface.hess_d_stacked(xs).shape == (9, d, d)
    assert surface.hess_d_stacked(xs[:0]).shape == (0, d, d)


def test_circle_stacks_natively_and_ellipsoid_loops():
    for name in ("d_stacked", "grad_d_stacked", "hess_d_stacked"):
        assert vars(CircleSdf)[name] is not vars(ConstraintModel)[name]
        assert getattr(SphereSdf, name) is getattr(CircleSdf, name)
        assert getattr(EllipsoidSdf, name) is vars(ConstraintModel)[name]


def test_redefined_per_point_method_gets_the_stacked_loop():
    class Shifted(SphereSdf):
        def d(self, x):
            return super().d(x) + 0.25

    assert Shifted.d_stacked is vars(ConstraintModel)["d_stacked"]
    assert Shifted.grad_d_stacked is CircleSdf.grad_d_stacked
    assert Shifted.hess_d_stacked is CircleSdf.hess_d_stacked
    xs = _points(1, 5, 3)
    np.testing.assert_array_equal(Shifted().d_stacked(xs), SphereSdf().d_stacked(xs) + 0.25)


def test_level_set_view_stacks_the_per_point_values():
    sphere = SphereSdf()
    xs = _points(2, 6, 3)
    mu = np.random.default_rng(3).normal(size=(6, 1))
    # a level set has no targets: the view never calls them
    view = _constraint_view(sphere, None, 3)
    assert view.c == 1
    np.testing.assert_allclose(view.values(xs), [[sphere.d(x)] for x in xs], rtol=0, atol=1e-15)
    np.testing.assert_allclose(view.jac(xs), [[sphere.grad_d(x)] for x in xs], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        view.hess(xs, mu), [m[0] * sphere.hess_d(x) for x, m in zip(xs, mu)], rtol=0, atol=1e-15
    )


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
        stack = np.array([[2.0, 0.0, 0.0], [1e200, 0.0, 0.0]])
        with pytest.raises(SolverError, match=r"row 1 .*d is not finite"):
            _project_rows(stack, SquaredRadius())


def test_antipodal_constrained_solve_fails_at_the_projection(capsys):
    model, sphere = sdf_spring_model(SphereSdf())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the straight start puts x_2 (row 1 of the interior stack) at the centre
        with pytest.raises(SolverError, match=r"row 1 at \[0\. 0\. 0\.\]: grad_d is zero"):
            solve_geodesic([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], 4, model, constraint=sphere)
        code = main(["geodesic", "--model", "sdf-sphere", "--xa", "1,0,0", "--xb", "-1,0,0", "--K", "4"])
    assert code == 2
    assert "grad_d is zero" in capsys.readouterr().err


def _run_operators(surface, monkeypatch):
    """Solve, log, exp, transport and inverse transport on the sdf sphere,
    with the Newton iteration count of every inner solve."""
    iterations = []
    newton = geodesic._newton

    def counting(*args, **kwargs):
        out = newton(*args, **kwargs)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(geodesic, "_newton", counting)
    monkeypatch.setattr(operators, "_newton", counting)
    model = sdf_spring_model(surface)[0]
    a = np.array([0.0, 0.6, 0.8])
    b = np.array([0.8, 0.0, 0.6])
    K = 16
    res = solve_geodesic(a, b, K, model, constraint=surface)
    zeta = res.path[1] - res.path[0]
    w = 0.4 * np.cross(a, b) / np.linalg.norm(np.cross(a, b)) / K
    zt, traces = parallel_transport(res.path, w, model, constraint=surface)
    outputs = {
        "path": res.path.points,
        "multipliers": res.multipliers,
        "log2": log2(res.path[0], res.path[2], model, constraint=surface),
        "exp": discrete_exp(a, zeta, K, model, constraint=surface),
        "transport": zt,
        "corners": np.array([t.x_p for t in traces]),
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
