"""Stacked level-set evaluation and the stacked projection.

A ``ConstraintModel`` implements d and grad_d over a stack of points
(natively for the circle and sphere, by a per-row loop for the ellipsoid),
hess_d by default as central differences of the stacked gradient, and
``geodesic._project_rows`` projects a whole stack by one masked Newton
iteration.  These tests pin the per-point views against the rows of the
stacked methods, the finite-difference default against the per-point
Jacobian, the projection against a per-row reference, its stop on points
with no projection, and the sdf-sphere solves against a per-point
constraint.  The geodesic's start (the projected line re-spaced to equal
chords) and its least-squares multipliers are pinned by the iterations
and start residuals they buy.
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


def test_circle_stacks_natively_and_ellipsoid_loops():
    for name in ("d_stacked", "grad_d_stacked", "hess_d_stacked"):
        assert name in vars(CircleSdf)
        assert getattr(SphereSdf, name) is getattr(CircleSdf, name)
    assert {"d_stacked", "grad_d_stacked"} <= set(vars(EllipsoidSdf))
    assert EllipsoidSdf.hess_d_stacked is ConstraintModel.hess_d_stacked


def test_constraint_model_refuses_a_per_point_only_subclass():
    class PerPointOnly(ConstraintModel):
        def d(self, x):
            return float(np.linalg.norm(x)) - 1.0

        def grad_d(self, x):
            return np.asarray(x, dtype=float) / np.linalg.norm(x)

    with pytest.raises(TypeError, match="abstract"):
        PerPointOnly()
    assert ConstraintModel.__abstractmethods__ == {"d_stacked", "grad_d_stacked"}


def test_default_hess_d_is_the_symmetrized_per_point_fd_jacobian():
    # 2d stacked gradient calls over the whole stack give, bitwise, the
    # central-difference Jacobian of each point alone, symmetrized
    surface = EllipsoidSdf([1.0, 0.7, 1.3])
    xs = _points(4, 7, 3, radius=(0.8, 1.2))
    for x, hess in zip(xs, surface.hess_d_stacked(xs)):
        j = central_jacobian(surface.grad_d, x, _FD_STEP)
        np.testing.assert_array_equal(hess, (j + j.T) / 2.0)


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
