import dataclasses
import warnings

import numpy as np
import pytest

from geocalc import (
    DiscretePath,
    DomainError,
    EvaluationError,
    as_point,
    check_consistency,
    energy_from_w,
    flat_energy,
    metric_from_energy,
    solve_geodesic,
    sphere_chart_energy,
)
from geocalc import harness
from geocalc.core import EnergyModel, SolverError, _labelled
from geocalc.rods import circle_rod, rod_energy

from stack_of_one import at_one


def _chart_w(xs, ys):
    """The sphere chart's w, complex-safe: x * x in place of |x|^2."""
    return 4.0 / (1.0 + (xs * xs).sum(-1)) ** 2 * ((ys - xs) ** 2).sum(-1)


def _flat_w(xs, ys):
    return ((ys - xs) ** 2).sum(-1)


class _NanHessModel(EnergyModel):
    def w_stacked(self, xs, ys):
        return np.zeros(len(xs))

    def grads_stacked(self, xs, ys):
        return np.zeros(np.shape(xs)), np.zeros(np.shape(xs))

    def hess_blocks_stacked(self, xs, ys):
        eye = np.tile(np.eye(2), (len(xs), 1, 1))
        h22 = eye.copy()
        h22[:, 0, 1] = np.nan
        return eye, eye, eye, h22


def test_as_point_validation():
    assert np.allclose(as_point([1, 2.5]), [1.0, 2.5])
    assert np.array_equal(as_point(np.float64(2.5)), [2.5])  # a 0-d scalar is a 1-vector
    with pytest.raises(DomainError):
        as_point([[1.0, 2.0]])
    with pytest.raises(DomainError):
        as_point([np.inf, 0.0])


def test_path_validation():
    path = DiscretePath(np.zeros((3, 2)))
    assert path.step_count == 2
    assert path.dim == 2
    assert len(path) == 3
    with pytest.raises(DomainError):
        DiscretePath(np.zeros((1, 2)))
    with pytest.raises(DomainError):
        DiscretePath(np.array([[0.0, np.nan], [1.0, 0.0]]))


def test_path_points_are_read_only():
    path = DiscretePath(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        path.points[0, 0] = 1.0


def test_metric_flat_is_identity():
    m = metric_from_energy(flat_energy(), np.array([3.0, -1.0, 2.0]))
    assert np.allclose(m, np.eye(3), atol=1e-14)


def test_metric_sphere_chart_values():
    sc = sphere_chart_energy()
    assert np.allclose(metric_from_energy(sc, [0.0, 0.0]), 4.0 * np.eye(2), atol=1e-12)
    assert np.allclose(metric_from_energy(sc, [0.5, 0.0]), 2.56 * np.eye(2), atol=1e-12)


def test_metric_is_symmetric_and_positive_definite():
    rng = np.random.default_rng(3)
    for model in (flat_energy(), sphere_chart_energy()):
        for _ in range(5):
            x = rng.normal(size=2)
            g = metric_from_energy(model, x)
            assert np.array_equal(g, g.T)
            np.linalg.cholesky(g)  # raises if not positive definite


def test_rod_metric_positive_definite_on_gauge_fixed_subspace():
    model = rod_energy("simplified", 16, 0.1)
    g = metric_from_energy(model, circle_rod(16).coord)
    assert np.array_equal(g, g.T)
    # translations are the exact null space; the complement is definite
    n = 16
    t1 = np.tile([1.0, 0.0], n) / np.sqrt(n)
    t2 = np.tile([0.0, 1.0], n) / np.sqrt(n)
    assert np.linalg.norm(g @ t1) < 1e-8
    assert np.linalg.norm(g @ t2) < 1e-8
    basis = np.linalg.svd(np.stack([t1, t2]))[2][2:]
    reduced = basis @ g @ basis.T
    np.linalg.cholesky(reduced + reduced.T - reduced)  # symmetric by construction
    assert np.min(np.linalg.eigvalsh(reduced)) > 0


def test_metric_reports_non_finite_entry():
    with pytest.raises(EvaluationError, match=r"hess22.*\(0, 1\)"):
        metric_from_energy(_NanHessModel(), np.zeros(2))


def test_consistency_reports_a_non_finite_diagonal_gradient():
    class NanGrad(EnergyModel):
        def w_stacked(self, xs, ys):
            return np.zeros(len(xs))

        def grads_stacked(self, xs, ys):
            return np.zeros(np.shape(xs)), np.full(np.shape(xs), np.nan)

        def hess_blocks_stacked(self, xs, ys):
            eye = np.tile(np.eye(2), (len(xs), 1, 1))
            return eye, -eye, -eye, eye

    with pytest.raises(EvaluationError, match="grad2 is non-finite at the diagonal"):
        check_consistency(NanGrad(), np.zeros(2), 1e-8)


def test_energy_model_refuses_a_per_point_only_subclass():
    class PerPointOnly(EnergyModel):
        def w(self, x, y):
            return float(np.sum((np.asarray(y) - np.asarray(x)) ** 2))

    with pytest.raises(TypeError, match="abstract"):
        PerPointOnly()
    assert EnergyModel.__abstractmethods__ == {"w_stacked", "grads_stacked", "hess_blocks_stacked"}


def test_consistency_flat_exact():
    report = check_consistency(flat_energy(), np.array([3.0, -1.0]), 1e-10)
    assert report.ok
    assert report.max_residual <= 1e-14


def test_consistency_sphere_chart():
    report = check_consistency(sphere_chart_energy(), np.array([0.5, 0.0]), 1e-8)
    assert report.ok, report.failed()


def test_consistency_rod_circle_n64():
    model = rod_energy("simplified", 64, 0.1)
    report = check_consistency(model, circle_rod(64).coord, 1e-6)
    assert report.ok, report.residuals


def test_consistency_random_points_analytic_models():
    rng = np.random.default_rng(0)
    for model in (flat_energy(), sphere_chart_energy()):
        for _ in range(100):
            report = check_consistency(model, rng.normal(size=2), 1e-6)
            assert report.ok, report.residuals


def test_consistency_report_records_failures():
    model = energy_from_w(_chart_w)
    report = check_consistency(model, np.array([0.5, 0.0]), 1e-30)
    assert not report.ok
    assert report.failed()
    assert set(report.failed()) <= set(report.residuals)
    assert set(report.passed) == set(report.residuals)


def test_fd_gradients_flat():
    model = energy_from_w(_flat_w)
    g = at_one(model.grads_stacked, np.zeros(2), [1.0, 0.0])[1]
    assert np.allclose(g, [2.0, 0.0], atol=1e-8)


def test_fd_mixed_hessian_flat():
    model = energy_from_w(_flat_w)
    h12 = at_one(model.hess_blocks_stacked, [0.3, -0.7], [1.1, 0.4])[1]
    assert np.allclose(h12, -2.0 * np.eye(2), atol=1e-6)
    h11, m12, m21, h22 = at_one(model.hess_blocks_stacked, np.zeros(2), [0.5, 0.2])
    assert np.allclose(m21, m12.T)
    assert np.allclose(h11, 2.0 * np.eye(2), atol=1e-6)
    assert np.allclose(h22, 2.0 * np.eye(2), atol=1e-6)


def test_fd_hess22_matches_analytic_metric():
    sc = sphere_chart_energy()
    model = energy_from_w(_chart_w)
    x = np.array([0.4, -0.3])
    approx = at_one(model.hess_blocks_stacked, x, x)[3]
    exact = 2.0 * sc.metric(x)
    rel = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
    assert rel < 1e-5


def test_w_only_derivatives_match_the_closed_form_chart():
    # complex-step gradients are exact to rounding; the Hessian blocks,
    # central differences of them, to about the step squared
    sc = sphere_chart_energy()
    model = energy_from_w(_chart_w)
    rng = np.random.default_rng(21)
    xs = rng.normal(size=(256, 2))
    ys = xs + 0.3 * rng.normal(size=(256, 2))
    np.testing.assert_allclose(model.w_stacked(xs, ys), sc.w_stacked(xs, ys), rtol=1e-15, atol=0)
    for got, ref in zip(model.grads_stacked(xs, ys), sc.grads_stacked(xs, ys)):
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    for got, ref in zip(model.hess_blocks_stacked(xs, ys), sc.hess_blocks_stacked(xs, ys)):
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_w_only_metric_matches_the_chart_metric():
    model = energy_from_w(_chart_w)
    for x in ([0.4, -0.3], [0.0, 0.0], [-1.5, 2.0]):
        exact = sphere_chart_energy().metric(x)
        rel = np.max(np.abs(metric_from_energy(model, x) - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-9


def test_w_only_model_needs_a_complex_analytic_w():
    # the chart model's own w casts its input to float, which drops the
    # imaginary part (numpy only warns): refused, not all-zero gradients
    model = energy_from_w(sphere_chart_energy().w_stacked)
    x, y = np.array([0.3, -0.2]), np.array([0.45, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TypeError, match="complex-analytic"):
            at_one(model.grads_stacked, x, y)
        with pytest.raises(TypeError, match="complex-analytic"):
            at_one(model.hess_blocks_stacked, x, y)
    assert model.w(x, y) == sphere_chart_energy().w(x, y)


def test_fd_propagates_domain_errors():
    def half_plane_w(xs, ys):
        if np.any(xs[:, 1].real <= 0.0) or np.any(ys[:, 1].real <= 0.0):
            raise DomainError("outside the upper half-plane")
        return ((ys - xs) ** 2).sum(-1) / (xs[:, 1] * ys[:, 1])

    model = energy_from_w(half_plane_w)
    x, y = np.array([0.0, 1.0]), np.array([0.5, 2.0])
    assert at_one(model.grads_stacked, x, y)[0].shape == (2,)
    for method in (model.w_stacked, model.grads_stacked, model.hess_blocks_stacked):
        with pytest.raises(DomainError, match="upper half-plane"):
            at_one(method, [0.0, -1.0], y)


@pytest.mark.parametrize("K", [16, 64, 256])
def test_w_only_chart_geodesic_is_the_native_one(K):
    xa, xb = np.array([0.5, 0.0]), np.array([-0.5, 2.0])
    native = solve_geodesic(xa, xb, K, sphere_chart_energy())
    w_only = solve_geodesic(xa, xb, K, energy_from_w(_chart_w))
    assert native.converged and w_only.converged
    assert w_only.iterations == native.iterations
    assert np.max(np.abs(w_only.path.points - native.path.points)) <= 1e-12


def test_figure_study_through_the_w_only_model(monkeypatch):
    chart = harness.build_backend("sphere-chart")
    w_only = dataclasses.replace(chart, model=energy_from_w(_chart_w))
    monkeypatch.setattr(harness, "build_backend", lambda name, n_nodes: w_only)
    report = harness.run_convergence_study(
        harness.StudyConfig(model="sphere-chart", xa=(0.5, 0.0), xb=(-0.5, 2.0), w=(-0.4, 0.0))
    )
    assert report.ks[0] == 2 and report.ks[-1] == 1024
    for col in ("geo", "log", "exp", "pt"):
        assert 0.8 <= report.orders[col] <= 2.2, (col, report.orders[col])


def test_labelled_prefixes_only_a_solver_error():
    inner = SolverError("inner", residual=0.5)
    with pytest.raises(SolverError) as err:
        with _labelled("stage failed: "):
            raise inner
    assert str(err.value) == "stage failed: inner"
    assert err.value.residual == 0.5 and err.value.__cause__ is inner
    with pytest.raises(DomainError, match="^bad$"):
        with _labelled("stage failed: "):
            raise DomainError("bad")
    with _labelled("stage failed: "):
        done = True
    assert done
