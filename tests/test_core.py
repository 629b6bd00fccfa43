import numpy as np
import pytest

from geocalc import (
    DiscretePath,
    DomainError,
    EvaluationError,
    FdScheme,
    as_point,
    check_consistency,
    fd_derivatives,
    flat_energy,
    metric_from_energy,
    sphere_chart_energy,
)
from geocalc.core import EnergyModel
from geocalc.rods import circle_rod, rod_energy


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


def test_fd_scheme_bounds():
    FdScheme(step=1e-5)
    with pytest.raises(DomainError):
        FdScheme(step=1e-9)
    with pytest.raises(DomainError):
        FdScheme(step=0.1)


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
    fd = fd_derivatives(sphere_chart_energy(), FdScheme(step=1e-4))
    report = check_consistency(fd, np.array([0.5, 0.0]), 1e-30)
    assert not report.ok
    assert report.failed()
    assert set(report.failed()) <= set(report.residuals)
    assert set(report.passed) == set(report.residuals)


def test_fd_gradients_flat():
    fd = fd_derivatives(flat_energy(), FdScheme(step=1e-5))
    g = fd.grad2(np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(g, [2.0, 0.0], atol=1e-8)


def test_fd_mixed_hessian_flat():
    fd = fd_derivatives(flat_energy(), FdScheme(step=1e-4))
    h12 = fd.hess12(np.array([0.3, -0.7]), np.array([1.1, 0.4]))
    assert np.allclose(h12, -2.0 * np.eye(2), atol=1e-6)
    h11, m12, m21, h22 = fd.hess_blocks(np.zeros(2), np.array([0.5, 0.2]))
    assert np.allclose(m21, m12.T)
    assert np.allclose(h11, 2.0 * np.eye(2), atol=1e-6)
    assert np.allclose(h22, 2.0 * np.eye(2), atol=1e-6)


def test_fd_hess22_matches_analytic_metric():
    sc = sphere_chart_energy()
    fd = fd_derivatives(sc, FdScheme(step=1e-5))
    x = np.array([0.4, -0.3])
    approx = fd.hess22(x, x)
    exact = 2.0 * sc.metric(x)
    rel = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
    assert rel < 1e-5


def _fd_discrepancy(step):
    sc = sphere_chart_energy()
    fd = fd_derivatives(sc, FdScheme(step=step))
    x = np.array([0.3, -0.2])
    y = np.array([0.45, 0.1])
    worst = 0.0
    for name in ("grad1", "grad2", "hess11", "hess12", "hess21", "hess22"):
        diff = np.asarray(getattr(fd, name)(x, y)) - np.asarray(getattr(sc, name)(x, y))
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def test_fd_accuracy_is_second_order():
    ratio = _fd_discrepancy(1e-3) / _fd_discrepancy(5e-4)
    assert 3.5 <= ratio <= 4.5


def test_fd_propagates_domain_errors():
    model = rod_energy("simplified", 16, 0.1)
    fd = fd_derivatives(model, FdScheme(step=1e-6))
    degenerate = np.zeros(32)
    with pytest.raises(DomainError):
        fd.grad1(degenerate, circle_rod(16).coord)
