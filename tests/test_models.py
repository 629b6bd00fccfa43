import numpy as np
import pytest

from geocalc import (
    CircleSdf,
    DomainError,
    EllipsoidSdf,
    SphereSdf,
    check_consistency,
    discrete_energy,
    flat_energy,
    metric_from_energy,
    sdf_spring_model,
    sphere_chart_energy,
    sphere_oracles,
)


def test_flat_energy_values():
    flat = flat_energy()
    assert flat.w(np.zeros(2), np.array([1.0, 0.0])) == 1.0
    assert np.allclose(flat.grad2(np.zeros(2), np.array([1.0, 0.0])), [2.0, 0.0])
    report = check_consistency(flat, np.array([0.7, -2.0]), 1e-12)
    assert report.ok


def test_chart_energy_diagonal_and_origin():
    sc = sphere_chart_energy()
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=2)
        assert sc.w(x, x) == 0.0
    for h in (0.1, 0.02):
        assert np.isclose(sc.w(np.zeros(2), np.array([h, 0.0])), 4.0 * h * h)


def test_chart_energy_rejects_wrong_dimension():
    sc = sphere_chart_energy()
    with pytest.raises(DomainError):
        sc.w(np.zeros(3), np.zeros(3))


def _per_point(model, xs, ys):
    """Per-point values of every segment, stacked like the stacked methods'."""
    ws = np.array([model.w(x, y) for x, y in zip(xs, ys)])
    grads = [np.array(g) for g in zip(*(model.grads(x, y) for x, y in zip(xs, ys)))]
    blocks = [np.array(h) for h in zip(*(model.hess_blocks(x, y) for x, y in zip(xs, ys)))]
    return ws, grads, blocks


def test_stacked_evaluation_matches_per_point():
    from geocalc.core import fd_derivatives
    from geocalc.rods import random_smooth_rod, rod_energy

    rng = np.random.default_rng(12)
    cases = []
    for model, d in ((flat_energy(), 3), (sphere_chart_energy(), 2), (fd_derivatives(sphere_chart_energy()), 2)):
        xs = rng.normal(size=(9, d))
        cases.append((model, xs, xs + 0.3 * rng.normal(size=(9, d))))
    for kind in ("simplified", "full"):
        rods = np.array([random_smooth_rod(8, rng).coord for _ in range(6)])
        cases.append((rod_energy(kind, 8), rods[:3], rods[3:]))
    for model, xs, ys in cases:
        n, d = xs.shape
        ws, grads, blocks = _per_point(model, xs, ys)
        got_w = model.w_stacked(xs, ys)
        got_g = model.grads_stacked(xs, ys)
        got_h = model.hess_blocks_stacked(xs, ys)
        assert got_w.shape == (n,)
        assert [g.shape for g in got_g] == [(n, d)] * 2
        assert [h.shape for h in got_h] == [(n, d, d)] * 4
        # the per-point methods are views of a stack of one: bitwise the rows
        for got, ref in zip((got_w, *got_g, *got_h), (ws, *grads, *blocks)):
            np.testing.assert_array_equal(got, ref)
        x, y = xs[0], ys[0]
        singles = (model.grad1(x, y), model.grad2(x, y), *(getattr(model, f"hess{ab}")(x, y) for ab in ("11", "12", "21", "22")))
        for got, ref in zip((*got_g, *got_h), singles):
            np.testing.assert_array_equal(got[0], ref)


def test_stacked_chart_validates_the_whole_stack():
    sc = sphere_chart_energy()
    xs = np.zeros((4, 2))
    with pytest.raises(DomainError, match="two-dimensional"):
        sc.grads_stacked(np.zeros((4, 3)), np.zeros((4, 3)))
    with pytest.raises(DomainError, match="two-dimensional"):
        sc.w_stacked(xs, np.zeros((3, 2)))
    bad = xs.copy()
    bad[2, 1] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        sc.hess_blocks_stacked(xs, bad)
    with pytest.raises(DomainError, match="non-finite"):
        sc.w(np.array([np.inf, 0.0]), np.zeros(2))
    # a stacked failure is traced back to the first inadmissible segment
    with pytest.raises(DomainError, match="segment 1: the sphere chart"):
        discrete_energy(np.zeros((3, 3)), sc)


def test_shipped_models_implement_only_the_stacked_methods():
    from geocalc.core import _FiniteDifferenceModel
    from geocalc.models import FlatEnergy, SphereChartEnergy
    from geocalc.rods import FullRodEnergy, SimplifiedRodEnergy, _RodEnergy

    per_point = {"w", "grads", "grad1", "grad2", "hess_blocks", "hess11", "hess12", "hess21", "hess22", "d", "grad_d", "hess_d"}
    classes = (
        FlatEnergy, SphereChartEnergy, _RodEnergy, SimplifiedRodEnergy, FullRodEnergy,
        _FiniteDifferenceModel, CircleSdf, SphereSdf, EllipsoidSdf,
    )
    for cls in classes:
        assert not per_point & set(vars(cls)), cls.__name__


def test_chart_metric_value():
    assert np.allclose(
        metric_from_energy(sphere_chart_energy(), [0.5, 0.0]), 2.56 * np.eye(2)
    )


def test_chart_pullback_matches_metric():
    # |d/dt X(x + t v)|^2 at t = 0 must equal g_x(v, v)
    orc = sphere_oracles()
    sc = sphere_chart_energy()
    rng = np.random.default_rng(11)
    t = 1e-6
    for _ in range(20):
        x = rng.normal(size=2)
        v = rng.normal(size=2)
        speed = (orc.to_sphere(x + t * v) - orc.to_sphere(x - t * v)) / (2.0 * t)
        g = sc.metric(x)
        assert abs(float(speed @ speed) - float(v @ g @ v)) < 1e-6


def test_oracle_chart_round_trip():
    orc = sphere_oracles()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=2)
        assert np.allclose(orc.to_chart(orc.to_sphere(x)), x, atol=1e-12)


def test_oracle_distance_value():
    orc = sphere_oracles()
    xa = np.array([0.5, 0.0])
    xb = np.array([-0.5, 2.0])
    A = orc.to_sphere(xa)
    B = orc.to_sphere(xb)
    assert np.allclose(A, [0.8, 0.0, -0.6])
    assert np.allclose(B, [-4.0 / 21.0, 16.0 / 21.0, 13.0 / 21.0])
    dist = orc.dist(xa, xb)
    assert dist == pytest.approx(float(np.arccos(A @ B)), abs=1e-15)
    assert dist == pytest.approx(2.1221, abs=5e-4)


def test_oracle_geodesic_endpoints_and_scaling():
    orc = sphere_oracles()
    xa = np.array([0.5, 0.0])
    xb = np.array([-0.5, 2.0])
    assert np.allclose(orc.geodesic(xa, xb, 0.0), xa, atol=1e-14)
    assert np.allclose(orc.geodesic(xa, xb, 1.0), xb, atol=1e-12)
    quarter = orc.dist(orc.geodesic(xa, xb, 0.25), orc.geodesic(xa, xb, 0.75))
    assert abs(quarter - 0.5 * orc.dist(xa, xb)) < 1e-10


def test_oracle_log_exp_inverse():
    orc = sphere_oracles()
    rng = np.random.default_rng(7)
    for _ in range(20):
        xa = 0.6 * rng.normal(size=2)
        xb = 0.6 * rng.normal(size=2)
        v = orc.log(xa, xb)
        assert np.allclose(orc.exp(xa, v), xb, atol=1e-12)
    xa = np.array([0.5, 0.0])
    assert np.allclose(orc.exp(xa, np.zeros(2)), xa)
    assert np.allclose(orc.log(xa, xa), np.zeros(2))


def test_oracle_transport_is_isometric():
    orc = sphere_oracles()
    sc = sphere_chart_energy()
    rng = np.random.default_rng(13)
    for _ in range(20):
        xa = 0.6 * rng.normal(size=2)
        xb = 0.6 * rng.normal(size=2)
        w = rng.normal(size=2)
        wt = orc.transport(xa, xb, w)
        drift = abs(
            float(w @ sc.metric(xa) @ w) - float(wt @ sc.metric(xb) @ wt)
        )
        assert drift <= 1e-10


def test_oracle_domain_errors():
    orc = sphere_oracles()
    with pytest.raises(DomainError):
        orc.to_chart(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        # antipodal pair: origin maps to the south pole, its antipode is the pole
        orc.dist(np.zeros(2), np.array([1e9, 0.0]))
    # chart points and chart vectors have 2 coordinates
    x, v = np.array([0.1, 0.2]), np.array([0.3, -0.1])
    for call in (
        lambda: orc.log(np.array([0.1]), x),
        lambda: orc.exp(x, np.array([1.0, 0.0, 0.0])),
        lambda: orc.transport(x, x + v, np.array([0.3])),
        lambda: orc.christoffel(np.zeros(3)),
        lambda: orc.covariant_derivative(x, np.array([1.0]), v, np.eye(2)),
    ):
        with pytest.raises(DomainError, match="sphere-chart vectors have 2 coordinates"):
            call()
    # sphere points and vectors have 3
    for call in (
        lambda: orc.to_chart([0.5]),
        lambda: orc.to_chart(np.zeros((2, 2))),
        lambda: orc.pullback([1.0, 0.0], [0.0, 1.0]),
        lambda: orc.pullback([0.0, 1.0, 0.0], [1.0]),
        lambda: orc.pullback(np.eye(3), np.eye(3)),
    ):
        with pytest.raises(DomainError):
            call()


def test_flat_hessian_blocks_are_fresh_scaled_identities():
    flat = flat_energy()
    x, y = np.zeros(3), np.ones(3)
    assert np.array_equal(flat.hess11(x, y), 2.0 * np.eye(3))
    assert np.array_equal(flat.hess12(x, y), -2.0 * np.eye(3))
    xs = np.zeros((4, 3))
    blocks = flat.hess_blocks_stacked(xs, xs + 1.0)
    for block, scale in zip(blocks, (2.0, -2.0, -2.0, 2.0)):
        assert block.shape == (4, 3, 3)
        assert np.array_equal(block, scale * np.broadcast_to(np.eye(3), (4, 3, 3)))
    # each call returns its own writable array
    blocks[0][0, 0, 0] = 7.0
    assert flat.hess_blocks_stacked(xs, xs)[0][0, 0, 0] == 2.0
    assert flat.hess_blocks_stacked(np.zeros((0, 3)), np.zeros((0, 3)))[0].shape == (0, 3, 3)


def test_circle_and_sphere_sdf_are_normalized():
    rng = np.random.default_rng(17)
    circle = CircleSdf()
    sphere = SphereSdf()
    for _ in range(20):
        p2 = rng.normal(size=2)
        p3 = rng.normal(size=3)
        if np.linalg.norm(p2) > 0.2:
            assert abs(np.linalg.norm(circle.grad_d(p2)) - 1.0) <= 0.1
        if np.linalg.norm(p3) > 0.2:
            assert abs(np.linalg.norm(sphere.grad_d(p3)) - 1.0) <= 0.1
    assert circle.d(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert sphere.d(np.array([0.0, 0.5, 0.0])) == pytest.approx(-0.5)


def test_ellipsoid_sdf_basics():
    ell = EllipsoidSdf([2.0, 1.0, 1.0])
    assert ell.d(np.array([3.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(ell.grad_d(np.array([3.0, 0.0, 0.0])), [1.0, 0.0, 0.0], atol=1e-10)
    assert ell.d(np.array([0.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # near-surface normalization
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        p = np.array([2.0, 1.0, 1.0]) * u / np.linalg.norm(u / np.array([1.0, 1.0, 1.0]))
        p = p / np.sqrt(np.sum(p**2 / np.array([4.0, 1.0, 1.0])))  # exact surface point
        q = p + 0.01 * ell.grad_d(p)
        assert abs(np.linalg.norm(ell.grad_d(q)) - 1.0) <= 0.1
        assert ell.d(q) == pytest.approx(0.01, abs=1e-6)


def test_sdf_spring_model_pairs_spring_with_surface():
    model, surface = sdf_spring_model(SphereSdf())
    assert surface.d(np.array([1.0, 0.0, 0.0])) == 0.0
    report = check_consistency(model, np.array([1.0, 0.0, 0.0]), 1e-12)
    assert report.ok


def test_oracle_geodesic_takes_an_array_of_times():
    orc = sphere_oracles()
    xa = np.array([0.5, 0.0])
    xb = np.array([-0.5, 2.0])
    ts = np.arange(17) / 16
    nodes = orc.geodesic(xa, xb, ts)
    assert nodes.shape == (17, 2)
    assert np.array_equal(nodes, [orc.geodesic(xa, xb, t) for t in ts])
    assert np.array_equal(orc.geodesic(xa, xa, ts), np.tile(xa, (17, 1)))
    # the pole check covers every point of a stack
    with pytest.raises(DomainError):
        orc.to_chart(np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]))
