import warnings

import numpy as np
import pytest

from geocalc import (
    CircleSdf,
    DomainError,
    EllipsoidSdf,
    SphereSdf,
    check_consistency,
    discrete_energy,
    energy_from_w,
    flat_energy,
    metric_from_energy,
    sdf_spring_model,
    solve_geodesic,
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


def _chart_w(xs, ys):
    """The sphere chart's w, complex-safe: x * x in place of |x|^2."""
    return 4.0 / (1.0 + (xs * xs).sum(-1)) ** 2 * ((ys - xs) ** 2).sum(-1)


def test_stacked_evaluation_matches_per_point():
    from geocalc.rods import random_smooth_rod, rod_energy

    rng = np.random.default_rng(12)
    cases = []
    for model, d in ((flat_energy(), 3), (sphere_chart_energy(), 2), (energy_from_w(_chart_w), 2)):
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
    from geocalc.core import _ComplexStepModel
    from geocalc.models import FlatEnergy, SphereChartEnergy
    from geocalc.rods import FullRodEnergy, SimplifiedRodEnergy, _RodEnergy

    per_point = {"w", "grads", "grad1", "grad2", "hess_blocks", "hess11", "hess12", "hess21", "hess22", "d", "grad_d", "hess_d"}
    classes = (
        FlatEnergy, SphereChartEnergy, _RodEnergy, SimplifiedRodEnergy, FullRodEnergy,
        _ComplexStepModel, CircleSdf, SphereSdf, EllipsoidSdf,
    )
    for cls in classes:
        assert not per_point & set(vars(cls)), cls.__name__


def test_chart_hess21_is_2_cross_t_minus_h22_bit_for_bit():
    # hess21 is handed out as the transpose of hess12; written out, it is
    # 2 grad c(x) (y - x)^T transposed minus h22 = 2 c(x) I
    sc = sphere_chart_energy()
    rng = np.random.default_rng(13)
    for n in (1, 16, 1024):
        xs = rng.normal(size=(n, 2))
        ys = xs + 0.3 * rng.normal(size=(n, 2))
        _, _, h21, h22 = sc.hess_blocks_stacked(xs, ys)
        q = 1.0 + (xs * xs).sum(-1)
        grad_c = -4.0 * xs * (4.0 / q**2)[:, None] / q[:, None]
        cross_t = (ys - xs)[:, :, None] * grad_c[:, None, :]
        np.testing.assert_array_equal(h22, 2.0 * (4.0 / q**2)[:, None, None] * np.eye(2))
        np.testing.assert_array_equal(h21, 2.0 * cross_t - h22)


def _chart_by_tensors(xs, ys):
    """w, grad1, grad2, hess11, hess12 and hess22 of the chart by its tensor
    formulas: squared norms as (v * v).sum(-1), outer products, np.eye(2)."""

    def sq(v):
        return (v * v).sum(-1, keepdims=True)

    diff = ys - xs
    q = 1.0 + sq(xs)
    c = 4.0 / q**2
    grad_c = -4.0 * xs * c / q
    g2 = 2.0 * c * diff
    q, c = q[..., None], c[..., None]
    h22 = 2.0 * c * np.eye(2)
    hc = c * (-4.0 * np.eye(2) / q + 24.0 * (xs[:, :, None] * xs[:, None, :]) / q**2)
    cross = grad_c[:, :, None] * diff[:, None, :]
    h11 = hc * sq(diff)[..., None] - 2.0 * (cross + np.swapaxes(cross, 1, 2)) + h22
    return (c[..., 0] * sq(diff))[:, 0], grad_c * sq(diff) - g2, g2, h11, 2.0 * cross - h22, h22


@pytest.mark.parametrize("n", [1, 16, 1024, 4096])
def test_chart_outputs_are_the_tensor_formulas_bit_for_bit(n):
    # the chart forms each entry from coordinate columns; every entry,
    # signed zeros included, is the tensor formulas' one
    sc = sphere_chart_energy()
    rng = np.random.default_rng(n)
    xs = rng.normal(size=(n, 2))
    ys = xs + 0.3 * rng.normal(size=(n, 2))
    if n > 1:
        # the origin, points on an axis (signed zeros in x x^T), y = x
        special = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, -0.5], [0.0, -0.5]], [[-0.0, 0.3], [0.2, 0.3]], [[0.7, -0.4], [0.7, -0.4]]]
        xs[:4], ys[:4] = np.swapaxes(special, 0, 1)
    w = sc.w_stacked(xs, ys)
    (g1, g2), (h11, h12, _, h22) = sc.grads_stacked(xs, ys), sc.hess_blocks_stacked(xs, ys)
    for got, want in zip((w, g1, g2, h11, h12, h22), _chart_by_tensors(xs, ys)):
        assert got.shape == want.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_chart_is_warning_free_far_from_the_origin():
    # at |x| = 1e60, q^3 = (1 + |x|^2)^3 overflows while c(x) = 4e-240 and
    # every derivative of w is finite or underflows to 0
    sc = sphere_chart_energy()
    x, y = [[1e60, 0.0]], [[0.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(sc.w_stacked(x, y), [4e-120], rtol=1e-15)
        np.testing.assert_allclose(sc.metric(x[0]), 4e-240 * np.eye(2), rtol=1e-15)
        np.testing.assert_allclose(sc.grads_stacked(x, y), [[[-8e-180, 0.0]], [[-8e-180, 0.0]]], rtol=1e-15)
        assert all(np.isfinite(block).all() for block in sc.hess_blocks_stacked(x, y))

    # from |x| of about 1e52 the direct formulas underflow (hess11 came out
    # with the wrong sign at 1e60), from 1.2e77 (1 + |x|^2)^2 overflows, and
    # at 1e160 |y - x|^2 does (c |y - x|^2 was 0 inf = NaN).  At x = (r, 0),
    # y = 0: w = 4 / r^2, both gradients (-8 / r^3, 0), hess11 = hess12 =
    # diag(24, -8) / r^4 and hess22 = 8 I / r^4: to rounding where these are
    # normal numbers, within 1e-322 where they are subnormal (1 / r^4 =
    # 1e-312 at r = 1e78; the expected values are rounded too)
    for r in (1e60, 1e78, 1e100, 1e160):
        x = [[r, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, grads, hess, metric = sc.w_stacked(x, y), sc.grads_stacked(x, y), sc.hess_blocks_stacked(x, y), sc.metric(x[0])
        inv2 = (1.0 / r) ** 2
        close = {"rtol": 1e-15, "atol": 1e-322}
        np.testing.assert_allclose(w, [4.0 * inv2], **close)
        np.testing.assert_allclose(metric, 4.0 * inv2**2 * np.eye(2), **close)
        np.testing.assert_allclose(grads, [[[-8.0 * (1.0 / r) ** 3, 0.0]]] * 2, **close)
        hess11 = np.diag([24.0, -8.0]) * inv2**2
        np.testing.assert_allclose(hess, [[hess11], [hess11], [hess11], [8.0 * inv2**2 * np.eye(2)]], **close)


def test_a_far_row_leaves_the_other_rows_of_its_stack_alone():
    sc = sphere_chart_energy()
    rng = np.random.default_rng(17)
    xs, ys = rng.normal(size=(2, 8, 2))
    far = xs.copy()
    far[3] = [1e100, -3e99]
    for method in (sc.w_stacked, sc.grads_stacked, sc.hess_blocks_stacked):
        near, mixed = method(xs, ys), method(far, ys)
        for a, b in zip(near if isinstance(near, tuple) else (near,), mixed if isinstance(mixed, tuple) else (mixed,)):
            np.testing.assert_array_equal(np.delete(a, 3, axis=0), np.delete(b, 3, axis=0))
            assert np.isfinite(b[3]).all()


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
    # along a zero-length arc the transport is the identity
    w = np.array([0.3, -0.7])
    assert np.array_equal(orc.transport(xa, xa, w), w)


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
    with pytest.raises(DomainError, match="too close to the projection pole"):
        orc.pullback([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])


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
    for axes in ([2.0, 0.0, 1.0], [2.0, 1.0, -1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [[1.0, 2.0, 3.0]], 2.0, []):
        with pytest.raises(DomainError, match="semi axes must be positive"):
            EllipsoidSdf(axes)
    # points of another dimension are a DomainError naming both
    with pytest.raises(DomainError, match=r"3 coordinates, got a stack of shape \(2, 2\)"):
        solve_geodesic([1.0, 0.0], [0.0, 1.0], 4, flat_energy(), constraint=EllipsoidSdf([1.0, 2.0, 3.0]))
    ell = EllipsoidSdf([2.0, 1.0, 1.0])
    assert ell.d(np.array([3.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(ell.grad_d(np.array([3.0, 0.0, 0.0])), [1.0, 0.0, 0.0], atol=1e-10)
    assert ell.d(np.array([0.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # a point whose square overflows has no finite distance
    assert np.isnan(ell.d(np.array([1e200, 0.0, 0.0])))
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
