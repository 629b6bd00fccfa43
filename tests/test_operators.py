import io

import numpy as np
import pytest

from geocalc import (
    DomainError,
    SolverConfig,
    SolverError,
    circle_rod,
    discrete_connection,
    discrete_exp,
    discrete_exp_path,
    discrete_log,
    exp2,
    flat_energy,
    inverse_transport,
    log2,
    parallel_transport,
    random_smooth_rod,
    rod_energy,
    rod_gauge,
    sdf_spring_model,
    solve_geodesic,
    sphere_chart_energy,
    sphere_oracles,
    transport_step,
    write_traces_csv,
)
from geocalc import operators as op
from geocalc.models import CircleSdf, SphereSdf

from labelled import assert_labelled

FLAT = flat_energy()
CHART = sphere_chart_energy()
ORACLE = sphere_oracles()
XA = np.array([0.5, 0.0])
XB = np.array([-0.5, 2.0])


def _sphere_pair():
    model, sphere = sdf_spring_model(SphereSdf())
    xa = np.array([1.0, 0.0, 0.0])
    xb = np.array([0.2, 0.9, 0.4])
    return model, sphere, xa, xb / np.linalg.norm(xb)


def test_log2_flat_midpoint():
    x0 = np.array([0.1, -0.4])
    x2 = np.array([1.3, 0.8])
    assert np.allclose(log2(x0, x2, FLAT), (x2 - x0) / 2.0, atol=1e-12)
    assert np.allclose(log2(x0, x0, FLAT), np.zeros(2), atol=1e-14)


def test_log2_midpoint_deviation_is_second_order():
    u = np.array([0.3, -0.2])
    devs = []
    for j in range(4):
        x2 = XA + u / 2**j
        devs.append(
            float(np.linalg.norm(XA + log2(XA, x2, CHART) - (XA + x2) / 2.0))
        )
    for j in range(3):
        assert 3.0 <= devs[j] / devs[j + 1] <= 5.0


def test_exp2_flat_and_zero():
    x = np.array([0.1, 0.7])
    z = np.array([0.25, -0.1])
    assert np.allclose(exp2(x, z, FLAT), x + 2 * z, atol=1e-12)
    assert np.allclose(exp2(x, np.zeros(2), CHART), x, atol=1e-12)


def test_exp2_second_order_deviation():
    u = np.array([0.3, -0.2])
    devs = []
    for j in range(4):
        z = u / 2**j
        devs.append(float(np.linalg.norm(exp2(XA, z, CHART) - (XA + 2 * z))))
    for j in range(3):
        assert 3.0 <= devs[j] / devs[j + 1] <= 5.0


def test_exp2_inverts_log2():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x2 = XA + 0.3 * rng.normal(size=2)
        z = log2(XA, x2, CHART)
        assert np.linalg.norm(exp2(XA, z, CHART) - x2) <= 1e-9


def test_discrete_log_examples():
    assert np.allclose(discrete_log(XA, XB, 1, CHART), XB - XA)
    z = discrete_log(np.zeros(2), np.array([1.0, 0.0]), 4, FLAT)
    assert np.allclose(z, [0.25, 0.0], atol=1e-12)


def test_discrete_log_checks_the_level_set_at_every_step_count():
    # K = 1 needs no solve, but its endpoints must lie on the level set too
    xa, xb = [1.2, 0.0, 0.0], [0.0, 0.6, 0.8]
    messages = []
    for K in (1, 2):
        with pytest.raises(DomainError, match="endpoint x_a is off the level set") as err:
            discrete_log(xa, xb, K, FLAT, None, SphereSdf())
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_discrete_log_propagates_solver_failure():
    cfg = SolverConfig(max_iter=1)
    with pytest.raises(SolverError):
        discrete_log(XA, XB, 32, CHART, cfg)


def test_discrete_exp_examples():
    z = np.array([0.25, 0.0])
    assert np.allclose(discrete_exp(np.zeros(2), z, 4, FLAT), [1.0, 0.0], atol=1e-12)
    assert np.allclose(discrete_exp(XA, z, 1, CHART), XA + z)
    assert np.allclose(discrete_exp(XA, z, 0, CHART), XA)
    with pytest.raises(DomainError):
        discrete_exp(XA, z, -1, CHART)
    # a point outside the model's domain is an error at every k, k <= 1 too
    for k in (0, 1, 2):
        with pytest.raises(DomainError, match="the sphere chart is two-dimensional"):
            discrete_exp([0.1, 0.2, 0.3], [0.1, 0.0, 0.0], k, CHART)


def test_exp_log_round_trip_on_chart():
    cfg = SolverConfig()
    for K in (4, 16):
        z = discrete_log(XA, XB, K, CHART, cfg)
        bvp = solve_geodesic(XA, XB, K, CHART)
        shoot = discrete_exp_path(XA, z, K, CHART, cfg)
        worst = max(
            float(np.linalg.norm(shoot[k] - bvp.path[k])) for k in range(K + 1)
        )
        assert worst <= 10 * cfg.newton_tol


def test_transport_step_flat_closes_parallelogram():
    z = np.array([0.07, -0.02])
    z_next, trace = transport_step([0.0, 0.0], [0.3, 0.1], z, FLAT)
    assert np.allclose(z_next, z, atol=1e-12)
    # the rung starts from x_prev + z; in flat space its midpoint halves the
    # diagonal from there to x_next
    assert np.allclose(2.0 * trace.x_c, [[0.07 + 0.3, -0.02 + 0.1]])
    assert trace.x_p.shape == trace.zeta.shape == (1, 2)
    assert np.allclose(trace.x_p - np.array([0.3, 0.1]), trace.zeta)
    assert np.array_equal(z_next, trace.zeta[0])


def test_transport_step_degenerate_seed():
    z_next, _ = transport_step(XA, ORACLE.geodesic(XA, XB, 1 / 16), np.zeros(2), CHART)
    assert np.linalg.norm(z_next) <= 1e-9


def test_transport_construction_identities():
    res = solve_geodesic(XA, XB, 8, CHART)
    zeta0 = np.array([-0.05, 0.0])
    zeta, trace = parallel_transport(res.path, zeta0, CHART)
    assert np.array_equal(trace.zeta, trace.x_p - res.path.points[1:])
    # rung k starts from the corner before it, row k - 2 of x_p (x_0 +
    # zeta_0 for rung 1): its midpoint equation holds from there
    corner_prev = np.vstack([res.path[0] + zeta0, trace.x_p[:-1]])
    mid = CHART.grads_stacked(corner_prev, trace.x_c)[1] + CHART.grads_stacked(trace.x_c, res.path.points[1:])[0]
    assert np.max(np.abs(mid)) <= SolverConfig().newton_tol
    assert np.array_equal(zeta, trace.zeta[-1])


def test_transport_norm_drift_is_high_order():
    w = np.array([-0.4, 0.0])
    drifts = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        x_next = ORACLE.geodesic(XA, XB, h)
        z0 = h * w
        z1, _ = transport_step(XA, x_next, z0, CHART)
        g0 = float(z0 @ CHART.metric(XA) @ z0)
        g1 = float(z1 @ CHART.metric(x_next) @ z1)
        drifts.append(abs(g1 - g0))
    # cubic-or-better decay per step halving
    assert drifts[0] / drifts[1] >= 6.0
    assert drifts[1] / drifts[2] >= 6.0


def test_parallel_transport_flat_is_identity():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(6, 3))
    z0 = rng.normal(size=3)
    zK, trace = parallel_transport(pts, z0, flat_energy())
    assert np.allclose(zK, z0, atol=1e-10)
    assert trace.x_c.shape == trace.x_p.shape == trace.zeta.shape == (5, 3)


def test_transport_identity_along_geodesic():
    res = solve_geodesic(XA, XB, 16, CHART)
    z0 = res.path[1] - res.path[0]
    for k in (1, 8, 15):
        zk, _ = parallel_transport(res.path.points[: k + 1], z0, CHART)
        assert np.linalg.norm(zk - (res.path[k + 1] - res.path[k])) <= 1e-9


def test_inverse_transport_flat():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(5, 2))
    z = rng.normal(size=2)
    assert np.allclose(inverse_transport(pts, z, flat_energy()), z, atol=1e-10)


def test_inverse_transport_exactly_inverts_forward():
    res = solve_geodesic(XA, XB, 16, CHART)
    z0 = np.array([-0.025, 0.0])
    zK, _ = parallel_transport(res.path, z0, CHART)
    back = inverse_transport(res.path, zK, CHART)
    assert np.linalg.norm(back - z0) <= 1e-9


def test_reverse_path_transport_defect_for_asymmetric_energy():
    # there-and-back forward transport is not the inverse for asymmetric w;
    # its defect decays at second order in the step
    w = np.array([-0.4, 0.0])
    defects = []
    for K in (8, 16, 32):
        res = solve_geodesic(XA, XB, K, CHART)
        fw, _ = parallel_transport(res.path, w / K, CHART)
        bk, _ = parallel_transport(res.path.points[::-1], fw, CHART)
        defects.append(float(np.linalg.norm(bk - w / K)))
    assert 3.0 <= defects[0] / defects[1] <= 5.0
    assert 3.0 <= defects[1] / defects[2] <= 5.0


def test_inverse_transport_symmetric_round_trip_on_sphere():
    model, sphere, xa, xb = _sphere_pair()
    res = solve_geodesic(xa, xb, 16, model, constraint=sphere)
    tangent = np.array([0.0, 0.05, -0.02])
    tangent -= (tangent @ xa) * xa
    tip = (xa + tangent) / np.linalg.norm(xa + tangent)
    zeta0 = tip - xa  # seed whose tip lies on the surface
    zK, _ = parallel_transport(res.path, zeta0, model, constraint=sphere)
    back = inverse_transport(res.path, zK, model, constraint=sphere)
    assert np.linalg.norm(back - zeta0) <= 1e-9


def test_inverse_transport_round_trip_for_an_asymmetric_energy_on_a_level_set():
    # the chart energy w(x, y) = c(x) |y - x|^2 on the unit circle
    circle = CircleSdf()
    xa, xb = np.array([np.cos(0.3), np.sin(0.3)]), np.array([np.cos(1.5), np.sin(1.5)])
    K = 16
    res = solve_geodesic(xa, xb, K, CHART, constraint=circle)
    assert res.converged
    tip = np.array([np.cos(0.35), np.sin(0.35)])
    zeta0 = tip - xa  # seed whose tip lies on the circle
    zK, _ = parallel_transport(res.path, zeta0, CHART, constraint=circle)
    back = inverse_transport(res.path, zK, CHART, constraint=circle)
    assert np.linalg.norm(back - zeta0) <= 1e-9


@pytest.mark.parametrize("n", [16, 32])
def test_inverse_transport_round_trip_on_a_gauged_rod(n, monkeypatch):
    """The rod energies are not symmetric; the gauged round trip holds in
    the whole inverse solve, without the rung-by-rung fallback."""
    model, gauge, K = rod_energy("simplified", n), rod_gauge(n), 8
    a = circle_rod(n).coord
    b = random_smooth_rod(n, np.random.default_rng(5), 1.2, amplitude=0.15).coord
    res = solve_geodesic(a, b, K, model, constraint=gauge)
    assert res.converged
    w = (random_smooth_rod(n, np.random.default_rng(7), amplitude=0.05).coord - a) / K
    zK, _ = parallel_transport(res.path, w, model, constraint=gauge)
    solves = []
    kernel = op._solve_ladder

    def counted(pts, *args, **kwargs):
        solves.append(len(pts) - 1)
        return kernel(pts, *args, **kwargs)

    monkeypatch.setattr(op, "_solve_ladder", counted)
    back = inverse_transport(res.path, zK, model, constraint=gauge)
    assert solves == [K]
    assert np.linalg.norm(back - w) <= 1e-9


def _random_segments(name):
    """Starts and ends of 5 random segments for the two asymmetric energies."""
    rng = np.random.default_rng(3)
    if name == "chart":
        return CHART, rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    base = circle_rod(8).coord
    return rod_energy("simplified", 8), *(base + 0.05 * rng.normal(size=(2, 5, base.size)))


@pytest.mark.parametrize("name", ["chart", "rod"])
def test_reversed_energy_swaps_the_slots_bitwise(name):
    model, xs, ys = _random_segments(name)
    rev = op._Reversed(model)
    np.testing.assert_array_equal(rev.w_stacked(xs, ys), model.w_stacked(ys, xs))
    g1, g2 = model.grads_stacked(ys, xs)
    for got, want in zip(rev.grads_stacked(xs, ys), (g2, g1)):
        np.testing.assert_array_equal(got, want)
    h11, h12, h21, h22 = model.hess_blocks_stacked(ys, xs)
    for got, want in zip(rev.hess_blocks_stacked(xs, ys), (h22, h21, h12, h11)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "a, b, w",
    [((1.29, -0.49), (0.8, 0.46), (0.16, 0.21)), ((0.29, -1.43), (0.65, -0.43), (0.21, 0.11))],
)
def test_inverse_transport_undoes_a_coarse_chart_rung(a, b, w):
    """A coarse K = 1 chart rung, where a joint one-rung inverse solve meets
    a singular pivot; the forward rung of the reversed energy pulls w back."""
    path = solve_geodesic(a, b, 1, CHART).path
    w = np.array(w)
    zK, _ = parallel_transport(path, w, CHART)
    back = inverse_transport(path, zK, CHART)
    assert np.linalg.norm(back - w) <= 1e-10 * np.linalg.norm(w)


@pytest.mark.parametrize("bad", ["sphere", np.eye(2)], ids=["str", "matrix"])
def test_operators_reject_other_constraint_types(bad):
    """Anything but None, a LinearGauge or a ConstraintModel is a TypeError
    naming the three, not an AttributeError from inside a kernel."""
    zeta = np.array([0.1, 0.2])
    path = np.stack([XA, XA + zeta, XA + 2 * zeta])
    calls = [
        lambda: log2(XA, XB, CHART, constraint=bad),
        lambda: exp2(XA, zeta, CHART, constraint=bad),
        lambda: discrete_log(XA, XB, 4, CHART, constraint=bad),
        lambda: discrete_exp_path(XA, zeta, 4, CHART, constraint=bad),
        lambda: discrete_exp(XA, zeta, 4, CHART, constraint=bad),
        lambda: parallel_transport(path, zeta, CHART, constraint=bad),
        lambda: transport_step(XA, XB, zeta, CHART, constraint=bad),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="constraint must be None, a LinearGauge or a ConstraintModel"):
            call()


@pytest.mark.parametrize("bad", ["sphere", np.eye(2)], ids=["str", "matrix"])
def test_operators_check_the_constraint_at_every_step_count(bad):
    """The step counts with an empty window check the constraint too, in
    the path kernel's view like every other, and so do inverse transport
    and the connection built on it."""
    zeta = np.array([0.1, 0.2])
    calls = [
        lambda: solve_geodesic(XA, XB, 1, CHART, constraint=bad),
        lambda: discrete_log(XA, XB, 1, CHART, constraint=bad),
        lambda: discrete_exp_path(XA, zeta, 1, FLAT, constraint=bad),
        lambda: discrete_exp(XA, zeta, 0, FLAT, constraint=bad),
        lambda: discrete_exp(XA, zeta, 1, FLAT, constraint=bad),
        lambda: inverse_transport(np.stack([XA, XB]), zeta, CHART, constraint=bad),
        lambda: discrete_connection(XA, zeta, zeta, zeta, CHART, constraint=bad),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="constraint must be None, a LinearGauge or a ConstraintModel"):
            call()


def test_connection_flat_difference():
    eta0 = np.array([0.3, -0.1])
    eta1 = np.array([0.1, 0.2])
    out = discrete_connection([0.0, 0.0], [0.5, 0.5], eta0, eta1, flat_energy())
    assert np.allclose(out, eta1 - eta0, atol=1e-12)


def test_connection_vanishes_along_geodesic():
    res = solve_geodesic(XA, XB, 16, CHART)
    for k in (0, 7, 14):
        dx0 = res.path[k + 1] - res.path[k]
        dx1 = res.path[k + 2] - res.path[k + 1]
        out = discrete_connection(res.path[k], dx0, dx0, dx1, CHART)
        assert np.linalg.norm(out) <= 1e-9


def test_connection_converges_to_covariant_derivative():
    def eta(p):
        return np.array([-p[1] ** 2, p[0] * p[1]])

    def deta(p):
        return np.array([[0.0, -2.0 * p[1]], [p[1], p[0]]])

    theta = np.array([0.3, -0.2])
    ref = ORACLE.covariant_derivative(XA, theta, eta(XA), deta(XA))
    errs = []
    for tau in (0.1, 0.05, 0.025):
        approx = (
            discrete_connection(
                XA, tau * theta, tau * eta(XA), tau * eta(XA + tau * theta), CHART
            )
            / tau**2
        )
        errs.append(float(np.linalg.norm(approx - ref)))
    assert 1.6 <= errs[0] / errs[1] <= 2.6
    assert 1.6 <= errs[1] / errs[2] <= 2.6


def test_log2_orthogonality_on_sphere():
    # the midpoint condition: zeta - (x2 - x0)/2 is normal to the surface
    # at x0 + zeta
    model, sphere, xa, xb = _sphere_pair()
    mid = (xa + xb) / np.linalg.norm(xa + xb)
    z = log2(xa, xb, model, constraint=sphere)
    assert abs(sphere.d(xa + z)) <= 1e-9
    resid = z - (xb - xa) / 2.0
    normal = sphere.grad_d(xa + z)
    tangential = resid - (resid @ normal) * normal
    assert np.linalg.norm(tangential) <= 1e-9
    assert np.linalg.norm((xa + z) - mid) <= 0.05  # near the arc midpoint


def test_exp2_on_a_level_set_matches_the_closed_form():
    # spring energy: zeta and the closing displacement differ by a multiple
    # of the normal n at x + zeta, so x2 = x + 2 zeta - c n with d(x2) = 0;
    # on the unit sphere c is the near root of |x + 2 zeta - c n| = 1
    model, sphere, xa, _ = _sphere_pair()
    rng = np.random.default_rng(21)
    for _ in range(5):
        z = 0.05 * rng.normal(size=3)
        z -= (z @ xa) * xa
        n = (xa + z) / np.linalg.norm(xa + z)
        p = xa + 2.0 * z
        c = p @ n - np.sqrt((p @ n) ** 2 - p @ p + 1.0)
        x2 = exp2(xa, z, model, constraint=sphere)
        assert np.linalg.norm(x2 - (p - c * n)) <= 1e-9
        assert abs(sphere.d(x2)) <= 1e-9


def test_solver_error_labels_stage():
    strict = SolverConfig(newton_tol=1e-14, max_iter=1)
    with pytest.raises(SolverError, match="rung-midpoint") as err:
        transport_step(XA, XB, np.array([-0.1, 0.2]), CHART, strict)
    assert err.value.residual is not None
    assert str(assert_labelled(err.value, "rung-midpoint solve failed: ")).startswith("log2: ")
    # a rung whose corner x_prev + zeta_prev is x_next: its midpoint solve
    # starts at the root and takes no step, and the completion fails
    with pytest.raises(SolverError, match="^rung-completion solve failed: exp2: no convergence") as err:
        transport_step(XA, XB, XB - XA, CHART, strict)
    assert err.value.residual > strict.newton_tol
    assert str(assert_labelled(err.value, "rung-completion solve failed: ")).startswith("exp2: ")


def test_flat_operators_are_exact():
    rng = np.random.default_rng(30)
    flat = flat_energy()
    for _ in range(5):
        x0 = rng.normal(size=3)
        x2 = rng.normal(size=3)
        z = 0.5 * rng.normal(size=3)
        assert np.allclose(log2(x0, x2, flat), (x2 - x0) / 2, atol=1e-12)
        assert np.allclose(exp2(x0, z, flat), x0 + 2 * z, atol=1e-12)
        assert np.allclose(discrete_exp(x0, z, 5, flat), x0 + 5 * z, atol=1e-12)
        pts = rng.normal(size=(4, 3))
        zK, _ = parallel_transport(pts, z, flat)
        assert np.allclose(zK, z, atol=1e-12)
        assert np.allclose(inverse_transport(pts, z, flat), z, atol=1e-12)


def test_traces_csv_layout():
    res = solve_geodesic(XA, XB, 4, CHART)
    _, trace = parallel_transport(res.path, np.array([-0.1, 0.0]), CHART)
    buf = io.StringIO()
    write_traces_csv(trace, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,xc_0,xc_1,xp_0,xp_1,zeta_0,zeta_1"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")[1:]]
    assert np.allclose(first[:2], trace.x_c[0])


def test_log2_is_the_two_step_path_solve():
    # same system, start points equal up to rounding of the midpoint
    x2 = np.array([-0.1, 0.6])
    res = solve_geodesic(XA, x2, 2, CHART)
    assert np.allclose(log2(XA, x2, CHART), res.path[1] - res.path[0], rtol=0.0, atol=1e-14)
    model, sphere, xa, xb = _sphere_pair()
    res = solve_geodesic(xa, xb, 2, model, constraint=sphere)
    z = log2(xa, xb, model, constraint=sphere)
    assert np.allclose(z, res.path[1] - res.path[0], rtol=0.0, atol=1e-14)

