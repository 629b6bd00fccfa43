import io

import numpy as np
import pytest

from geocalc import (
    DiscretePath,
    DomainError,
    InvariantViolation,
    SolverConfig,
    discrete_energy,
    discrete_exp,
    discrete_exp_path,
    discrete_length,
    discrete_log,
    el_residual,
    flat_energy,
    project_onto_level_set,
    rod_gauge,
    sdf_spring_model,
    solve_geodesic,
    solve_geodesic_constrained,
    sphere_chart_energy,
    sphere_oracles,
    write_result_csv,
)
from geocalc.models import CircleSdf, SphereSdf

FLAT = flat_energy()
CHART = sphere_chart_energy()
ORACLE = sphere_oracles()
XA = np.array([0.5, 0.0])
XB = np.array([-0.5, 2.0])


def test_discrete_energy_examples():
    path = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]
    assert discrete_energy(path, FLAT) == pytest.approx(1.0)
    const = np.tile([0.3, 0.4], (5, 1))
    assert discrete_energy(const, FLAT) == 0.0
    path1 = [[0.0], [0.25], [1.0]]
    assert discrete_energy(path1, FLAT) == pytest.approx(1.25)


def test_discrete_length_examples():
    assert discrete_length([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], FLAT) == pytest.approx(1.0)
    assert discrete_length(np.tile([1.0, 2.0], (4, 1)), FLAT) == 0.0
    assert discrete_length([[0.0], [0.25], [1.0]], FLAT) == pytest.approx(1.0)


def test_discrete_length_rejects_negative_w():
    class Broken(type(FLAT)):
        def w_stacked(self, xs, ys):
            return np.full(len(xs), -1.0)

    with pytest.raises(InvariantViolation, match="segment 1"):
        discrete_length([[0.0], [1.0]], Broken())


def test_energy_domain_error_names_segment():
    from geocalc.rods import circle_rod, rod_energy

    model = rod_energy("simplified", 16, 0.1)
    good = circle_rod(16).coord
    bad = np.zeros(32)
    with pytest.raises(DomainError, match="segment 2"):
        discrete_energy(np.stack([good, good, bad]), model)


def test_el_residual_flat():
    straight = np.linspace(0, 1, 5)[:, None] * np.array([[1.0, 2.0]])
    assert np.max(np.abs(el_residual(straight, FLAT))) < 1e-14
    r = el_residual(np.array([[0.0], [0.25], [1.0]]), FLAT)
    assert np.allclose(r, [[-1.0]])


def test_el_residual_on_exact_geodesic_samples_decays():
    sups = []
    for K in (8, 16, 32):
        pts = np.array([ORACLE.geodesic(XA, XB, k / K) for k in range(K + 1)])
        sups.append(float(np.max(np.abs(el_residual(pts, CHART)))))
    # at least the second-order decay of the stationarity defect
    assert sups[0] / sups[1] >= 3.5
    assert sups[1] / sups[2] >= 3.5


def test_solve_flat_straight_line():
    res = solve_geodesic([0.0, 0.0], [1.0, 0.0], 4, FLAT)
    assert res.converged
    assert np.allclose(res.path.points[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    assert np.allclose(res.path.points[:, 1], 0.0, atol=1e-12)
    assert res.energy == pytest.approx(1.0)
    assert res.length == pytest.approx(1.0)


def test_solve_k1_is_trivial():
    res = solve_geodesic(XA, XB, 1, CHART)
    assert res.converged
    assert res.iterations == 0
    assert np.allclose(res.path.points, [XA, XB])
    assert res.energy == pytest.approx(CHART.w(XA, XB))


def test_solve_sphere_chart_converges_to_oracle():
    errs = []
    for K in (16, 32, 64):
        res = solve_geodesic(XA, XB, K, CHART)
        assert res.converged
        assert res.residual <= 1e-10
        errs.append(
            max(
                float(np.linalg.norm(res.path[k] - ORACLE.geodesic(XA, XB, k / K)))
                for k in range(K + 1)
            )
        )
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.01


def test_provided_initial_path_is_used():
    base = solve_geodesic(XA, XB, 8, CHART)
    warm = solve_geodesic(XA, XB, 8, CHART, init_path=base.path)
    assert warm.converged
    assert warm.iterations <= 1
    assert np.allclose(warm.path.points, base.path.points, atol=1e-9)


def test_singular_pivot_raises_solver_error():
    from geocalc import SolverError
    from geocalc.core import EnergyModel

    class Degenerate(EnergyModel):
        def w_stacked(self, xs, ys):
            return np.zeros(len(xs))

        def grads_stacked(self, xs, ys):
            return np.ones(np.shape(xs)), np.ones(np.shape(xs))

        def hess_blocks_stacked(self, xs, ys):
            return tuple(np.zeros((4, len(xs), 2, 2)))

    # K = 64: 63 rows of 2 x 2 blocks, so the singular pivots are met by the
    # first stacked solve of the cyclic reduction, not by the sequential loop
    for K in (4, 64):
        with pytest.raises(SolverError, match="singular block pivot") as err:
            solve_geodesic([0.0, 0.0], [1.0, 0.0], K, Degenerate())
    tb, frames = err.value.__cause__.__traceback__, []
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert "_cyclic_reduction" in frames


def test_solver_reports_non_convergence():
    res = solve_geodesic(XA, XB, 32, CHART, SolverConfig(max_iter=1))
    assert not res.converged
    assert res.iterations == 1
    assert res.residual > 1e-10
    assert res.path.step_count == 32


def test_solver_config_rejects_a_non_integer_max_iter():
    for bad in (float("nan"), 2.5, True, 0, -3, "7"):
        with pytest.raises(DomainError, match="max_iter must be an integer of at least 1"):
            SolverConfig(max_iter=bad)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3


# every entry point taking a step count or iteration cap, called with a bad
# value of it, and the start of its DomainError message
_COUNT_ENTRIES = {
    "solve_geodesic": (lambda n: solve_geodesic(XA, XB, n, CHART), "K must be an integer"),
    "solve_constrained": (
        lambda n: solve_geodesic([1.0, 0.0], [0.0, 1.0], n, CHART, constraint=CircleSdf()),
        "K must be an integer",
    ),
    "discrete_log": (lambda n: discrete_log(XA, XB, n, CHART), "K must be an integer"),
    "discrete_exp": (lambda n: discrete_exp(XA, XB - XA, n, CHART), "k must be an integer"),
    "discrete_exp_path": (lambda n: discrete_exp_path(XA, XB - XA, n, CHART), "k must be an integer"),
    "rod_gauge": (rod_gauge, "n_nodes must be an integer"),
    "project_max_iter": (
        lambda n: project_onto_level_set([2.0, 0.0, 0.0], SphereSdf(), max_iter=n),
        "max_iter must be an integer",
    ),
    "project_tol": (lambda n: project_onto_level_set([2.0, 0.0, 0.0], SphereSdf(), tol=n), "tol must be positive"),
}


@pytest.mark.parametrize(
    "name, value",
    [
        ("solve_geodesic", 2.5),
        ("solve_geodesic", True),
        ("solve_constrained", 0),
        ("discrete_log", 2.5),
        ("discrete_log", True),
        ("discrete_exp", 2.5),
        ("discrete_exp", -1),
        ("discrete_exp_path", 3.0),
        ("discrete_exp_path", True),
        ("rod_gauge", 2.5),
        ("rod_gauge", 0),
        ("project_max_iter", 0),
        ("project_max_iter", 1.0),
        ("project_tol", -1.0),
        ("project_tol", float("nan")),
    ],
)
def test_bad_step_counts_and_caps_are_domain_errors(name, value):
    entry, message = _COUNT_ENTRIES[name]
    with pytest.raises(DomainError, match=message):
        entry(value)


def test_armijo_damping_still_converges():
    res = solve_geodesic(XA, XB, 16, CHART, SolverConfig(damping="armijo"))
    assert res.converged


def test_cauchy_schwarz_and_constant_speed():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pts = 0.5 * rng.normal(size=(6, 2))
        assert discrete_length(pts, CHART) ** 2 <= discrete_energy(pts, CHART) + 1e-12
    # equality holds to solver precision on the homogeneous backends
    res_flat = solve_geodesic([0.2, -1.0], [1.4, 0.3], 8, FLAT)
    assert abs(res_flat.length**2 / res_flat.energy - 1.0) <= 1e-12
    model, sphere = sdf_spring_model(SphereSdf())
    xb = np.array([0.2, 0.9, 0.4])
    xb /= np.linalg.norm(xb)
    res_sph = solve_geodesic([1.0, 0.0, 0.0], xb, 8, model, constraint=sphere)
    assert abs(res_sph.length**2 / res_sph.energy - 1.0) <= 1e-9
    # the chart-frozen energy equalizes segment energies only as K grows
    defects = []
    for K in (16, 32, 64):
        res = solve_geodesic(XA, XB, K, CHART)
        defects.append(abs(res.length**2 / res.energy - 1.0))
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] <= defects[0] / 4.0


def test_converged_geodesic_is_a_local_minimum():
    res = solve_geodesic(XA, XB, 16, CHART)
    scale = 1e-3 * float(np.max(np.abs(res.path.points)))
    rng = np.random.default_rng(8)
    for _ in range(20):
        pts = np.array(res.path.points)
        pts[1:-1] += scale * rng.normal(size=pts[1:-1].shape)
        assert discrete_energy(pts, CHART) >= res.energy - 1e-12


def test_energy_value_bound():
    dist_sq = ORACLE.dist(XA, XB) ** 2
    devs = []
    for K in (4, 8, 16, 32, 64, 128, 256):
        res = solve_geodesic(XA, XB, K, CHART)
        devs.append(abs(res.energy / dist_sq - 1.0))
    assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    assert devs[4] <= 0.05  # K = 64


def test_equidistribution_of_segments():
    ratios = []
    for K in (64, 128):
        res = solve_geodesic(XA, XB, K, CHART)
        d = [ORACLE.dist(res.path[k - 1], res.path[k]) for k in range(1, K + 1)]
        ratios.append(max(d) / min(d))
    assert ratios[0] <= 1.05
    assert ratios[1] < ratios[0]


def test_constrained_circle_midpoint():
    model, circle = sdf_spring_model(CircleSdf())
    res = solve_geodesic([1.0, 0.0], [0.0, 1.0], 2, model, constraint=circle)
    assert res.converged
    assert np.allclose(res.path[1], [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)


def test_constrained_sphere_equidistribution():
    model, sphere = sdf_spring_model(SphereSdf())
    xa = np.array([1.0, 0.0, 0.0])
    xb = np.array([0.2, 0.9, 0.4])
    xb /= np.linalg.norm(xb)
    res = solve_geodesic(xa, xb, 8, model, constraint=sphere)
    assert res.converged
    for k in range(9):
        assert abs(sphere.d(res.path[k])) <= 1e-10
    chords = [np.linalg.norm(res.path[k] - res.path[k - 1]) for k in range(1, 9)]
    assert max(chords) - min(chords) <= 1e-8
    assert res.multipliers is not None and res.multipliers.shape == (7,)


def test_constrained_identical_endpoints():
    model, sphere = sdf_spring_model(SphereSdf())
    xa = np.array([0.0, 0.0, 1.0])
    res = solve_geodesic(xa, xa, 4, model, constraint=sphere)
    assert res.converged
    assert np.max(np.abs(res.path.points - xa)) <= 1e-12
    assert np.max(np.abs(res.multipliers)) <= 1e-12


def test_constrained_requires_on_surface_endpoints():
    model, sphere = sdf_spring_model(SphereSdf())
    with pytest.raises(DomainError, match="level set"):
        solve_geodesic([1.1, 0.0, 0.0], [0.0, 1.0, 0.0], 4, model, constraint=sphere)


def test_endpoint_check_is_one_stacked_call():
    class CountingSphere(SphereSdf):
        stacks = []

        def d_stacked(self, xs):
            self.stacks.append(len(xs))
            return super().d_stacked(xs)

    model = sdf_spring_model(SphereSdf())[0]
    sphere = CountingSphere()
    with pytest.raises(DomainError, match=r"^endpoint x_b is off the level set: d = 0\.5$"):
        solve_geodesic([1.0, 0.0, 0.0], [0.0, 1.5, 0.0], 4, model, constraint=sphere)
    assert sphere.stacks == [2]


def test_projection_onto_level_set():
    sphere = SphereSdf()
    p = project_onto_level_set([2.0, 1.0, -0.5], sphere)
    assert abs(sphere.d(p)) <= 1e-12


def test_result_csv_round_trip():
    res = solve_geodesic([0.0, 0.0], [1.0, 2.0], 3, FLAT)
    buf = io.StringIO()
    write_result_csv(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,x_0,x_1"
    parsed = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    assert np.array_equal(parsed, res.path.points)


def test_path_shape_validation():
    with pytest.raises(DomainError):
        solve_geodesic([0.0, 0.0], [1.0], 4, FLAT)
    with pytest.raises(DomainError):
        solve_geodesic([0.0], [1.0], 0, FLAT)
    with pytest.raises(DomainError):
        solve_geodesic(XA, XB, 4, CHART, init_path=DiscretePath(np.zeros((3, 2))))


def test_iterate_outside_domain_is_solver_failure():
    from geocalc import SolverError
    from geocalc.models import FlatEnergy

    class Banded(FlatEnergy):
        """Flat energy undefined on the band |x_0 - 0.5| < 0.1."""

        def _check(self, *stacks):
            if any(np.any(np.abs(np.asarray(p)[:, 0] - 0.5) < 0.1) for p in stacks):
                raise DomainError("point inside the excluded band")

        def w_stacked(self, xs, ys):
            self._check(xs, ys)
            return super().w_stacked(xs, ys)

        def grads_stacked(self, xs, ys):
            self._check(xs, ys)
            return super().grads_stacked(xs, ys)

    # the first Newton step lands on the midpoint 0.5, inside the band
    for init in ([[0.0], [0.2], [1.0]], [[0.0], [0.2], [0.3], [0.8], [1.0]]):
        with pytest.raises(SolverError, match="left the model's domain") as err:
            solve_geodesic([0.0], [1.0], len(init) - 1, Banded(), init_path=init)
        assert err.value.residual > 0
    # an inadmissible initial path is the caller's input, not a solver failure
    with pytest.raises(DomainError, match="excluded band"):
        solve_geodesic([0.0], [1.0], 2, Banded(), init_path=[[0.0], [0.45], [1.0]])


def _each_segment(stacked, xs, ys):
    """The arrays of ``stacked`` (a tuple-valued stacked method) called on
    one segment at a time, concatenated."""
    parts = [stacked(xs[i : i + 1], ys[i : i + 1]) for i in range(len(xs))]
    return tuple(np.concatenate(part) for part in zip(*parts))


def test_stacked_path_solve_matches_per_segment_loop():
    from geocalc.core import EnergyModel

    class Looped(EnergyModel):
        """The chart, evaluated by its stacked methods one segment at a time."""

        def w_stacked(self, xs, ys):
            return _each_segment(lambda x, y: (CHART.w_stacked(x, y),), xs, ys)[0]

        def grads_stacked(self, xs, ys):
            return _each_segment(CHART.grads_stacked, xs, ys)

        def hess_blocks_stacked(self, xs, ys):
            return _each_segment(CHART.hess_blocks_stacked, xs, ys)

    res = solve_geodesic(XA, XB, 1024, CHART)
    ref = solve_geodesic(XA, XB, 1024, Looped())
    assert res.converged and ref.converged
    assert res.iterations == ref.iterations
    assert np.max(np.abs(res.path.points - ref.path.points)) <= 1e-12
    assert res.energy == pytest.approx(ref.energy, rel=1e-12)
    assert res.length == pytest.approx(ref.length, rel=1e-12)


def test_path_solve_evaluates_only_the_hessian_blocks_it_uses():
    calls = []

    class Counting(type(CHART)):
        def hess_blocks_stacked(self, xs, ys):
            calls.append((np.array(xs), np.array(ys)))
            return super().hess_blocks_stacked(xs, ys)

    # one stacked call per Jacobian, over the segments 1+s .. K whose
    # blocks the rows read: all K of the geodesic (s = 0), 2 .. K of the
    # exp's shifted window (s = 1); the first call sees the start
    for K in (2, 3, 8):
        calls.clear()
        res = solve_geodesic(XA, XB, K, Counting())
        assert res.converged and res.iterations >= 2
        assert len(calls) == res.iterations
        line = XA + np.linspace(0.0, 1.0, K + 1)[:, None] * (XB - XA)
        np.testing.assert_array_equal(calls[0][0], line[:K])
        np.testing.assert_array_equal(calls[0][1], line[1:])

        calls.clear()
        zeta = res.path[1] - res.path[0]
        discrete_exp_path(XA, zeta, K, Counting())
        assert len(calls) >= 1
        ray = XA + np.arange(K + 1.0)[:, None] * zeta
        np.testing.assert_array_equal(calls[0][0], ray[1:K])
        np.testing.assert_array_equal(calls[0][1], ray[2:])


def test_newton_reports_a_non_finite_residual_as_divergence():
    from geocalc import SolverError
    from geocalc.geodesic import _newton

    # Newton for log z = 0 from z = 3 overshoots to z = -0.296, where the
    # residual is NaN; `while nan > tol` is false, so this used to return
    # silently with converged=False and residual NaN
    with pytest.raises(SolverError, match="stub: diverged, the residual of iteration 1") as err:
        _newton(np.log, lambda z, r: z * r, np.array([3.0]), None, "stub")
    assert err.value.residual == pytest.approx(np.log(3.0))


def test_newton_reports_a_non_finite_correction_as_divergence():
    from geocalc import SolverError
    from geocalc.geodesic import _newton

    # Newton for arctan z = 0 from z = 2 diverges, |z| roughly squaring per
    # step, until the correction (1 + z^2) arctan z overflows
    with pytest.raises(SolverError, match="stub: diverged, the Newton correction of iteration 10"):
        _newton(np.arctan, lambda z, r: (1.0 + z * z) * r, np.array([2.0]), None, "stub")


def test_solve_reports_divergence_of_a_model_that_leaks_nan():
    from geocalc import SolverError
    from geocalc.core import EnergyModel

    class Overshooting(EnergyModel):
        """w = (y - x)^2 on [-1, 1], NaN outside instead of a DomainError,
        with Hessians 1000 times too small, so Newton steps overshoot."""

        def _check(self, xs, ys):
            """1 on each segment inside [-1, 1], NaN on the others, shape (n, 1)."""
            outside = np.max(np.abs(np.hstack([xs, ys])), axis=1, keepdims=True) > 1.0
            return np.where(outside, np.nan, 1.0)

        def w_stacked(self, xs, ys):
            return self._check(xs, ys)[:, 0] * np.sum((ys - xs) ** 2, axis=1)

        def grads_stacked(self, xs, ys):
            check = self._check(xs, ys)
            return check * 2.0 * (xs - ys), check * 2.0 * (ys - xs)

        def hess_blocks_stacked(self, xs, ys):
            h = np.full((len(xs), 1, 1), 2e-3)
            return h, -h, -h, h

    for K in (2, 64):
        init = np.zeros((K + 1, 1))
        init[1:K] = 0.2
        with pytest.raises(SolverError, match="geodesic solve: diverged") as err:
            solve_geodesic([0.0], [0.0], K, Overshooting(), init_path=init)
        assert np.isfinite(err.value.residual)
        # a start outside [-1, 1] is not finite before any iteration
        init[1:K] = 2.0
        with pytest.raises(SolverError, match="residual at the start point is not finite"):
            solve_geodesic([0.0], [0.0], K, Overshooting(), init_path=init)


def test_solve_geodesic_constrained_is_an_alias_of_solve_geodesic():
    model, sphere = sdf_spring_model(SphereSdf())
    xa, xb = [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]
    init = solve_geodesic(XA, XB, 8, CHART, SolverConfig(max_iter=1)).path
    pairs = [
        (solve_geodesic_constrained(xa, xb, 8, model, sphere), solve_geodesic(xa, xb, 8, model, constraint=sphere)),
        (
            solve_geodesic_constrained(XA, XB, 8, CHART, None, SolverConfig(damping="armijo"), init_path=init),
            solve_geodesic(XA, XB, 8, CHART, SolverConfig(damping="armijo"), init_path=init),
        ),
    ]
    for got, want in pairs:
        np.testing.assert_array_equal(got.path.points, want.path.points)
        assert (got.iterations, got.residual, got.energy) == (want.iterations, want.residual, want.energy)
    np.testing.assert_array_equal(pairs[0][0].multipliers, pairs[0][1].multipliers)
    # a matrix is not a constraint: a TypeError, not an AttributeError from the kernel
    with pytest.raises(TypeError, match="constraint must be None, a LinearGauge or a ConstraintModel, got"):
        solve_geodesic_constrained(XA, XB, 4, CHART, np.eye(2))


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("bad", ["sphere", np.eye(2)], ids=["str", "matrix"])
def test_other_constraint_types_are_type_errors(K, bad):
    with pytest.raises(TypeError, match="constraint must be None, a LinearGauge or a ConstraintModel, got"):
        solve_geodesic(XA, XB, K, CHART, constraint=bad)
