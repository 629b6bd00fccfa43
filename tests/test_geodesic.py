import io

import numpy as np
import pytest

from geocalc import (
    DiscretePath,
    DomainError,
    InvariantViolation,
    SolverConfig,
    discrete_energy,
    discrete_length,
    el_residual,
    flat_energy,
    project_onto_level_set,
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
        def w(self, x, y):
            return -1.0

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
        def w(self, x, y):
            return 0.0

        def grad1(self, x, y):
            return np.ones(2)

        grad2 = grad1

        def hess11(self, x, y):
            return np.zeros((2, 2))

        hess12 = hess21 = hess22 = hess11

    with pytest.raises(SolverError, match="singular block pivot"):
        solve_geodesic([0.0, 0.0], [1.0, 0.0], 4, Degenerate())


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
    res_sph = solve_geodesic_constrained([1.0, 0.0, 0.0], xb, 8, model, sphere)
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
    res = solve_geodesic_constrained([1.0, 0.0], [0.0, 1.0], 2, model, circle)
    assert res.converged
    assert np.allclose(res.path[1], [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)


def test_constrained_sphere_equidistribution():
    model, sphere = sdf_spring_model(SphereSdf())
    xa = np.array([1.0, 0.0, 0.0])
    xb = np.array([0.2, 0.9, 0.4])
    xb /= np.linalg.norm(xb)
    res = solve_geodesic_constrained(xa, xb, 8, model, sphere)
    assert res.converged
    for k in range(9):
        assert abs(sphere.d(res.path[k])) <= 1e-10
    chords = [np.linalg.norm(res.path[k] - res.path[k - 1]) for k in range(1, 9)]
    assert max(chords) - min(chords) <= 1e-8
    assert res.multipliers is not None and res.multipliers.shape == (7,)


def test_constrained_identical_endpoints():
    model, sphere = sdf_spring_model(SphereSdf())
    xa = np.array([0.0, 0.0, 1.0])
    res = solve_geodesic_constrained(xa, xa, 4, model, sphere)
    assert res.converged
    assert np.max(np.abs(res.path.points - xa)) <= 1e-12
    assert np.max(np.abs(res.multipliers)) <= 1e-12


def test_constrained_requires_on_surface_endpoints():
    model, sphere = sdf_spring_model(SphereSdf())
    with pytest.raises(DomainError, match="level set"):
        solve_geodesic_constrained([1.1, 0.0, 0.0], [0.0, 1.0, 0.0], 4, model, sphere)


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

        def _check(self, *pts):
            if any(abs(float(p[0]) - 0.5) < 0.1 for p in pts):
                raise DomainError("point inside the excluded band")

        def w(self, x, y):
            self._check(x, y)
            return super().w(x, y)

        def grad1(self, x, y):
            self._check(x, y)
            return super().grad1(x, y)

        def grad2(self, x, y):
            self._check(x, y)
            return super().grad2(x, y)

    # the first Newton step lands on the midpoint 0.5, inside the band; at
    # K = 4 the inner segments go through the stacked methods, which must
    # honour the per-point overrides
    for init in ([[0.0], [0.2], [1.0]], [[0.0], [0.2], [0.3], [0.8], [1.0]]):
        with pytest.raises(SolverError, match="left the model's domain") as err:
            solve_geodesic([0.0], [1.0], len(init) - 1, Banded(), init_path=init)
        assert err.value.residual > 0
    # an inadmissible initial path is the caller's input, not a solver failure
    with pytest.raises(DomainError, match="excluded band"):
        solve_geodesic([0.0], [1.0], 2, Banded(), init_path=[[0.0], [0.45], [1.0]])


def test_stacked_path_solve_matches_per_segment_loop():
    from geocalc.core import EnergyModel

    class Looped(type(CHART)):
        # redefining the per-point methods restores the per-segment loop
        w = type(CHART).w
        grads = EnergyModel.grads
        hess_blocks = EnergyModel.hess_blocks

    for name in ("w_stacked", "grads_stacked", "hess_blocks_stacked"):
        assert getattr(Looped, name) is getattr(EnergyModel, name)
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
        def hess11(self, x, y):
            calls.append(("hess11", np.array(x), np.array(y)))
            return super().hess11(x, y)

        def hess12(self, x, y):
            calls.append(("hess12", np.array(x), np.array(y)))
            return super().hess12(x, y)

        def hess21(self, x, y):
            calls.append(("hess21", np.array(x), np.array(y)))
            return super().hess21(x, y)

        def hess22(self, x, y):
            calls.append(("hess22", np.array(x), np.array(y)))
            return super().hess22(x, y)

    res = solve_geodesic(XA, XB, 2, Counting())
    assert res.converged and res.iterations >= 2
    assert len(calls) == 2 * res.iterations
    for name, x, y in calls:
        # segment 1 starts at XA and only its hess22 is read; segment 2
        # ends at XB and only its hess11 is read
        first = np.array_equal(x, XA)
        assert name == ("hess22" if first else "hess11")
        assert first or np.array_equal(y, XB)
    assert sum(name == "hess22" for name, _, _ in calls) == res.iterations
