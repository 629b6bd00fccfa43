"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from geocalc import (
    RodCurve,
    SolverConfig,
    circle_rod,
    discrete_connection,
    discrete_exp_path,
    discrete_log,
    exp2,
    flat_energy,
    log2,
    parallel_transport,
    random_smooth_rod,
    rod_energy,
    rod_gauge,
    sdf_spring_model,
    solve_geodesic,
    sphere_chart_energy,
    sphere_oracles,
)
from geocalc.harness import (
    StudyConfig,
    fit_order,
    run_consistency_audit,
    run_convergence_study,
    run_rod_morph,
)
from geocalc.models import SphereSdf

XA = np.array([0.5, 0.0])
XB = np.array([-0.5, 2.0])
W_SEED = np.array([-0.4, 0.0])
CHART = sphere_chart_energy()
ORACLE = sphere_oracles()
NEWTON_TOL = SolverConfig().newton_tol


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def figure_study():
    start = time.monotonic()
    report = run_convergence_study(
        StudyConfig(model="sphere-chart", xa=tuple(XA), xb=tuple(XB), w=tuple(W_SEED))
    )
    return report, time.monotonic() - start


def test_figure_reproduction(figure_study):
    report, elapsed = figure_study
    ok = True
    details = []
    for col in ("geo", "log", "exp", "pt"):
        vals = report.column(col)
        decreasing = all(vals[i + 2] < vals[i] for i in range(len(vals) - 2))
        order = report.orders[col]
        in_range = order is not None and 0.8 <= order <= 2.2
        ok = ok and decreasing and in_range
        details.append(f"{col}: order {order:.3f} decreasing={decreasing}")
    ok = ok and elapsed < 60.0
    _line(
        "figure reproduction (K=2..1024)",
        ok,
        "; ".join(details) + f"; runtime {elapsed:.1f}s < 60s",
    )


def test_energy_value_theorem():
    dist = ORACLE.dist(XA, XB)
    assert dist == pytest.approx(2.1221, abs=5e-4)
    dist_sq = dist**2
    dev64 = abs(solve_geodesic(XA, XB, 64, CHART).energy / dist_sq - 1.0)
    dev128 = abs(solve_geodesic(XA, XB, 128, CHART).energy / dist_sq - 1.0)
    ratio = dev64 / dev128
    ok = dev64 <= 0.05 and 1.5 <= ratio <= 3.0
    _line(
        "energy-value bound",
        ok,
        f"|E/dist^2 - 1| = {dev64:.4f} at K=64 (<= 0.05), halving ratio {ratio:.2f} in [1.5, 3]",
    )


def test_equidistribution_theorem():
    ratios = []
    for K in (64, 128):
        res = solve_geodesic(XA, XB, K, CHART)
        dists = [ORACLE.dist(res.path[k - 1], res.path[k]) for k in range(1, K + 1)]
        ratios.append(max(dists) / min(dists))
    ok = ratios[0] <= 1.05 and ratios[1] < ratios[0]
    _line(
        "equidistribution",
        ok,
        f"max/min segment distance {ratios[0]:.4f} at K=64 (<= 1.05), {ratios[1]:.4f} at K=128",
    )


def test_consistency_lemma_suite():
    cases = (
        ("flat", 1e-6, {}),
        ("sphere-chart", 1e-6, {}),
        ("sdf-sphere", 1e-6, {}),
        ("rod-simplified", 1e-4, {"n_nodes": 32}),
    )
    details = []
    ok = True
    for name, tol, extra in cases:
        report = run_consistency_audit(name, 50, tol=tol, seed=0, **extra)
        ok = ok and report.ok
        worst = max(r[2] for r in report.rows)
        details.append(f"{name}: worst {worst:.1e} (tol {tol:g})")
    _line("consistency suite (4 backends x 50 points)", ok, "; ".join(details))


def test_exact_flat_space_suite():
    flat = flat_energy()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        xa = rng.normal(size=3)
        xb = rng.normal(size=3)
        K = int(rng.integers(2, 9))
        res = solve_geodesic(xa, xb, K, flat)
        exact = xa[None, :] + np.linspace(0, 1, K + 1)[:, None] * (xb - xa)[None, :]
        worst = max(worst, float(np.max(np.abs(res.path.points - exact))))
        lg = discrete_log(xa, xb, K, flat)
        worst = max(worst, float(np.max(np.abs(lg - (xb - xa) / K))))
        zeta = 0.3 * rng.normal(size=3)
        shoot = discrete_exp_path(xa, zeta, K, flat)
        worst = max(worst, float(np.max(np.abs(shoot[K] - (xa + K * zeta)))))
        path = rng.normal(size=(K + 1, 3))
        transported, _ = parallel_transport(path, zeta, flat)
        worst = max(worst, float(np.max(np.abs(transported - zeta))))
        eta0 = rng.normal(size=3)
        eta1 = rng.normal(size=3)
        conn = discrete_connection(xa, zeta, eta0, eta1, flat)
        worst = max(worst, float(np.max(np.abs(conn - (eta1 - eta0)))))
    ok = worst <= 1e-10
    _line("exact flat-space suite (20 draws)", ok, f"worst deviation {worst:.2e} <= 1e-10")


def _structural_identities(model, constraint, xa, xb):
    K = 16
    tol = 10.0 * NEWTON_TOL
    bvp = solve_geodesic(xa, xb, K, model, constraint=constraint)
    assert bvp.converged

    zeta = discrete_log(xa, xb, K, model, constraint=constraint)
    shoot = discrete_exp_path(xa, zeta, K, model, constraint=constraint)
    shooting = max(float(np.linalg.norm(shoot[k] - bvp.path[k])) for k in range(K + 1))
    round_trip = float(np.linalg.norm(shoot[K] - xb))

    z0 = bvp.path[1] - bvp.path[0]
    transport_defect = 0.0
    for k in (4, K - 1):
        zk, _ = parallel_transport(bvp.path.points[: k + 1], z0, model, constraint=constraint)
        transport_defect = max(
            transport_defect, float(np.linalg.norm(zk - (bvp.path[k + 1] - bvp.path[k])))
        )

    connection_defect = 0.0
    for k in (0, 7):
        dx0 = bvp.path[k + 1] - bvp.path[k]
        dx1 = bvp.path[k + 2] - bvp.path[k + 1]
        out = discrete_connection(bvp.path[k], dx0, dx0, dx1, model, constraint=constraint)
        connection_defect = max(connection_defect, float(np.linalg.norm(out)))

    checks = {
        "round-trip": round_trip,
        "shooting": shooting,
        "transport-identity": transport_defect,
        "connection-vanishing": connection_defect,
    }
    return all(v <= tol for v in checks.values()), checks


def test_structural_identities():
    ok_chart, chart_checks = _structural_identities(CHART, None, XA, XB)
    model, sphere = sdf_spring_model(SphereSdf())
    xb = np.array([0.2, 0.9, 0.4])
    xb /= np.linalg.norm(xb)
    ok_sdf, sdf_checks = _structural_identities(model, sphere, np.array([1.0, 0.0, 0.0]), xb)
    # an asymmetric energy under a gauge: the simplified rod's morph
    rod_a = circle_rod(16).coord
    rod_b = random_smooth_rod(16, np.random.default_rng(5), 1.2, amplitude=0.15).coord
    ok_rod, rod_checks = _structural_identities(rod_energy("simplified", 16), rod_gauge(16), rod_a, rod_b)
    detail = "; ".join(
        f"{name} " + ", ".join(f"{k} {v:.1e}" for k, v in checks.items())
        for name, checks in (("sphere-chart", chart_checks), ("sdf-sphere", sdf_checks), ("gauged rod", rod_checks))
    )
    _line("structural identities (K=16)", ok_chart and ok_sdf and ok_rod, detail + f"; tol {10 * NEWTON_TOL:.0e}")


def test_second_order_local_laws():
    u = np.array([0.3, -0.2])
    exp_devs, exp_sizes, log_devs, log_sizes = [], [], [], []
    for j in range(6):
        z = u / 2**j
        exp_devs.append(float(np.linalg.norm(exp2(XA, z, CHART) - (XA + 2 * z))))
        exp_sizes.append(float(np.linalg.norm(z)))
        x2 = XA + u / 2**j
        log_devs.append(
            float(np.linalg.norm(XA + log2(XA, x2, CHART) - (XA + x2) / 2.0))
        )
        log_sizes.append(float(np.linalg.norm(x2 - XA)))
    slope_exp = fit_order(exp_devs, [1.0 / s for s in exp_sizes])
    slope_log = fit_order(log_devs, [1.0 / s for s in log_sizes])
    ok = abs(slope_exp - 2.0) <= 0.3 and abs(slope_log - 2.0) <= 0.3
    _line(
        "second-order local laws",
        ok,
        f"exp2 slope {slope_exp:.3f}, log2 slope {slope_log:.3f} (2.0 +/- 0.3)",
    )


def test_rod_space_suite():
    start = time.monotonic()
    audit = run_consistency_audit("rod-simplified", 20, tol=1e-4, seed=0, n_nodes=32)

    res, _ = run_rod_morph(circle_rod(64), circle_rod(64, 1.2), 8)
    from geocalc.rods import rod_energy

    model = rod_energy("simplified", 64, 0.1)
    segments = [8 * model.w(res.path[k - 1], res.path[k]) for k in range(1, 9)]
    spread_ok = max(segments) / min(segments) <= 1.1

    # self-convergence of the path midpoint on an asymmetric morph; the
    # rotationally symmetric circle pair sits below the solver noise floor
    s = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    target = RodCurve(np.stack([1.3 * np.cos(s), 0.8 * np.sin(s)], axis=1))
    mids = {}
    for K in (4, 8, 16):
        morph, _ = run_rod_morph(circle_rod(48), target, K)
        mids[K] = RodCurve.from_coord(morph.path[K // 2]).nodes
    d_coarse = float(np.max(np.linalg.norm(mids[4] - mids[8], axis=1)))
    d_fine = float(np.max(np.linalg.norm(mids[8] - mids[16], axis=1)))
    reduction = 1.0 - d_fine / d_coarse
    elapsed = time.monotonic() - start
    ok = audit.ok and spread_ok and reduction >= 0.30 and elapsed < 120.0
    _line(
        "rod-space suite",
        ok,
        f"audit ok={audit.ok}; segment spread {max(segments) / min(segments):.4f} <= 1.1; "
        f"midpoint refinement reduction {reduction:.0%} >= 30%; runtime {elapsed:.0f}s < 120s",
    )
