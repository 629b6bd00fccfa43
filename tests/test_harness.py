import collections
import dataclasses
import json
import re
import time

import numpy as np
import pytest

from geocalc import (
    DomainError,
    SolverConfig,
    SolverError,
    circle_rod,
    discrete_exp,
    discrete_log,
    geodesic,
    operators,
    random_smooth_rod,
    save_rod_csv,
)
from geocalc.harness import (
    AuditReport,
    ConfigError,
    StudyConfig,
    build_backend,
    fit_order,
    read_report_csv,
    run_consistency_audit,
    run_convergence_study,
    run_rod_morph,
    write_orders_json,
    write_report_csv,
)

from labelled import assert_labelled


def test_fit_order_exact_rates():
    assert fit_order([0.1, 0.05, 0.025], [2, 4, 8]) == pytest.approx(1.0)
    assert fit_order([0.1, 0.025, 0.00625], [2, 4, 8]) == pytest.approx(2.0)
    assert fit_order([0.1, 0.1, 0.1], [2, 4, 8]) == pytest.approx(0.0)


def test_fit_order_excludes_nonpositive():
    with pytest.warns(UserWarning, match="nonpositive"):
        slope = fit_order([0.2, 0.0, 0.05, 0.025, 0.0125], [1, 2, 4, 8, 16])
    assert slope == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ConfigError):
        with pytest.warns(UserWarning):
            fit_order([0.1, 0.0, 0.0, 0.05], [1, 2, 4, 8])
    with pytest.raises(ConfigError):
        fit_order([0.1, 0.2], [1, 2, 4])


def test_fit_order_excludes_errors_at_the_floor():
    errors = [1e-3, 5e-4, 2.5e-4, 1e-12, 5e-13]
    with pytest.warns(UserWarning, match="floor"):
        assert fit_order(errors, [2, 4, 8, 16, 32], floor=1e-9) == pytest.approx(1.0)
    with pytest.raises(ConfigError, match="above"):
        with pytest.warns(UserWarning):
            fit_order([1e-3, 3e-12, 7e-13], [2, 4, 8], floor=1e-9)


def test_exact_columns_have_an_undefined_order():
    # the discrete geodesic between points of a circle is exact: its errors
    # sit at the solver's floor, and no order is fitted from them
    cfg = StudyConfig(model="sdf-circle", xa=(1, 0), xb=(0, 1), w=(0, 0.3), k_exponents=(1, 2, 3, 4, 5))
    report = run_convergence_study(cfg)
    assert max(report.err_geo) <= 10 * cfg.solver.newton_tol
    assert report.orders["geo"] is None
    assert report.orders["log"] == pytest.approx(1.0, abs=0.1)
    flat = run_convergence_study(StudyConfig(model="flat", k_exponents=(1, 2, 3, 4)))
    assert set(flat.orders.values()) == {None}


def test_study_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(model="torus")
    with pytest.raises(ConfigError):
        StudyConfig(k_exponents=())
    cfg = StudyConfig.from_dict({"model": "flat", "k_exponents": [1, 3]})
    assert cfg.k_exponents == (1, 2, 3)
    with pytest.raises(ConfigError):
        StudyConfig.from_dict({"modle": "flat"})
    nested = StudyConfig.from_dict({"solver": {"newton_tol": 1e-9, "damping": "armijo"}})
    assert (nested.solver.newton_tol, nested.solver.damping) == (1e-9, "armijo")
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="newton_tol must be positive and finite"):
            StudyConfig.from_dict({"solver": {"newton_tol": tol}})


@pytest.mark.parametrize(
    "fields",
    [
        {"k_exponents": (1.5, 3.9)},
        {"k_exponents": (True, 2)},
        {"k_exponents": (-1, 2)},
        {"xa": (0.1,)},
        {"xb": ("a", 1.0)},
        {"w": ()},
        {"solver": "armijo"},
        {"output_dir": 3},
        {"model": "torus"},
    ],
)
def test_study_config_checks_every_construction(fields):
    # direct construction and dataclasses.replace check like from_dict
    with pytest.raises(ConfigError):
        StudyConfig(**fields)
    with pytest.raises(ConfigError):
        dataclasses.replace(StudyConfig(), **fields)
    with pytest.raises(ConfigError):
        StudyConfig.from_dict({k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()})


def test_seed_is_no_study_config_key():
    # the study draws nothing at random; only the consistency audit takes a seed
    with pytest.raises(ConfigError, match=r"unknown config keys: \['seed'\]"):
        StudyConfig.from_dict({"seed": 1})


def test_study_config_normalizes_its_fields():
    cfg = StudyConfig(xa=np.array([1, 0]), xb=[0.0, 1.0], w=(np.float64(0.5), 0), k_exponents=range(3, 0, -1))
    assert (cfg.xa, cfg.xb, cfg.w, cfg.k_exponents) == ((1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (1, 2, 3))


def test_smoke_study_is_small_and_fast():
    start = time.time()
    report = run_convergence_study(StudyConfig(k_exponents=(1, 2, 3)))
    elapsed = time.time() - start
    assert len(report.ks) == 3
    assert report.ks == (2, 4, 8)
    assert elapsed < 2.0
    assert report.reference.startswith("analytic")


def test_flat_study_is_exact():
    report = run_convergence_study(StudyConfig(model="flat", k_exponents=(1, 2, 3, 4)))
    for col in ("geo", "log", "exp", "pt"):
        assert max(report.column(col)) <= 1e-10


def test_study_errors_decrease_over_two_doublings():
    report = run_convergence_study(StudyConfig(k_exponents=tuple(range(1, 6))))
    for col in ("geo", "log", "exp", "pt"):
        vals = report.column(col)
        for i in range(len(vals) - 2):
            assert vals[i + 2] < vals[i]


def _rod_study_inputs():
    """Circle to a smooth rod of radius 1.2 at N = 16, and a smooth shape
    change w: the morph the gauged rod operators are measured on."""
    a = circle_rod(16)
    b = random_smooth_rod(16, np.random.default_rng(5), 1.2, amplitude=0.15)
    w = random_smooth_rod(16, np.random.default_rng(7), 1.0, amplitude=0.05).coord - a.coord
    return a.coord, b.coord, w


def test_study_runs_the_four_operators_on_the_gauged_rod(monkeypatch):
    """The study's successive differences serve the simplified rod: K = 2..32
    against 64, first order in all four columns, every exp and ladder one
    whole solve."""

    def no_fold(*args):
        raise AssertionError("the study fell back to a fold")

    monkeypatch.setattr(operators, "_exp_fold", no_fold)
    monkeypatch.setattr(operators, "_transport_fold", no_fold)
    xa, xb, w = _rod_study_inputs()
    report = run_convergence_study(StudyConfig(model="rod-simplified", xa=xa, xb=xb, w=w, k_exponents=range(1, 6)))
    assert report.ks == (2, 4, 8, 16, 32)
    assert report.reference.startswith("successive differences")
    for col in ("geo", "log", "exp", "pt"):
        assert 0.8 <= report.orders[col] <= 2.2, (col, report.orders[col])


def test_gauged_rod_exp_of_the_log_returns_to_the_morph_endpoint():
    xa, xb, _ = _rod_study_inputs()
    backend = build_backend("rod-simplified", 16)
    zeta = discrete_log(xa, xb, 8, backend.model, constraint=backend.constraint)
    end = discrete_exp(xa, zeta, 8, backend.model, constraint=backend.constraint)
    assert np.max(np.abs(end - xb)) <= 1e-9


def test_study_takes_a_rods_node_count_from_the_point_dimension():
    xa, xb, w = _rod_study_inputs()
    for dim in (2, 14):
        cfg = StudyConfig(model="rod-simplified", xa=xa[:dim], xb=xb[:dim], w=w[:dim], k_exponents=(1, 2))
        with pytest.raises(DomainError, match=f"points of dimension {dim} "):
            run_convergence_study(cfg)
    cfg = StudyConfig(model="rod-full", xa=xa[:17], xb=xb[:17], w=w[:17], k_exponents=(1, 2))
    with pytest.raises(DomainError, match="gauge acts on points of dimension 16, got points of dimension 17"):
        run_convergence_study(cfg)


def test_study_aborts_on_solver_failure():
    cfg = StudyConfig(
        k_exponents=(1, 2), solver=SolverConfig(newton_tol=1e-30, max_iter=2)
    )
    with pytest.raises(SolverError, match="K=") as err:
        run_convergence_study(cfg)
    inner = assert_labelled(err.value, "study failed at K=2: ")
    assert str(inner).startswith("geodesic solve: no convergence")


def _count_newton(monkeypatch):
    """Count the Newton iterations of every solve, by its context."""
    counts = collections.Counter()
    newton = geodesic._newton

    def counting(residual, step, z0, cfg, context):
        out = newton(residual, step, z0, cfg, context)
        counts[context.split(":")[0]] += out[2]
        return out

    monkeypatch.setattr(geodesic, "_newton", counting)
    return counts


def test_nested_study_matches_a_study_from_scratch(monkeypatch):
    # K = 2..128; a one-level study solves its K from the straight line
    exponents = tuple(range(1, 8))
    counts = _count_newton(monkeypatch)
    nested = run_convergence_study(StudyConfig(k_exponents=exponents))
    nested_counts = dict(counts)
    counts.clear()
    levels = [run_convergence_study(StudyConfig(k_exponents=(e,))) for e in exponents]
    assert sum(counts.values()) > sum(nested_counts.values())
    for whole_solve in ("geodesic solve", "exp path", "ladder"):
        assert counts[whole_solve] > nested_counts[whole_solve]
    ks = [2**e for e in exponents]
    assert nested.ks == tuple(ks)
    for col in ("geo", "log", "exp", "pt"):
        scratch = [level.column(col)[0] for level in levels]
        np.testing.assert_allclose(nested.column(col), scratch, rtol=1e-6, atol=0.0)
        assert nested.orders[col] == pytest.approx(fit_order(scratch, ks), abs=1e-6)


def test_successive_differences_converge_at_first_order_on_sdf_sphere():
    cfg = StudyConfig(
        model="sdf-sphere", xa=(1, 0, 0), xb=(0, 0.6, 0.8), w=(0, 0.3, -0.1), k_exponents=tuple(range(1, 7))
    )
    report = run_convergence_study(cfg)
    assert report.reference.startswith("successive differences")
    # the spring geodesic on a sphere is the exact great circle
    assert report.orders["geo"] is None
    for col in ("log", "pt"):
        vals = report.column(col)
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
        assert report.orders[col] == pytest.approx(1.0, abs=0.1)
    assert report.orders["exp"] >= 0.9


def test_richardson_fallback_on_sdf_circle():
    cfg = StudyConfig(
        model="sdf-circle", xa=(1, 0), xb=(0, 1), w=(0, 0.3), k_exponents=(1, 2, 3)
    )
    report = run_convergence_study(cfg)
    assert report.reference.startswith("successive differences against the 2K level")
    assert len(report.ks) == 3


def test_report_csv_round_trip_and_determinism(tmp_path):
    cfg = StudyConfig(k_exponents=(1, 2, 3, 4))
    report = run_convergence_study(cfg)
    p1 = tmp_path / "c1.csv"
    p2 = tmp_path / "c2.csv"
    write_report_csv(report, p1)
    write_report_csv(run_convergence_study(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    ks, cols = read_report_csv(p1)
    assert tuple(ks) == report.ks
    for name in ("geo", "log", "exp", "pt"):
        assert tuple(cols[name]) == report.column(name)  # bit-exact
    orders_path = tmp_path / "orders.json"
    write_orders_json(report, orders_path)
    data = json.loads(orders_path.read_text())
    assert set(data) == {"geo", "log", "exp", "pt"}


@pytest.mark.parametrize(
    "row, message",
    [("2,1,1", "line 3: '2,1,1' (3 fields, expected 5)"), ("2,abc,1,1,1", "line 3: '2,abc,1,1,1'")],
)
def test_report_csv_rejects_a_malformed_row(tmp_path, row, message):
    # a short row would leave ragged columns, a non-numeric one a bare ValueError
    path = tmp_path / "convergence.csv"
    path.write_text(f"K,err_geo,err_log,err_exp,err_pt\n1,1,1,1,1\n{row}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(f"malformed convergence row at {message}")):
        read_report_csv(path)


def test_report_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "convergence.csv"
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unexpected convergence header: ''"):
        read_report_csv(path)


def test_backend_registry():
    for name in ("flat", "sphere-chart", "sdf-circle", "sdf-sphere"):
        backend = build_backend(name)
        rng = np.random.default_rng(0)
        point = backend.sample(rng)
        assert np.all(np.isfinite(point))
    with pytest.raises(ConfigError):
        build_backend("moebius")


def test_consistency_audit_pass_and_fail():
    report = run_consistency_audit("flat", 100, tol=1e-10, seed=0)
    assert isinstance(report, AuditReport)
    assert report.ok
    assert len(report.rows) == 100
    report = run_consistency_audit("sphere-chart", 100, tol=1e-8, seed=0)
    assert report.ok
    report = run_consistency_audit("rod-simplified", 20, tol=1e-4, seed=0, n_nodes=32)
    assert report.ok
    failing = run_consistency_audit("rod-simplified", 3, tol=1e-30, seed=0, n_nodes=16)
    assert not failing.ok
    assert failing.failures


def test_audit_default_tolerances():
    assert run_consistency_audit("flat", 2).tol == 1e-6
    assert run_consistency_audit("rod-simplified", 1, n_nodes=16).tol == 1e-4


def test_rod_morph_identity(tmp_path):
    curve = circle_rod(16)
    result, written = run_rod_morph(curve, curve, 4, out_dir=str(tmp_path / "m"))
    assert result.converged
    assert result.energy <= 1e-18
    for k in range(5):
        assert np.allclose(result.path[k], curve.coord, atol=1e-12)
    assert len(written) == 6  # 5 curves + summary
    summary = (tmp_path / "m" / "morph_summary.csv").read_text().splitlines()
    assert summary[0] == "k,energy"
    assert len(summary) == 5


def test_rod_morph_refinement_is_controlled():
    s = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    import geocalc

    ellipse = geocalc.RodCurve(np.stack([1.1 * np.cos(s), 0.9 * np.sin(s)], axis=1))
    r4, _ = run_rod_morph(circle_rod(32), ellipse, 4)
    r8, _ = run_rod_morph(circle_rod(32), ellipse, 8)
    assert r4.converged and r8.converged
    assert abs(r8.energy - r4.energy) <= r4.energy / 2.0


def test_rod_morph_from_files(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_rod_csv(circle_rod(16), a)
    save_rod_csv(circle_rod(16, 1.15), b)
    result, written = run_rod_morph(str(a), str(b), 4, out_dir=str(tmp_path / "out"))
    assert result.converged
    assert (tmp_path / "out" / "curve_000.csv").exists()
    assert (tmp_path / "out" / "curve_004.csv").exists()


def test_err_geo_is_the_max_node_error_against_the_oracle():
    from geocalc import solve_geodesic, sphere_chart_energy, sphere_oracles

    cfg = StudyConfig(k_exponents=(1, 2, 3, 4))
    report = run_convergence_study(cfg)
    orc = sphere_oracles()
    init = None
    for K, err in zip(report.ks, report.err_geo):
        # the study starts each K from the K/2 path with midpoints inserted
        path = solve_geodesic(cfg.xa, cfg.xb, K, sphere_chart_energy(), init_path=init).path
        init = np.empty((2 * K + 1, 2))
        init[::2] = path.points
        init[1::2] = (path.points[:-1] + path.points[1:]) / 2.0
        per_node = max(
            float(np.linalg.norm(path[k] - orc.geodesic(cfg.xa, cfg.xb, k / K))) for k in range(K + 1)
        )
        assert err == pytest.approx(per_node, rel=1e-15, abs=0.0)
