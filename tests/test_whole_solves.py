"""The whole-path exp and whole-ladder transport against the rung-by-rung fold.

``discrete_exp_path``, ``parallel_transport`` and ``inverse_transport``
solve all their inner equations in one Newton solve and fall back to the
fold (one ``exp2`` or ``transport_step`` at a time, the inverse's of the
reversed energy) when that solve fails or lands on a root the fold would
not pick.  These tests pin the kernels themselves (the shot window of
``geodesic._solve_path`` and ``geodesic._solve_ladder``), their agreement
with the fold, the fallback, and the dimension checks of every operator.
"""

import dataclasses

import numpy as np
import pytest

from geocalc import (
    DiscretePath,
    DomainError,
    LinearGauge,
    SolverConfig,
    SolverError,
    circle_rod,
    discrete_connection,
    discrete_exp,
    discrete_exp_path,
    el_residual,
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
)
from geocalc import geodesic, thomas
from geocalc import operators as op
from geocalc.cli import main
from geocalc.models import SphereSdf

from labelled import assert_labelled
from stack_of_one import at_one

CHART = sphere_chart_energy()
ORACLE = sphere_oracles()
XA = np.array([0.5, 0.0])
XB = np.array([-0.5, 2.0])
TIGHT = SolverConfig(newton_tol=1e-13)


def _sphere_case():
    """Spring energy on the unit sphere: endpoints, exp velocity, transported vector."""
    model, sphere = sdf_spring_model(SphereSdf())
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.2, 0.9, 0.4]) / np.linalg.norm([0.2, 0.9, 0.4])
    tangent = b - (b @ a) * a
    v = np.arccos(a @ b) * tangent / np.linalg.norm(tangent)
    w = 0.4 * np.cross(a, b) / np.linalg.norm(np.cross(a, b))
    return model, sphere, a, b, v, w


def _rod_case():
    """Gauged simplified rod, N = 16: a circle-to-circle morph (no exp
    velocity) and a shape change to transport along it."""
    a, b = circle_rod(16).coord, circle_rod(16, 1.2).coord
    w = random_smooth_rod(16, np.random.default_rng(0), amplitude=0.1).coord - a
    return rod_energy("simplified", 16, 0.1), rod_gauge(16), a, b, None, w


def _case(name):
    if name == "chart":
        return CHART, None, XA, XB, ORACLE.log(XA, XB), np.array([-0.4, 0.0])
    if name == "gauged-rod":
        return _rod_case()
    return _sphere_case()


def _whole_exp(x, zeta, K, model, cfg, constraint=None):
    """The whole exp solve: (points, residual, iterations, converged)."""
    pts = op._exp_start(x, zeta, K)
    pts, _, res, iterations, converged = geodesic._solve_path(pts, model, constraint, cfg, "exp path", shot=True)
    return pts, res, iterations, converged


def _whole_ladder(path, zeta, model, cfg, constraint=None):
    return geodesic._solve_ladder(np.asarray(path), zeta, model, constraint, cfg, "ladder")


# the gauged rod's ladder (c = 2, blocks of 34) runs the sequential branch of
# the rung halves; it has no exp velocity
@pytest.mark.parametrize(
    "K, name", [(K, name) for K in (8, 64, 256) for name in ("chart", "sdf-sphere")] + [(8, "gauged-rod")]
)
def test_whole_solves_match_the_fold(K, name):
    model, con, xa, xb, v, w = _case(name)
    # the rod's rows stop near 2e-13 (ROADMAP item 2), short of TIGHT
    cfg = SolverConfig() if name == "gauged-rod" else TIGHT
    path = solve_geodesic(xa, xb, K, model, constraint=con).path

    if v is not None:
        whole, _, _, converged = _whole_exp(xa, v / K, K, model, cfg, con)
        assert converged
        shot = discrete_exp_path(xa, v / K, K, model, cfg, con)
        assert np.array_equal(shot.points, whole)  # the whole solve, no fallback
        fold = op._exp_fold(xa, v / K, K, model, cfg, con)
        assert np.max(np.abs(shot[K] - fold[K])) <= 1e-9

    mid, corner, _, _, converged = _whole_ladder(path.points, w / K, model, cfg, con)
    assert converged
    zeta, trace = parallel_transport(path, w / K, model, cfg, con)
    assert np.array_equal(trace.x_c, mid)
    assert np.array_equal(zeta, corner[-1] - path[K])
    zeta_fold = op._transport_fold(path, w / K, model, cfg, con)[1][-1] - path[K]
    assert K * np.max(np.abs(zeta - zeta_fold)) <= 1e-8


def _tangential(v, normal):
    normal = normal / np.linalg.norm(normal)
    return v - (v @ normal) * normal


@pytest.mark.parametrize("name", ["chart", "sdf-sphere"])
def test_results_satisfy_the_inner_equations(name):
    model, con, xa, xb, v, w = _case(name)
    K = 64
    tol = SolverConfig().newton_tol
    path = solve_geodesic(xa, xb, K, model, constraint=con).path
    _, trace = parallel_transport(path, w / K, model, constraint=con)
    # rung k starts from the corner before it (x_0 + zeta_0 for rung 1)
    corner_prev = np.vstack([path[0] + w / K, trace.x_p[:-1]])
    for k, (x_c, x_p) in enumerate(zip(trace.x_c, trace.x_p), start=1):
        mid = at_one(model.grads_stacked, corner_prev[k - 1], x_c)[1] + at_one(model.grads_stacked, x_c, path[k])[0]
        completion = at_one(model.grads_stacked, path[k - 1], x_c)[1] + at_one(model.grads_stacked, x_c, x_p)[0]
        if con is not None:
            normal = at_one(con.grad_d_stacked, x_c)
            mid, completion = _tangential(mid, normal), _tangential(completion, normal)
            assert np.max(np.abs(con.d_stacked(np.array([x_c, x_p])))) <= tol
        assert np.max(np.abs(mid)) <= tol
        assert np.max(np.abs(completion)) <= tol

    shot = discrete_exp_path(xa, v / K, K, model, constraint=con)
    rows = el_residual(shot, model)
    if con is not None:
        rows = np.array([_tangential(r, n) for r, n in zip(rows, con.grad_d_stacked(shot.points[1:-1]))])
        assert np.max(np.abs(con.d_stacked(shot.points[2:]))) <= tol
    assert np.max(np.abs(rows)) <= tol


def test_whole_solves_are_exact_in_flat_space():
    flat = flat_energy()
    rng = np.random.default_rng(40)
    cfg = SolverConfig()
    for K in (2, 5, 17):
        x = rng.normal(size=3)
        zeta = 0.3 * rng.normal(size=3)
        pts, _, _, converged = _whole_exp(x, zeta, K, flat, cfg)
        assert converged
        assert np.allclose(pts, x + np.arange(K + 1)[:, None] * zeta, rtol=0.0, atol=1e-12)

        path = rng.normal(size=(K + 1, 3))
        mid, corner, _, _, converged = _whole_ladder(path, zeta, flat, cfg)
        assert converged
        assert np.allclose(corner - path[1:], zeta, rtol=0.0, atol=1e-12)
        assert np.allclose(mid, (path[:-1] + path[1:] + zeta) / 2.0, rtol=0.0, atol=1e-12)


def test_a_gauge_keeps_the_flat_operators_exact():
    """Under a random 2 x 4 gauge every solve pins G x where flat space puts
    it, so the flat geodesic, log2, exp path, ladder and inverse transport
    stay exact; each starts off its solution, so Newton has to move."""
    flat = flat_energy()
    rng = np.random.default_rng(41)
    gauge = LinearGauge(rng.normal(size=(2, 4)))
    xa, xb, zeta = rng.normal(size=4), rng.normal(size=4), 0.3 * rng.normal(size=4)
    K, cfg = 5, SolverConfig()
    steps = np.arange(K + 1.0)[:, None]

    line = xa + steps / K * (xb - xa)
    init = line + 0.1 * rng.normal(size=line.shape)
    res = solve_geodesic(xa, xb, K, flat, constraint=gauge, init_path=init)
    assert res.converged and res.iterations >= 1
    np.testing.assert_allclose(res.path.points, line, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(log2(xa, xb, flat, constraint=gauge), (xb - xa) / 2.0, rtol=0.0, atol=1e-14)

    ray = xa + steps * zeta
    start = ray + 0.1 * rng.normal(size=ray.shape)
    start[:2] = ray[:2]
    pts, _, _, iterations, converged = geodesic._solve_path(start, flat, gauge, cfg, "exp path", shot=True)
    assert converged and iterations >= 1
    np.testing.assert_allclose(pts, ray, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(discrete_exp_path(xa, zeta, K, flat, constraint=gauge).points, ray, rtol=0.0, atol=1e-14)

    path = rng.normal(size=(K + 1, 4))
    guesses = zeta + 0.1 * rng.normal(size=(K, 4))
    mid, corner, _, iterations, converged = geodesic._solve_ladder(path, zeta, flat, gauge, cfg, "ladder", guesses)
    assert converged and iterations >= 1
    np.testing.assert_allclose(corner - path[1:], np.tile(zeta, (K, 1)), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(mid, (path[:-1] + path[1:] + zeta) / 2.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(inverse_transport(path, zeta, flat, constraint=gauge), zeta, rtol=0.0, atol=1e-14)


# long sphere-chart shots at K = 16 (1.96 and 2.95 rad) on which the whole
# exp solve fails: the first diverges, the second converges, but its last
# point is the far root of the quadratic grad1(x_15, .), 1.25 chart units
# off the great circle
LONG_SHOTS = [
    ([0.7887720751836527, -0.8035873261938692], [0.31330782595414597, -2.231897291214583]),
    ([0.47407781194451637, -1.5110872202763577], [1.4109623749794153, 2.891756748063982]),
]


def test_long_shot_falls_back_to_the_fold():
    K = 16
    cfg = SolverConfig()
    with pytest.raises(SolverError):
        _whole_exp(np.array(LONG_SHOTS[0][0]), np.array(LONG_SHOTS[0][1]) / K, K, CHART, cfg)
    x, v = (np.array(a) for a in LONG_SHOTS[1])
    far, _, _, converged = _whole_exp(x, v / K, K, CHART, cfg)
    assert converged
    assert not op._near(far[2:], 2.0 * far[1:-1] - far[:-2], far[1:-1])
    for x, v in LONG_SHOTS:
        x, v = np.array(x), np.array(v)
        shot = discrete_exp_path(x, v / K, K, CHART, cfg)
        fold = op._exp_fold(x, v / K, K, CHART, cfg, None)
        assert np.array_equal(shot.points, fold.points)
        # first-order error of the K = 16 exp against the great circle
        assert np.linalg.norm(shot[K] - ORACLE.exp(x, v)) <= 0.1


def test_the_root_test_floor_admits_rounding_only():
    # a degenerate rung, whose start is its anchor (reach 0): a solved point
    # rounding away from it passes, one 1e-4 off is another root
    anchor = np.array([[0.3, -0.2]])
    assert op._near(anchor + 1e-15, anchor, anchor)
    assert not op._near(anchor + [[1e-4, 0.0]], anchor, anchor)


# coarse two-rung ladders along sphere-chart geodesics: the whole solve
# diverges on the first and lands on another root on the second
COARSE_LADDERS = [
    (
        [[1.7358263343150797, -0.37463510651509796], [1.0775410358867987, 0.4632586673408311],
         [0.2694148576766724, 0.4825489396662908]],
        [0.29053252297293936, 0.12227046564107139],
    ),
    (
        [[-0.6637090448921862, 0.9128411403546247], [1.0951560544158068, 0.6159842141204439],
         [1.4635104512310284, -0.8311854356755214]],
        [0.0405782580085793, -0.030583968743919752],
    ),
]


def test_coarse_ladder_falls_back_to_the_fold():
    cfg = SolverConfig()
    path, zeta = (np.array(a) for a in COARSE_LADDERS[0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError):
        _whole_ladder(path, zeta, CHART, cfg)
    path, zeta = (np.array(a) for a in COARSE_LADDERS[1])
    mid, corner, _, _, converged = _whole_ladder(path, zeta, CHART, cfg)
    assert converged
    fold_corner = op._transport_fold(DiscretePath(path), zeta, CHART, cfg, None)[1]
    assert np.linalg.norm(corner[-1] - fold_corner[-1]) > 0.1
    for path, zeta in COARSE_LADDERS:
        path, zeta = np.array(path), np.array(zeta)
        got, trace = parallel_transport(path, zeta, CHART, cfg)
        fold_mid, fold_corner = op._transport_fold(DiscretePath(path), zeta, CHART, cfg, None)
        assert np.array_equal(got, fold_corner[-1] - path[-1])
        assert np.array_equal(trace.x_c, fold_mid) and np.array_equal(trace.x_p, fold_corner)


def test_whole_and_fold_ladders_return_one_record(monkeypatch):
    """Either way a ladder of K rungs is one TransportTrace of (K, d) fields."""
    assert [f.name for f in dataclasses.fields(op.TransportTrace)] == ["x_c", "x_p", "zeta"]
    folds = []
    fold = op._transport_fold

    def counted(*args):
        folds.append(len(args[0]) - 1)
        return fold(*args)

    monkeypatch.setattr(op, "_transport_fold", counted)
    coarse, zeta = (np.array(a) for a in COARSE_LADDERS[0])
    whole = solve_geodesic(XA, XB, 8, CHART).path.points
    for path, w in ((coarse, zeta), (whole, np.array([-0.05, 0.0]))):
        _, trace = parallel_transport(path, w, CHART)
        assert isinstance(trace, op.TransportTrace)
        assert trace.x_c.shape == trace.x_p.shape == trace.zeta.shape == (len(path) - 1, 2)
    assert folds == [2]  # the coarse ladder went to the fold, the fine one did not


def test_a_degenerate_rung_keeps_the_whole_ladder(monkeypatch):
    # transported along its own path, the first increment makes rung 1
    # degenerate (p_0 = x_1): its reach |start - anchor| is about 0, which
    # the rounding error of the exact whole ladder must not count as a root
    # change
    flat = flat_energy()
    path = solve_geodesic([0.0, 0.0], [0.3, -0.7], 16, flat).path
    zeta = path[1] - path[0]

    def no_fold(*args):
        raise AssertionError("the whole ladder was sent to the fold")

    monkeypatch.setattr(op, "_transport_fold", no_fold)
    got, _ = parallel_transport(path, zeta, flat)
    np.testing.assert_allclose(got, zeta, rtol=0.0, atol=1e-15)


def test_fold_errors_are_reported_when_both_fail():
    strict = SolverConfig(newton_tol=1e-30, max_iter=3)
    path = solve_geodesic(XA, XB, 4, CHART).path
    with pytest.raises(SolverError, match="transport step 1 failed: rung-midpoint") as err:
        parallel_transport(path, np.array([-0.1, 0.0]), CHART, strict)
    assert_labelled(err.value, "transport step 1 failed: ", "rung-midpoint solve failed: ")
    with pytest.raises(SolverError, match="extension step 2 failed: exp2") as err:
        discrete_exp_path(XA, np.array([-0.1, 0.2]), 4, CHART, strict)
    assert_labelled(err.value, "extension step 2 failed: ")


def test_whole_inverse_transport_is_accurate_on_a_fine_ladder():
    # rung by rung, the unconstrained inverse loses K |back - w| = 2.3e-7
    # here; the whole solve keeps it near rounding
    K = 256
    path = solve_geodesic(XA, XB, K, CHART).path
    w = np.array([0.3, -0.2]) / K
    zK, _ = parallel_transport(path, w, CHART)
    back = inverse_transport(path, zK, CHART)
    assert K * np.linalg.norm(back - w) <= 1e-9


def _no_whole_inverse(monkeypatch):
    """Make every ladder of the reversed energy fail, so that inverse
    transport runs its rung-by-rung fold."""
    kernel = op._solve_ladder

    def forward_only(pts, zeta, model, *args, **kwargs):
        if isinstance(model, op._Reversed):
            raise SolverError("whole inverse ladder switched off", residual=np.inf)
        return kernel(pts, zeta, model, *args, **kwargs)

    monkeypatch.setattr(op, "_solve_ladder", forward_only)


@pytest.mark.parametrize("name", ["chart", "sdf-sphere"])
def test_inverse_transport_fold_matches_the_whole_solve(name, monkeypatch):
    model, con, xa, xb, _, w = _case(name)
    K = 16
    path = solve_geodesic(xa, xb, K, model, constraint=con).path
    zK, _ = parallel_transport(path, w / K, model, TIGHT, con)
    whole = inverse_transport(path, zK, model, TIGHT, con)
    _no_whole_inverse(monkeypatch)
    fold = inverse_transport(path, zK, model, TIGHT, con)
    assert not np.array_equal(fold, whole)  # the fold ran
    assert np.max(np.abs(fold - whole)) <= 1e-12


def test_inverse_transport_fold_errors_name_the_step(monkeypatch):
    """Rungs are counted from the path end, the order they are solved in."""
    path = solve_geodesic(XA, XB, 4, CHART).path
    strict = SolverConfig(newton_tol=1e-30, max_iter=3)
    with pytest.raises(SolverError, match="inverse transport step 1 failed: rung-midpoint solve failed: log2") as err:
        inverse_transport(path, np.array([-0.1, 0.0]), CHART, strict)
    assert_labelled(err.value, "inverse ", "transport step 1 failed: ", "rung-midpoint solve failed: ")
    # a rung other than the first solved: rung 2 from the end, x_3 to x_2,
    # on a ladder whose whole solve is switched off
    _no_whole_inverse(monkeypatch)
    step = op.transport_step

    def fail_rung_2(x_prev, x_next, *args):
        if np.array_equal(x_prev, path[3]) and np.array_equal(x_next, path[2]):
            raise SolverError("stub rung failure", residual=1.0)
        return step(x_prev, x_next, *args)

    monkeypatch.setattr(op, "transport_step", fail_rung_2)
    with pytest.raises(SolverError, match="inverse transport step 2 failed: stub rung failure") as err:
        inverse_transport(path, np.array([-0.1, 0.0]), CHART)
    assert str(assert_labelled(err.value, "inverse ", "transport step 2 failed: ")) == "stub rung failure"
    assert err.value.residual == 1.0


# a displacement whose size differs from the point's is a DomainError, not a
# silent numpy broadcast
SHORT = np.array([0.1])


@pytest.mark.parametrize("k", [0, 1, 3])
def test_discrete_exp_rejects_a_short_displacement(k):
    with pytest.raises(DomainError, match="dimension"):
        discrete_exp(XA, SHORT, k, CHART)


def test_discrete_exp_path_rejects_a_short_displacement():
    with pytest.raises(DomainError, match="dimension"):
        discrete_exp_path(XA, SHORT, 3, CHART)


def test_transport_step_rejects_a_short_displacement():
    with pytest.raises(DomainError, match="dimension"):
        transport_step(XA, XB, SHORT, CHART)


def test_inverse_transport_rejects_a_short_displacement():
    with pytest.raises(DomainError, match="dimension"):
        inverse_transport(np.stack([XA, XB]), SHORT, CHART)


def test_discrete_connection_rejects_short_vectors():
    for xi, eta0, eta1 in ((SHORT, XA, XA), (XA, SHORT, XA), (XA, XA, SHORT)):
        with pytest.raises(DomainError, match="dimension"):
            discrete_connection([0.0, 0.0], xi, eta0, eta1, CHART)


def test_two_point_operators_reject_short_vectors():
    model, sphere = sdf_spring_model(SphereSdf())
    with pytest.raises(DomainError, match="dimension"):
        exp2(XA, SHORT, CHART)
    with pytest.raises(DomainError, match="dimension"):
        log2(XA, SHORT, CHART)
    with pytest.raises(DomainError, match="dimension"):
        exp2([1.0, 0.0, 0.0], SHORT, model, constraint=sphere)
    with pytest.raises(DomainError, match="dimension"):
        parallel_transport(np.stack([XA, XB]), SHORT, CHART)


def test_cli_exp_rejects_a_short_displacement(capsys):
    code = main(["exp", "--model", "sphere-chart", "--xa", "0.5,0", "--zeta", "0.1", "--K", "3"])
    assert code == 3
    assert "dimension" in capsys.readouterr().err


def _sequential(monkeypatch):
    """Make the block solves run their sequential loops: the path window
    block Thomas elimination at every size, the lower triangular solves
    their row loop past the dense LU of small systems."""
    monkeypatch.setattr(thomas, "_REDUCE_MAX_BLOCK", 0)

    def loop(lower, diag, upper, rhs):
        return thomas._thomas_loop(lower, diag, np.concatenate([upper, rhs[..., None]], axis=2))[..., 0]

    monkeypatch.setattr(geodesic, "_block_thomas", loop)


def test_reduced_path_solve_matches_the_sequential_loop(monkeypatch):
    res = solve_geodesic(XA, XB, 1024, CHART)
    _sequential(monkeypatch)
    ref = solve_geodesic(XA, XB, 1024, CHART)
    assert res.converged and ref.converged
    assert res.iterations == ref.iterations
    assert np.max(np.abs(res.path.points - ref.path.points)) <= 1e-12


@pytest.mark.parametrize("name", ["chart", "sdf-sphere"])
def test_reduced_exp_and_ladder_match_the_sequential_loop(name, monkeypatch):
    model, con, xa, xb, v, w = _case(name)
    K = 256
    path = solve_geodesic(xa, xb, K, model, constraint=con).path
    cfg = SolverConfig()

    def solves():
        exp = _whole_exp(xa, v / K, K, model, cfg, con)
        ladder = _whole_ladder(path.points, w / K, model, cfg, con)
        return exp, ladder

    got_exp, got_ladder = solves()
    _sequential(monkeypatch)
    ref_exp, ref_ladder = solves()
    assert got_exp[3] and got_ladder[4]
    # iteration counts, then points
    assert got_exp[2] == ref_exp[2] and got_ladder[3] == ref_ladder[3]
    assert np.max(np.abs(got_exp[0] - ref_exp[0])) <= 1e-12
    for got, ref in zip(got_ladder[:2], ref_ladder[:2]):
        assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("shot", [False, True], ids=["interior", "shot"])
@pytest.mark.parametrize("name, steps", [("chart", 1), ("sdf-sphere", 2)])
def test_path_kernel_contracts_quadratically(name, steps, shot):
    """Newton from a perturbed solution: a tenfold smaller start error cuts
    the residual about 100-fold, for both windows of unknowns.

    A misplaced band or border leaves Newton converging, only linearly;
    the ratio then drops to about 10.  The sdf sphere takes 2 steps because
    its multipliers start at zero, an O(1) error that the first step cuts
    to O(eps).
    """
    model, con, xa, xb, v, _ = _case(name)
    K = 8
    if shot:
        pts = op._exp_start(xa, v / K, K)
    else:
        pts = geodesic._linear_init(xa, xb, K)
    tight = SolverConfig(newton_tol=1e-14)
    pts, _, _, _, converged = geodesic._solve_path(pts, model, con, tight, "path", shot=shot)
    assert converged
    window = slice(2, K + 1) if shot else slice(1, K)
    noise = np.random.default_rng(7).normal(size=pts[window].shape)
    fixed = SolverConfig(newton_tol=1e-300, max_iter=steps)
    residuals = []
    for eps in (1e-3, 1e-4):
        start = pts.copy()
        start[window] += eps * noise
        _, _, res, iterations, _ = geodesic._solve_path(start, model, con, fixed, "path", shot=shot)
        assert iterations == steps
        residuals.append(res)
    assert residuals[0] >= 50.0 * residuals[1]
