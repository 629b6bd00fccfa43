import sys

import numpy as np
import pytest

from geocalc import (
    DomainError,
    RodCurve,
    SolverConfig,
    SolverError,
    SphereSdf,
    check_consistency,
    circle_rod,
    discrete_exp,
    discrete_exp_path,
    load_rod_csv,
    parallel_transport,
    random_smooth_rod,
    rod_curvature,
    rod_energy,
    rod_gauge,
    save_rod_csv,
    sdf_spring_model,
    solve_geodesic,
)
from geocalc import geodesic, operators, thomas
from geocalc.harness import fit_order, run_rod_morph

from fd_reference import central_hess_blocks, central_jacobian


def ellipse_rod(n, a, b):
    s = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return RodCurve(np.stack([a * np.cos(s), b * np.sin(s)], axis=1))


def test_rod_curve_validation():
    with pytest.raises(DomainError):
        RodCurve(np.zeros((4, 2)))  # too few nodes
    with pytest.raises(DomainError):
        RodCurve(np.zeros((16, 2)))  # coincident nodes
    nodes = circle_rod(16).nodes.copy()
    nodes[3] = np.nan
    with pytest.raises(DomainError):
        RodCurve(nodes)
    curve = circle_rod(16)
    assert curve.n_nodes == 16
    assert np.array_equal(RodCurve.from_coord(curve.coord).nodes, curve.nodes)
    # an even-length flat vector is taken as the flattened nodes
    assert np.array_equal(RodCurve(circle_rod(8).coord).nodes, circle_rod(8).nodes)
    with pytest.raises(DomainError, match="flattened rod coordinates must have even length"):
        RodCurve(curve.coord[:-1])
    with pytest.raises(DomainError, match=r"rod nodes must have shape \(N, 2\), got \(16, 2, 1\)"):
        RodCurve(curve.nodes[:, :, None])


def test_circle_curvature_values():
    for radius in (1.0, 2.0):
        kappa = rod_curvature(circle_rod(256, radius))
        assert np.max(np.abs(kappa - 1.0 / radius)) <= 1e-3
    # plain (N, 2) nodes are taken as a rod
    assert np.array_equal(rod_curvature(circle_rod(16).nodes), rod_curvature(circle_rod(16)))


def test_flattened_ellipse_curvature_grows():
    peaks = []
    for minor in (0.8, 0.4, 0.2):
        peaks.append(np.max(np.abs(rod_curvature(ellipse_rod(512, 1.0, minor)))))
    assert peaks[0] < peaks[1] < peaks[2]
    # analytic peak curvature of an ellipse is a / b^2 at the co-vertex
    assert peaks[2] == pytest.approx(1.0 / 0.2**2, rel=0.02)


def test_simplified_energy_zero_on_identity_and_translation():
    model = rod_energy("simplified", 32, 0.1)
    x = circle_rod(32).coord
    assert model.w(x, x) <= 1e-20
    shifted = (circle_rod(32).nodes + np.array([0.4, -1.0])).reshape(-1)
    assert model.w(x, shifted) <= 1e-14


def test_simplified_energy_positive_off_isometry():
    model = rod_energy("simplified", 32, 0.1)
    x = circle_rod(32).coord
    rng = np.random.default_rng(31)
    for _ in range(5):
        y = x + 1e-2 * rng.normal(size=x.size)
        assert model.w(x, y) > 0.0


def test_simplified_energy_matches_fine_quadrature():
    coarse = rod_energy("simplified", 64, 0.1)
    fine = rod_energy("simplified", 4096, 0.1)
    w64 = coarse.w(circle_rod(64).coord, circle_rod(64, 1.1).coord)
    w4096 = fine.w(circle_rod(4096).coord, circle_rod(4096, 1.1).coord)
    assert abs(w64 - w4096) / w4096 <= 0.01


def test_quadrature_is_second_order():
    reference = rod_energy("simplified", 4096, 0.1).w(
        ellipse_rod(4096, 1.0, 0.8).coord, ellipse_rod(4096, 1.05, 0.85).coord
    )
    errs = []
    for n in (64, 128):
        val = rod_energy("simplified", n, 0.1).w(
            ellipse_rod(n, 1.0, 0.8).coord, ellipse_rod(n, 1.05, 0.85).coord
        )
        errs.append(abs(val - reference))
    assert 2.5 <= errs[0] / errs[1] <= 6.0


def test_the_simplified_morph_converges_in_space_at_second_order():
    """The paper's time discretization is posed on certain infinite-
    dimensional manifolds; the rod of N nodes discretizes one in space.
    The morph from a circle to one smooth rod (its modes drawn
    independently of N) at K = 8 converges as N doubles at the order of
    the rods' quadrature, 2: node j at N sits at the arc parameter of node
    2j at 2N.  Checked on the path's nodes, its energy and its discrete
    log K (x_1 - x_0).  Measured: fitted orders 1.93, 1.93 and 1.93, two
    Newton iterations per solve.  The tolerance is 1e-8, since at N >= 128
    the residual stalls near 1e-10 (ROADMAP item 2a).

    The exp shot with w/K from the circle, and K times the transport of
    w/K along the morph, converge the same way, w a smooth shape change
    drawn independently of N.  Measured: errors 5.15e-4, 1.51e-4, 3.94e-5
    (exp) and 2.52e-3, 7.25e-4, 1.88e-4 (transport), fitted orders 1.85
    and 1.87.  They stop at N = 128, since the time-ordered rod exp and
    ladder take about 1.4 s at N = 256 (ROADMAP item 8)."""
    ns = [16, 32, 64, 128, 256]
    cfg = SolverConfig(newton_tol=1e-8)
    paths, energies, shots, carried = [], [], [], []
    for n in ns:
        a = circle_rod(n)
        b = random_smooth_rod(n, np.random.default_rng(5), 1.2, amplitude=0.15)
        res, _ = run_rod_morph(a, b, 8, cfg=cfg)
        paths.append(res.path.points.reshape(9, n, 2))
        energies.append(res.energy)
        if n <= 128:
            model, gauge = rod_energy("simplified", n), rod_gauge(n)
            w = random_smooth_rod(n, np.random.default_rng(7), 1.0, amplitude=0.05).coord - a.coord
            shots.append(discrete_exp(a.coord, w / 8, 8, model, cfg, gauge).reshape(n, 2))
            carried.append(8.0 * parallel_transport(res.path, w / 8, model, cfg, gauge)[0].reshape(n, 2))
    errors = {"nodes": [], "energy": [], "log": []}
    for coarse, fine, e_coarse, e_fine in zip(paths, paths[1:], energies, energies[1:]):
        fine = fine[:, ::2]
        errors["nodes"].append(np.max(np.abs(coarse - fine)))
        errors["energy"].append(abs(e_coarse - e_fine))
        errors["log"].append(8.0 * np.max(np.abs(coarse[1] - coarse[0] - fine[1] + fine[0])))
    for name, nodes in (("exp", shots), ("transport", carried)):
        errors[name] = [np.max(np.abs(coarse - fine[::2])) for coarse, fine in zip(nodes, nodes[1:])]
    for name, errs in errors.items():
        assert 1.7 <= fit_order(errs, ns[: len(errs)]) <= 2.3, (name, errs)
        # and at every doubling (measured 3.40-3.97): a first-order error
        # of the opposite sign can cancel into a fitted order near 2
        ratios = np.divide(errs[:-1], errs[1:])
        assert np.all((3.0 <= ratios) & (ratios <= 5.0)), (name, errs)


def test_euclidean_motion_invariance():
    model = rod_energy("simplified", 24, 0.1)
    rng = np.random.default_rng(41)
    x = random_smooth_rod(24, rng)
    y = random_smooth_rod(24, rng)
    for _ in range(5):
        angle = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        shift = rng.normal(size=2)
        wx = model.w(x.coord, y.coord)
        wr = model.w(
            (x.nodes @ rot.T + shift).reshape(-1), (y.nodes @ rot.T + shift).reshape(-1)
        )
        assert abs(wx - wr) <= 1e-10


def test_only_the_full_rod_is_invariant_under_rotating_one_argument():
    """The full rod reads a rod only through its speeds |x_s| and its
    curvature, so rotating either argument alone leaves w unchanged: an
    ungauged null direction at every interior point of a full-rod path
    (ROADMAP item 11).  The simplified rod compares D2 y with D2 x as
    vectors, so it is invariant only under rotating both.  Measured: the
    full rod's four values agree to 4e-18 (w = 3.5e-3); the simplified
    rod's are 0.445, 4.61, 5.17 and 0.445."""
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rng = np.random.default_rng(41)
    x, y = random_smooth_rod(16, rng), random_smooth_rod(16, rng)
    rx, ry = ((c.nodes @ rot.T).reshape(-1) for c in (x, y))
    pairs = ((x.coord, ry), (rx, y.coord), (rx, ry))
    full = rod_energy("full", 16, 0.1)
    w = full.w(x.coord, y.coord)
    assert w > 1e-3
    for a, b in pairs:
        assert full.w(a, b) == pytest.approx(w, rel=1e-12, abs=0.0)
    simplified = rod_energy("simplified", 16, 0.1)
    w = simplified.w(x.coord, y.coord)
    one, other, both = (simplified.w(a, b) for a, b in pairs)
    assert both == pytest.approx(w, rel=1e-12, abs=0.0)
    assert min(one, other) > 2.0 * w


def test_simplified_gradients_match_fd():
    model = rod_energy("simplified", 16, 0.1)
    rng = np.random.default_rng(51)
    x = random_smooth_rod(16, rng).coord
    y = random_smooth_rod(16, rng).coord
    g1, g2 = model.grads(x, y)
    g1_fd = central_jacobian(lambda p: model.w(p, y), x, 1e-6)
    g2_fd = central_jacobian(lambda p: model.w(x, p), y, 1e-6)
    assert np.max(np.abs(g1 - g1_fd)) <= 1e-8
    assert np.max(np.abs(g2 - g2_fd)) <= 1e-8


def test_full_gradients_match_fd():
    rng = np.random.default_rng(53)
    for n in (8, 16, 32):
        model = rod_energy("full", n, 0.1)
        x = random_smooth_rod(n, rng).coord
        y = random_smooth_rod(n, rng, base_radius=1.2, amplitude=0.1).coord
        g1, g2 = model.grads(x, y)
        g1_fd = central_jacobian(lambda p: model.w(p, y), x, 1e-6)
        g2_fd = central_jacobian(lambda p: model.w(x, p), y, 1e-6)
        assert np.max(np.abs(g1 - g1_fd)) <= 1e-8
        assert np.max(np.abs(g2 - g2_fd)) <= 1e-8


def test_simplified_consistency_random_rods():
    model = rod_energy("simplified", 16, 0.1)
    rng = np.random.default_rng(61)
    for _ in range(100):
        point = random_smooth_rod(16, rng).coord
        report = check_consistency(model, point, 1e-4)
        assert report.ok, report.residuals


def test_rod_consistency_holds_to_rounding_with_exact_hessians():
    # finite-difference Hessians left residuals of ~4e-8 (simplified rod)
    # and ~1e-11 (full rod, Richardson) here
    rng = np.random.default_rng(67)
    for kind in ("simplified", "full"):
        for n in (16, 32):
            model = rod_energy(kind, n, 0.1)
            for _ in range(5):
                report = check_consistency(model, random_smooth_rod(n, rng).coord, 1e-10)
                assert report.ok, report.residuals


def test_full_energy_values_and_consistency():
    model = rod_energy("full", 16, 0.1)
    x = circle_rod(16).coord
    assert model.w(x, x) <= 1e-20
    assert model.w(x, circle_rod(16, 1.2).coord) > 0
    rng = np.random.default_rng(71)
    for _ in range(3):
        point = random_smooth_rod(16, rng).coord
        report = check_consistency(model, point, 1e-4)
        assert report.ok, report.residuals


def test_full_random_consistency_bulk():
    model = rod_energy("full", 8, 0.1)
    rng = np.random.default_rng(81)
    for _ in range(100):
        point = random_smooth_rod(8, rng, modes=2).coord
        report = check_consistency(model, point, 1e-4)
        assert report.ok, report.residuals


def test_degenerate_rod_rejected():
    good = circle_rod(16).coord
    with pytest.raises(DomainError):
        rod_energy("cubic", 16, 0.1)
    # valid rod whose speed at node 2 is 1e-5 * 16 / 2
    near = circle_rod(16).nodes.copy()
    near[3] = near[1] + [1e-5, 0.0]
    near = near.reshape(-1)
    for kind in ("simplified", "full"):
        model = rod_energy(kind, 16, 0.1)
        with pytest.raises(DomainError):
            model.w(np.zeros(32), good)
        with pytest.raises(DomainError):
            model.w(good, np.zeros(32))
        model.w(near, good)
        # closed-form and complex-step blocks evaluate at the valid rod itself
        for pair in ((near, good), (good, near)):
            assert all(np.all(np.isfinite(block)) for block in model.hess_blocks(*pair))


def test_integer_base_radius_gives_the_float_rod():
    rods = [random_smooth_rod(16, np.random.default_rng(7), r, amplitude=0.05) for r in (1, 1.0)]
    np.testing.assert_array_equal(rods[0].nodes, rods[1].nodes)


def test_rod_csv_round_trip(tmp_path):
    curve = random_smooth_rod(16, np.random.default_rng(91))
    target = tmp_path / "rod.csv"
    save_rod_csv(curve, target)
    loaded = load_rod_csv(target)
    assert np.array_equal(loaded.nodes, curve.nodes)
    # headerless files load too
    bare = tmp_path / "bare.csv"
    bare.write_text(
        "\n".join(f"{p[0]},{p[1]}" for p in curve.nodes) + "\n", encoding="utf-8"
    )
    assert np.allclose(load_rod_csv(bare).nodes, curve.nodes)
    broken = tmp_path / "broken.csv"
    broken.write_text("x,y\n1.0,2.0\noops,3\n", encoding="utf-8")
    with pytest.raises(DomainError):
        load_rod_csv(broken)


def test_rod_csv_allows_one_header_row_only(tmp_path):
    target = tmp_path / "noted.csv"
    target.write_text("x,y\nsome note\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(DomainError, match="malformed rod row: 'some note'"):
        load_rod_csv(target)
    target.write_text("x,y\n\n", encoding="utf-8")
    with pytest.raises(DomainError, match="rod file contains no nodes"):
        load_rod_csv(target)


def test_rod_csv_rejects_wrong_field_count(tmp_path):
    for body in ("x,y\n1.0,2.0\n3.0\n", "1.0\n2.0,3.0\n", "x,y\n1.0,2.0,0.5\n"):
        target = tmp_path / "bad.csv"
        target.write_text(body, encoding="utf-8")
        with pytest.raises(DomainError, match="2 fields"):
            load_rod_csv(target)


def _per_column_hessians(model, x, y, h):
    """Dense reference: the Richardson stencil of both gradients, one
    coordinate column at a time; returns (h11, h12, h21, h22)."""
    d = x.size
    out = {}
    for slot in (1, 2):
        base = x if slot == 1 else y
        cols = []
        for j in range(d):
            g = []
            for step in (h, -h, 0.5 * h, -0.5 * h):
                p = base.copy()
                p[j] += step
                g.append(np.concatenate(model.grads(p, y) if slot == 1 else model.grads(x, p)))
            gp, gm, gp2, gm2 = g
            cols.append((4.0 * (gp2 - gm2) / h - (gp - gm) / (2.0 * h)) / 3.0)
        jac = np.stack(cols, axis=1)
        out[1, slot], out[2, slot] = jac[:d], jac[d:]
    return out[1, 1], out[1, 2], out[2, 1], out[2, 2]


def _blocks_and_reference(kind, n, rng):
    """Hessian blocks and the per-column reference at random x != y; checks
    that they agree and that entries outside the model's band (+-2 nodes
    for the simplified rod, +-4 for the full rod) are zero."""
    model = rod_energy(kind, n, 0.1)
    x = random_smooth_rod(n, rng).coord
    y = random_smooth_rod(n, rng, base_radius=1.2, amplitude=0.1).coord
    blocks = model.hess_blocks(x, y)
    reference = _per_column_hessians(model, x, y, 1e-5)
    scale = max(np.max(np.abs(r)) for r in reference)
    node = np.arange(2 * n) // 2
    gap = np.abs(node[:, None] - node[None, :])
    outside = np.minimum(gap, n - gap) > {"simplified": 2, "full": 4}[kind]
    for block, ref in zip(blocks, reference):
        assert np.max(np.abs(block - ref)) <= 1e-9 * scale
        assert np.all(block[outside] == 0.0)
    return model, x, y, blocks, scale


def test_closed_form_hessian_matches_per_column_reference():
    rng = np.random.default_rng(13)
    for n in (8, 9, 16, 64, 128):
        _, h12, h21, _ = _blocks_and_reference("simplified", n, rng)[3]
        np.testing.assert_array_equal(h21, h12.T)


def test_full_colored_hessian_matches_per_column_reference():
    rng = np.random.default_rng(17)
    for n in (8, 9, 16, 18, 27, 32, 64):
        model, x, y, blocks, scale = _blocks_and_reference("full", n, rng)
        h11, h12, h21, h22 = blocks
        # complex-step blocks are exact to rounding, so symmetric to it
        for asymmetry in (h21 - h12.T, h11 - h11.T, h22 - h22.T):
            assert np.max(np.abs(asymmetry)) <= 1e-14 * scale
        n_groups = model._groups.shape[1]
        assert n_groups == 2 * n if n <= 17 else n_groups < 2 * n
        if n <= 9:
            # the energy-only finite-difference scheme the full rod used to
            # be differentiated with (O(d^2) calls of w, so small N only)
            old = central_hess_blocks(model.w, x, y, 1e-5)
            for block, ref in zip(blocks, old):
                assert np.max(np.abs(block - ref)) <= 1e-6 * scale


def test_dense_view_is_the_band():
    """Every entry of the dense blocks lies within the band, and each band
    entry equals the dense entry it names; where the band wraps onto itself
    (the full rod at N = 8), the offsets from N on repeat those entries."""
    rng = np.random.default_rng(19)
    for kind, reach in (("simplified", 2), ("full", 4)):
        for n in (8, 16, 17, 64):
            model = rod_energy(kind, n, 0.1)
            xs, ys = _segment_stack(n, rng, m=2)
            band = model.hess_bands_stacked(xs, ys)
            dense = np.stack(model.hess_blocks_stacked(xs, ys)).reshape(4, 2, n, 2, n, 2)
            assert band.shape == (4, 2 * reach + 1, n, 2, 2, 2)
            gap = np.abs(np.arange(n)[:, None] - np.arange(n))
            outside = np.minimum(gap, n - gap) > reach
            assert np.all(dense.transpose(0, 1, 2, 4, 3, 5)[:, :, outside] == 0.0)
            for o in range(2 * reach + 1):
                for j in range(n):
                    want = dense[:, :, j, :, (j + o - reach) % n, :]
                    np.testing.assert_array_equal(band[:, o, j], want)


def test_full_rod_is_invariant_under_a_sawtooth_at_even_n():
    """D1 vanishes on x_i = (-1)^i e at even N, so the full rod does not
    see that mode in either slot, and its gauge pins it; the simplified
    rod's D2 sees it, and at odd N the mode is not in D1's kernel."""
    for n in (16, 32, 33):
        x = circle_rod(n).coord
        y = random_smooth_rod(n, np.random.default_rng(5), 1.2, amplitude=0.15).coord
        saw = 0.1 * np.kron((-1.0) ** np.arange(n), [0.6, -0.8])
        full, simplified = rod_energy("full", n, 0.1), rod_energy("simplified", n, 0.1)
        base = full.w(x, y)
        changes = (abs(full.w(x + saw, y) - base), abs(full.w(x, y + saw) - base))
        if n % 2:
            assert min(changes) > 1e-4 * base
        else:
            assert max(changes) <= 1e-12 * base
        assert abs(simplified.w(x, y + saw) - simplified.w(x, y)) > 1e-2 * simplified.w(x, y)
        gauge = rod_gauge(n, "full").matrix
        assert gauge.shape == (2 if n % 2 else 4, 2 * n)
        np.testing.assert_array_equal(gauge[:2], rod_gauge(n).matrix)
        if not n % 2:
            np.testing.assert_allclose(gauge[2:] @ saw, [0.06, -0.08], rtol=0, atol=1e-15)
    assert rod_gauge(16, "simplified").matrix.shape == (2, 32)
    with pytest.raises(DomainError, match="unknown rod energy kind"):
        rod_gauge(16, "elastic")


def _path_jacobian(model, gauge, pts):
    """Dense Jacobian of the gauged interior path system at pts, time order."""
    K, d, c = len(pts) - 1, pts.shape[1], gauge.shape[0]
    h11, h12, h21, h22 = model.hess_blocks_stacked(pts[:K], pts[1:])
    b = d + c
    jac = np.zeros((K - 1, b, K - 1, b))
    for k in range(K - 1):
        jac[k, :d, k, :d] = h22[k] + h11[k + 1]
        jac[k, :d, k, d:] = -gauge.T
        jac[k, d:, k, :d] = gauge
        if k:
            jac[k, :d, k - 1, :d] = h21[k]
        if k < K - 2:
            jac[k, :d, k + 1, :d] = h12[k + 1]
    return jac.reshape((K - 1) * b, (K - 1) * b)


def test_gauged_even_n_full_rod_path_jacobian_is_nonsingular():
    n, K = 32, 8
    model = rod_energy("full", n, 0.1)
    a = circle_rod(n).coord
    b = random_smooth_rod(n, np.random.default_rng(5), 1.2, amplitude=0.15).coord
    pts = geodesic._linear_init(a, b, K)
    # the mean gauge leaves the sawtooth: 2 (K - 1) null directions
    sv = np.linalg.svd(_path_jacobian(model, rod_gauge(n).matrix, pts), compute_uv=False)
    assert np.sum(sv < 1e-12 * sv[0]) == 2 * (K - 1)
    sv = np.linalg.svd(_path_jacobian(model, rod_gauge(n, "full").matrix, pts), compute_uv=False)
    assert sv[0] / sv[-1] <= 1e8


def test_node_ordered_morph_matches_the_time_order():
    """The banded rod's interior window runs in node order; a view of the
    same rod that hands out only dense blocks runs the time-ordered block
    cyclic reduction of ``_block_thomas``.  On the morph of perfbench's
    ``rod_morph`` (N = 64, K = 8) both take 3 iterations and agree to
    1e-12."""
    from geocalc.core import EnergyModel

    n, K = 64, 8
    model = rod_energy("simplified", n, 0.1)

    class Dense(EnergyModel):
        def w_stacked(self, xs, ys):
            return model.w_stacked(xs, ys)

        def grads_stacked(self, xs, ys):
            return model.grads_stacked(xs, ys)

        def hess_blocks_stacked(self, xs, ys):
            return model.hess_blocks_stacked(xs, ys)

    a = circle_rod(n).coord
    b = random_smooth_rod(n, np.random.default_rng(5), 1.2, amplitude=0.15).coord
    node = solve_geodesic(a, b, K, model, constraint=rod_gauge(n))
    time = solve_geodesic(a, b, K, Dense(), constraint=rod_gauge(n))
    assert node.converged and time.converged
    assert node.iterations == time.iterations == 3
    assert np.max(np.abs(node.path.points - time.path.points)) <= 1e-12


def _lu_thomas_loop(lower, diag, cd):
    """Block Thomas elimination in place on cd = [upper | rhs], with one LU
    solve of [C_i | d_i] per pivot, the form ``thomas._thomas_loop`` had
    before it applied inverses."""
    b = diag.shape[1]
    cd[0] = np.linalg.solve(diag[0], cd[0])
    for i in range(1, len(cd)):
        coupled = lower[i] @ cd[i - 1]
        cd[i, :, b:] -= coupled[:, b:]
        cd[i] = np.linalg.solve(diag[i] - coupled[:, :b], cd[i])
    sol = cd[:, :, b:]
    for i in range(len(cd) - 2, -1, -1):
        sol[i] -= cd[i, :, :b] @ sol[i + 1]
    return sol


def _morph_both_ways(n, kind, monkeypatch):
    """The morph of perfbench's ``rod_morph`` at N = n, K = 8, solved with
    inverse-applied pivots and again with the LU loop, which the node solve
    must call once per Newton iteration."""
    a = circle_rod(n)
    b = random_smooth_rod(n, np.random.default_rng(5), 1.2, amplitude=0.15)
    inverse, _ = run_rod_morph(a, b, 8, kind=kind)
    calls = []

    def lu_loop(*args):
        calls.append(args)
        return _lu_thomas_loop(*args)

    monkeypatch.setattr(thomas, "_thomas_loop", lu_loop)
    lu, _ = run_rod_morph(a, b, 8, kind=kind)
    assert len(calls) == lu.iterations > 0
    return inverse, lu


def test_inverse_applied_pivots_keep_the_simplified_morph(monkeypatch):
    inverse, lu = _morph_both_ways(64, "simplified", monkeypatch)
    assert inverse.iterations == lu.iterations == 3
    # measured 4.5e-15
    ref = lu.path.points
    assert np.max(np.abs(inverse.path.points - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_inverse_applied_pivots_keep_the_full_morph_energies(monkeypatch):
    # the full rod's path moves with rounding along its rotation null
    # directions (one per interior time), so only what is invariant is compared
    inverse, lu = _morph_both_ways(32, "full", monkeypatch)
    assert inverse.iterations == lu.iterations == 3
    model = rod_energy("full", 32, 0.1)

    def energies(res):
        return model.w_stacked(res.path.points[:-1], res.path.points[1:])

    # measured 2.6e-14
    np.testing.assert_allclose(energies(inverse), energies(lu), rtol=1e-12)


def test_thomas_solves_only_one_column_systems_with_lapack(monkeypatch):
    """Every pivot applied to several columns goes through its inverse:
    ``np.linalg.solve`` is left to one-column dense systems, on the rod
    morph (the node solve's border) and on a 4 x 4 level-set geodesic (the
    reduction's last level)."""
    solve = np.linalg.solve
    shapes = []

    def spy(a, b):
        if sys._getframe(1).f_globals["__name__"] == thomas.__name__:
            shapes.append(np.shape(b))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    a = circle_rod(64)
    b = random_smooth_rod(64, np.random.default_rng(5), 1.2, amplitude=0.15)
    assert run_rod_morph(a, b, 8)[0].converged
    morph = len(shapes)
    model, sphere = sdf_spring_model(SphereSdf())
    x_a, x_b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
    assert solve_geodesic(x_a, x_b, 128, model, constraint=sphere).converged
    assert 0 < morph < len(shapes)
    assert all(len(shape) == 1 for shape in shapes)


def test_rod_gauge_pins_interior_means():
    a = circle_rod(16).coord
    shift = np.array([1.0, 0.5])
    b = (circle_rod(16).nodes + shift).reshape(-1)
    gauge = rod_gauge(16)
    assert gauge.matrix.shape == (2, 32)
    np.testing.assert_allclose(gauge.matrix @ b, shift, rtol=0, atol=1e-12)  # G x is the node average

    model = rod_energy("simplified", 16, 0.1)
    res = solve_geodesic(a, b, 4, model, constraint=gauge)
    assert res.converged
    for k in range(1, 4):
        mean = RodCurve.from_coord(res.path[k]).nodes.mean(axis=0)
        assert np.allclose(mean, k / 4 * shift, atol=1e-9)


def test_gauged_rod_exp_and_ladder_are_whole_solves():
    """The gauge reaches the exp and the ladder: on the N = 16, K = 4 morph
    both converge as one Newton solve, where the translation null space
    makes the ungauged whole exp diverge and the whole ladder's pivots
    singular."""
    K = 4
    res, _ = run_rod_morph(circle_rod(16), circle_rod(16, 1.2), K)
    path = res.path.points
    model, gauge = rod_energy("simplified", 16, 0.1), rod_gauge(16)
    zeta = path[1] - path[0]

    start = operators._exp_start(path[0], zeta, K)
    pts, _, _, _, converged = geodesic._solve_path(start, model, gauge, None, "exp path", shot=True)
    assert converged
    assert np.max(np.abs(pts[K] - path[K])) <= 1e-10
    shot = discrete_exp_path(path[0], zeta, K, model, constraint=gauge)
    np.testing.assert_array_equal(shot.points, pts)  # the whole solve, no fold

    _, _, _, _, converged = geodesic._solve_ladder(path, zeta, model, gauge, None, "ladder")
    assert converged
    # a shape change (not the path's own increment, whose degenerate rungs
    # the root test sends to the fold) goes through the public transport whole
    w = (random_smooth_rod(16, np.random.default_rng(0), amplitude=0.1).coord - path[0]) / K
    mid, corner, _, _, converged = geodesic._solve_ladder(path, w, model, gauge, None, "ladder")
    assert converged
    w_K, traces = parallel_transport(res.path, w, model, constraint=gauge)
    np.testing.assert_array_equal([tr.x_c for tr in traces], mid)
    np.testing.assert_array_equal(w_K, corner[-1] - path[K])
    # each corner's node average sits where flat space puts it, x_k + w
    np.testing.assert_allclose(corner @ gauge.matrix.T, (path[1:] + w) @ gauge.matrix.T, rtol=0, atol=1e-12)


def test_rod_morph_energy_equidistributes():
    model = rod_energy("simplified", 32, 0.1)
    a = circle_rod(32).coord
    b = circle_rod(32, 1.2).coord
    res = solve_geodesic(a, b, 4, model, constraint=rod_gauge(32))
    assert res.converged
    segments = [4 * model.w(res.path[k - 1], res.path[k]) for k in range(1, 5)]
    assert max(segments) / min(segments) <= 1.1


def test_rod_morph_refuses_mismatched_endpoints_and_an_unconverged_solve():
    with pytest.raises(DomainError, match="rod endpoints must share the node count"):
        run_rod_morph(circle_rod(16), circle_rod(18, 1.2), 4)
    with pytest.raises(SolverError, match=r"^rod morph \(K=4\): no convergence, last residual \d") as err:
        run_rod_morph(circle_rod(16), circle_rod(16, 1.2), 4, cfg=SolverConfig(max_iter=1))
    assert err.value.residual > SolverConfig().newton_tol


def test_full_rod_morph_converges_and_equidistributes():
    res, _ = run_rod_morph(circle_rod(16), circle_rod(16, 1.2), 4, kind="full")
    assert res.converged and res.iterations == 2
    model = rod_energy("full", 16, 0.1)
    segments = [4 * model.w(res.path[k - 1], res.path[k]) for k in range(1, 5)]
    assert max(segments) / min(segments) <= 1.1


def _segment_stack(n, rng, m=3):
    """m segments of random rods with x != y, as (m, 2n) stacks."""
    xs = np.stack([random_smooth_rod(n, rng).coord for _ in range(m)])
    ys = np.stack([random_smooth_rod(n, rng, base_radius=1.2, amplitude=0.1).coord for _ in range(m)])
    return xs, ys


def test_stacked_blocks_and_grads_equal_the_per_point_ones():
    rng = np.random.default_rng(23)
    for kind in ("simplified", "full"):
        for n in (8, 9, 16, 64):
            model = rod_energy(kind, n, 0.1)
            xs, ys = _segment_stack(n, rng)
            ws = model.w_stacked(xs, ys)
            g1, g2 = model.grads_stacked(xs, ys)
            blocks = model.hess_blocks_stacked(xs, ys)
            assert ws.shape == (len(xs),)
            assert g1.shape == g2.shape == xs.shape
            for i, (x, y) in enumerate(zip(xs, ys)):
                assert ws[i] == model.w(x, y)
                for got, want in zip((g1[i], g2[i]), model.grads(x, y)):
                    np.testing.assert_array_equal(got, want)
                for got, want in zip(blocks, model.hess_blocks(x, y)):
                    np.testing.assert_array_equal(got[i], want)
                for got, name in zip(blocks, ("hess11", "hess12", "hess21", "hess22")):
                    np.testing.assert_array_equal(got[i], getattr(model, name)(x, y))


def test_closed_form_metrics_match_half_the_symmetrized_hess22():
    rng = np.random.default_rng(29)
    for kind in ("simplified", "full"):
        for n in (8, 16, 32):
            model = rod_energy(kind, n, 0.1)
            x = random_smooth_rod(n, rng).coord
            g = model.metric(x)
            h22 = model.hess22(x, x)
            assert np.max(np.abs(g - (h22 + h22.T) / 4.0)) <= 1e-9 * np.max(np.abs(g))


def test_a_bad_row_in_a_stack_is_a_domain_error():
    rng = np.random.default_rng(37)
    for kind in ("simplified", "full"):
        model = rod_energy(kind, 16, 0.1)
        xs, ys = _segment_stack(16, rng)
        degenerate = ys.copy()
        degenerate[1] = 0.0  # every node of the middle rod coincides
        nonfinite = ys.copy()
        nonfinite[2, 5] = np.nan
        for bad in (degenerate, nonfinite, ys[:, :-2], ys[0]):
            for method in (model.w_stacked, model.grads_stacked, model.hess_blocks_stacked):
                with pytest.raises(DomainError):
                    method(xs, bad)
                with pytest.raises(DomainError):
                    method(bad, xs)


def test_rod_energy_rejects_a_bad_delta_or_node_count():
    for kind in ("simplified", "full"):
        for delta in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="delta"):
                rod_energy(kind, 16, delta)
        for n in (16.7, 7, True, "16"):
            with pytest.raises(DomainError, match="n_nodes"):
                rod_energy(kind, n, 0.1)
        assert rod_energy(kind, np.int64(16), 0.1).n_nodes == 16


def test_no_rod_takes_an_fd_step():
    from geocalc.rods import FullRodEnergy, SimplifiedRodEnergy

    for kind, cls in (("simplified", SimplifiedRodEnergy), ("full", FullRodEnergy)):
        with pytest.raises(TypeError):
            rod_energy(kind, 16, 0.1, fd_step=1e-5)
        with pytest.raises(TypeError):
            cls(16, 0.1, 1e-5)
    assert not hasattr(rod_energy("simplified", 16, 0.1), "_groups")


def test_cli_rejects_a_bad_delta(tmp_path, capsys):
    from geocalc.cli import main

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_rod_csv(circle_rod(16), a)
    save_rod_csv(circle_rod(16, 1.1), b)
    for delta in ("nan", "inf", "0", "-1"):
        for kind in ("full", "simplified"):
            argv = ["consistency", "--model", f"rod-{kind}", "--samples", "1", "--delta", delta]
            assert main(argv) == 3, argv
            assert "delta must be finite and positive" in capsys.readouterr().err
        argv = ["rod-morph", "--curve-a", str(a), "--curve-b", str(b), "--delta", delta]
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert "delta must be finite and positive" in captured.err
