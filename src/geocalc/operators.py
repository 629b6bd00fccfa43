"""Discrete logarithm, exponential, parallel transport, and connection.

The discrete logarithm and exponential are two windows of one Newton
kernel, ``geodesic._solve_path``, which solves the Euler-Lagrange rows
grad2(x_{k-1}, x_k) + grad1(x_k, x_{k+1}) = 0, k = 1..K-1:

* ``discrete_log``: the first increment of the boundary-value geodesic,
  solved for x_1 .. x_{K-1}; ``log2(x0, x2)``, the displacement to the
  midpoint of the 2-step geodesic, is its K = 2 call;
* ``discrete_exp_path``: the initial-value path from x_0 and
  x_1 = x_0 + zeta, solved for x_2 .. x_K in one Newton solve; ``exp2``,
  the endpoint x2 of the 2-step geodesic whose midpoint is x + zeta, is
  its K = 2 call.

On top of these sit a Schild's-ladder style parallel transport (one
geodesic parallelogram per path segment), its inverse, and a
finite-difference connection.  The ladder is one Newton solve over every
rung's midpoint and corner together (``_solve_ladder``, one band), and so
is its inverse, from the end; the connection is a one-rung inverse.  The
whole exp and the ladders solve their block lower triangular systems by
``geodesic._forward_substitution``, in about log2(K) stacked levels for
the small blocks of surfaces and charts.  They are less robust than the
step-by-step fold on long shots and coarse ladders; when one fails, or
lands on a root the fold would not pick (``_near``), the operator runs
the fold (``exp2``, ``transport_step`` or a one-rung inverse at a time),
and the fold's errors are the ones raised.  The public operators start
the whole solves from the straight line; ``_shoot`` and ``_transport``
take another start (the convergence study's prolonged coarser level),
with the same fold and root test.

Every Newton solve here runs the one Newton loop of ``geodesic``.  Every
operator takes, as its 4th argument, the ``SolverConfig`` the path solves
take, and each of its inner solves runs with it, damping included.

All operators take the path solve's optional constraint, a level set or
a ``LinearGauge``, seen through ``geodesic._constraint_view``.  A
displacement or point whose size differs from the base point's is a
DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscretePath, DomainError, SolverError, _as_count, _write_csv, as_path, as_point
from .geodesic import (
    ConstraintModel,
    LinearGauge,
    SolverConfig,
    _border,
    _check_constraint,
    _constraint_view,
    _forward_substitution,
    _multiplier_rows,
    _newton,
    _project_rows,
    _solve_path,
    solve_geodesic,
)

__all__ = [
    "TransportTrace",
    "log2",
    "exp2",
    "discrete_log",
    "discrete_exp",
    "discrete_exp_path",
    "transport_step",
    "parallel_transport",
    "inverse_transport",
    "discrete_connection",
    "write_traces_csv",
]


@dataclass(frozen=True)
class TransportTrace:
    """One rung of the transport ladder: x_p_prev = x_{k-1} + zeta_{k-1},
    the parallelogram midpoint x_c, the completed corner x_p, and the
    transported displacement zeta = x_p - x_k."""

    x_p_prev: np.ndarray
    x_c: np.ndarray
    x_p: np.ndarray
    zeta: np.ndarray


def _at_point(v, x) -> np.ndarray:
    """``v`` (a displacement or point) as a vector beside the point x.

    A size mismatch is a DomainError; numpy would otherwise broadcast a
    size-1 vector silently.
    """
    v = as_point(v)
    if v.size != x.size:
        raise DomainError(f"vector of dimension {v.size} given at a point of dimension {x.size}")
    return v


def _require(converged: bool, res: float, context: str) -> None:
    if not converged:
        raise SolverError(f"{context}: no convergence, last residual {res:.3e}", residual=res)


def log2(
    x0, x2, model, cfg: SolverConfig | None = None, constraint: ConstraintModel | LinearGauge | None = None
) -> np.ndarray:
    """Displacement zeta with x0 + zeta the midpoint of the 2-geodesic to x2.

    This is the K = 2 path solve: grad2(x0, x1) + grad1(x1, x2) = 0 for the
    interior point x1 (tangentially, with a multiplier, when a constraint is
    given; the endpoints themselves are data and need not satisfy it),
    started from the midpoint, projected onto the level set if there is one.
    """
    x0 = as_point(x0)
    x2 = _at_point(x2, x0)
    pts = np.stack([x0, (x0 + x2) / 2.0, x2])
    _project_rows(pts[1:2], constraint)
    pts, _, res, _, converged = _solve_path(pts, model, constraint, cfg, "log2")
    _require(converged, res, "log2")
    return pts[1] - x0


def _exp_start(x, zeta, K, constraint):
    """Start x_j = x + j zeta (j = 0..K) of the exp solve; x_2.. projected."""
    pts = x + np.arange(K + 1)[:, None] * zeta
    _project_rows(pts[2:], constraint)
    return pts


def exp2(
    x, zeta, model, cfg: SolverConfig | None = None, constraint: ConstraintModel | LinearGauge | None = None
) -> np.ndarray:
    """Endpoint x2 of the 2-geodesic whose midpoint displacement is zeta.

    This is the K = 2 shot of the path kernel, solved for x2 from
    x + 2 zeta (projected onto the level set if there is one).
    """
    x = as_point(x)
    zeta = _at_point(zeta, x)
    pts = _exp_start(x, zeta, 2, constraint)
    pts, _, res, _, converged = _solve_path(pts, model, constraint, cfg, "exp2", shot=True)
    _require(converged, res, "exp2")
    return pts[2]


def discrete_log(
    x_a,
    x_b,
    K: int,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
) -> np.ndarray:
    """First increment x_1 - x_0 of the K-step geodesic from x_a to x_b.

    K times this displacement approximates the Riemannian logarithm.  For
    K = 1 it is the plain difference x_b - x_a.
    """
    xa = as_point(x_a)
    xb = _at_point(x_b, xa)
    K = _as_count("K", K, 1)
    _check_constraint(constraint)
    if K == 1:
        return xb - xa
    result = solve_geodesic(xa, xb, K, model, cfg, constraint=constraint)
    if not result.converged:
        raise SolverError(
            f"geodesic solve for the K={K} logarithm did not converge",
            residual=result.residual,
        )
    return result.path[1] - result.path[0]


def _near(points, starts, anchors) -> bool:
    """Whether each solved point lies within |start - anchor| of its start.

    ``starts`` are the points the rung-by-rung fold would start its inner
    Newton solves from, given the whole solve's earlier points, and
    ``anchors`` the points those starts are extrapolated from.  The fold's
    roots pass; a whole solve that lands on another root of an inner
    equation (for the sphere chart, the far root of the quadratic
    grad1(x, .) at distance O(1) instead of O(1/K)) does not.  The reach
    is at least 64 eps (1 + |anchor|): that of a degenerate rung (p_0 =
    x_1) is about 0, which rounding error alone would exceed.
    """
    reach = np.linalg.norm(starts - anchors, axis=1)
    floor = 64.0 * np.finfo(float).eps * (1.0 + np.linalg.norm(anchors, axis=1))
    return bool(np.all(np.linalg.norm(points - starts, axis=1) <= np.maximum(reach, floor)))


def _exp_fold(x, zeta, k, model, cfg, constraint) -> DiscretePath:
    """The exp path one exp2 step at a time, each seeded with the last increment."""
    pts = [x, x + zeta]
    for j in range(2, k + 1):
        try:
            pts.append(exp2(pts[j - 2], pts[j - 1] - pts[j - 2], model, cfg, constraint))
        except SolverError as err:
            raise SolverError(f"extension step {j} failed: {err}", residual=err.residual) from err
    return DiscretePath(np.stack(pts))


def discrete_exp_path(
    x,
    zeta,
    k: int,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
) -> DiscretePath:
    """All points x_0 .. x_k of the discrete geodesic shot from x with zeta.

    x_0 = x, x_1 = x + zeta, and x_2 .. x_k solve the Euler-Lagrange rows
    of the path energy together, in one Newton solve started from the
    straight line x + j zeta.  If that solve fails (it is less robust than
    the step-by-step extension on long or coarse shots), the path is
    extended one exp2 step at a time instead, and that extension's errors
    are the ones raised.
    """
    x = as_point(x)
    zeta = _at_point(zeta, x)
    k = _as_count("k", k, 1)
    _check_constraint(constraint)
    if k == 1:
        return DiscretePath(np.stack([x, x + zeta]))
    return _shoot(x, zeta, _exp_start(x, zeta, k, None), model, cfg, constraint)


def _shoot(x, zeta, start, model, cfg, constraint) -> DiscretePath:
    """The whole exp solve of ``discrete_exp_path`` from the path ``start``.

    ``start`` has shape (k + 1, d), k >= 2, with start[0] = x and start[1]
    = x + zeta; its points x_2 .. x_k are projected onto the level set if
    there is one.  The fold and the ``_near`` root test are those of
    ``discrete_exp_path``, whatever the start.
    """
    try:
        pts = np.array(start, dtype=float)
        _project_rows(pts[2:], constraint)
        pts, _, _, _, converged = _solve_path(pts, model, constraint, cfg, "exp path", shot=True)
    except (SolverError, DomainError):
        converged = False
    if not (converged and _near(pts[2:], 2.0 * pts[1:-1] - pts[:-2], pts[1:-1])):
        return _exp_fold(x, zeta, len(start) - 1, model, cfg, constraint)
    return DiscretePath(pts)


def discrete_exp(
    x,
    zeta,
    k: int,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
) -> np.ndarray:
    """k-step discrete exponential of the displacement zeta at x."""
    x = as_point(x)
    zeta = _at_point(zeta, x)
    k = _as_count("k", k, 0)
    _check_constraint(constraint)
    if k == 0:
        return x
    if k == 1:
        return x + zeta
    return discrete_exp_path(x, zeta, k, model, cfg, constraint)[k]


def transport_step(
    x_prev,
    x_next,
    zeta_prev,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
):
    """One geodesic-parallelogram rung carrying zeta from x_prev to x_next.

    Returns the transported displacement and the rung trace.  The two inner
    solves are labeled rung-midpoint (the parallelogram center) and
    rung-completion (the opposite corner).
    """
    x_prev = as_point(x_prev)
    x_next = _at_point(x_next, x_prev)
    zeta_prev = _at_point(zeta_prev, x_prev)
    x_p_prev = x_prev + zeta_prev
    try:
        x_c = x_p_prev + log2(x_p_prev, x_next, model, cfg, constraint)
    except SolverError as err:
        raise SolverError(f"rung-midpoint solve failed: {err}", residual=err.residual) from err
    try:
        x_p = exp2(x_prev, x_c - x_prev, model, cfg, constraint)
    except SolverError as err:
        raise SolverError(f"rung-completion solve failed: {err}", residual=err.residual) from err
    zeta_next = x_p - x_next
    trace = TransportTrace(x_p_prev=x_p_prev, x_c=x_c, x_p=x_p, zeta=zeta_next)
    return zeta_next, trace


def _solve_ladder(pts, zeta, model, constraint, cfg: SolverConfig | None, context: str, zetas=None, inverse=False):
    """Newton solve for every rung of the ladder along ``pts`` at once.

    Rung k = 1..K has the midpoint c_k, the corners p_{k-1} and p_k, and
    the equations of the forward transport's two inner solves,

        grad2(p_{k-1}, c_k) + grad1(c_k, x_k) - mu_A J(c_k) = 0,  d(c_k) = 0,
        grad2(x_{k-1}, c_k) + grad1(c_k, p_k) - mu_B J(c_k) = 0,  d(p) = 0,

    the multipliers and constraint rows only with a constraint.  The
    unknown corner p is p_k, with p_0 = x_0 + zeta given and the rows in
    the order k = 1..K, or with ``inverse`` p_{k-1}, with p_K = x_K + zeta
    given and the rows in the order k = K..1.  A row reads the row before
    only through its given corner, so the Jacobian is block lower
    bidiagonal in (2d + 2c)-blocks.  Residual and Jacobian come from one
    stacked call each over the 4K segments (p_{k-1}, c_k), (c_k, x_k),
    (x_{k-1}, c_k), (c_k, p_k).  With y the base point of p (x_k, or
    x_{k-1} inverse), a gauge's rows are G c_k = G(x_{k-1} + x_k + zeta)/2
    and G p = G(y + zeta).  Row i starts from p = y + zeta_i and c_k =
    (x_{k-1} + x_k + zeta_{i-1})/2, projected onto the level set if there
    is one, with zeta_{-1} = zeta and the guesses ``zetas`` (K, d), or zeta
    throughout when they are None.  Returns (midpoints, unknown corners,
    residual, iterations, converged), in the rung order k = 1..K.
    """
    K, d = len(pts) - 1, pts.shape[1]
    starts, ends = (pts[-2::-1], pts[:0:-1]) if inverse else (pts[:-1], pts[1:])
    own, given = (starts, ends) if inverse else (ends, starts)
    p_given = given[0] + zeta
    view = _constraint_view(constraint, lambda g: np.vstack([(starts + ends + zeta) / 2.0, own + zeta]) @ g.T, d)
    c = view.c
    b = d + c

    # row i of z holds c_k, mu_A, p, mu_B of its rung
    def segments(z):
        mid, corner = z[:, :d], z[:, b : b + d]
        prev = np.vstack([p_given, corner[:-1]])
        lo, hi = (corner, prev) if inverse else (prev, corner)
        return np.concatenate([lo, mid, starts, mid]), np.concatenate([mid, ends, mid, hi])

    def residual(z):
        g1, g2 = model.grads_stacked(*segments(z))
        g1, g2 = g1.reshape(4, K, d), g2.reshape(4, K, d)
        rows_a, rows_b = g2[0] + g1[1], g2[2] + g1[3]
        if not c:
            return np.hstack([rows_a, rows_b])
        mid, corner = z[:, :d], z[:, b : b + d]
        jac = view.jac(mid)
        values = view.values(np.vstack([mid, corner]))
        return np.hstack(
            [
                rows_a - _multiplier_rows(z[:, d:b], jac),
                values[:K],
                rows_b - _multiplier_rows(z[:, b + d :], jac),
                values[K:],
            ]
        )

    def step(z, r):
        h11, h12, h21, h22 = (h.reshape(4, K, d, d) for h in model.hess_blocks_stacked(*segments(z)))
        diag = np.zeros((K, 2 * b, 2 * b))
        diag[:, :d, :d] = h22[0] + h11[1]
        diag[:, b : b + d, :d] = h22[2] + h11[3]
        # row A reads p_{k-1}, row B p_k: the row's own corner goes on the
        # diagonal, its given one in the band below
        corners = np.zeros((2,) + diag.shape)
        corners[0, :, :d, b : b + d] = h21[0]
        corners[1, :, b : b + d, b : b + d] = h12[3]
        own_block, given_block = corners if inverse else corners[::-1]
        diag += own_block
        if c:
            mid, corner = z[:, :d], z[:, b : b + d]
            jac = view.jac(mid)
            diag[:, :d, :d] -= view.hess(mid, z[:, d:b])
            diag[:, b : b + d, :d] -= view.hess(mid, z[:, b + d :])
            _border(diag[:, :b, :b], jac, jac)
            _border(diag[:, b:, b:], jac, view.jac(corner))
        return _forward_substitution(diag, (given_block[1:],), r)

    if zetas is None:
        zetas = np.broadcast_to(zeta, (K, d))
    mid = (starts + ends) / 2.0 + np.vstack([zeta, zetas[:-1]]) / 2.0
    corner = own + zetas
    _project_rows(mid, constraint)
    _project_rows(corner, constraint)
    no_mu = np.zeros((K, c))
    z0 = np.hstack([mid, no_mu, corner, no_mu])
    z, res, iterations, converged = _newton(residual, step, z0, cfg, context)
    if inverse:
        z = z[::-1]
    return z[:, :d], z[:, b : b + d], res, iterations, converged


def _transport_fold(path, zeta, model, cfg, constraint):
    """The ladder one transport_step rung at a time."""
    traces = []
    for k in range(1, len(path)):
        try:
            zeta, trace = transport_step(path[k - 1], path[k], zeta, model, cfg, constraint)
        except SolverError as err:
            raise SolverError(f"transport step {k} failed: {err}", residual=err.residual) from err
        traces.append(trace)
    return zeta, traces


def parallel_transport(
    path,
    zeta_0,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
):
    """Schild's-ladder transport of zeta_0 along every segment of the path.

    All rungs are solved together in one Newton solve.  If that solve
    fails (it is less robust than the rung-by-rung fold on coarse ladders),
    the rungs are solved one ``transport_step`` at a time instead, and the
    fold's errors are the ones raised.  Returns (zeta_K, traces);
    traces[k-1] documents the k-th rung.
    """
    path = as_path(path)
    rungs = _transport(path, _at_point(zeta_0, path[0]), None, model, cfg, constraint)
    return rungs[3][-1], [TransportTrace(*rung) for rung in zip(*rungs)]


def _transport(path, zeta_0, zetas, model, cfg, constraint):
    """``parallel_transport`` of zeta_0 along the DiscretePath ``path``, its
    whole ladder started from the guesses ``zetas`` of ``_solve_ladder``.

    Returns the fields of the K traces as four (K, d) arrays, in the order
    of ``TransportTrace``.  The fold and the ``_near`` root test are those
    of ``parallel_transport``, whatever the start.
    """
    pts = path.points
    try:
        mid, corner, _, _, converged = _solve_ladder(pts, zeta_0, model, constraint, cfg, "ladder", zetas)
    except (SolverError, DomainError):
        converged = False
    if converged:
        corner_prev = np.vstack([pts[0] + zeta_0, corner[:-1]])
        solved = np.vstack([mid, corner])
        starts = np.vstack([(corner_prev + pts[1:]) / 2.0, 2.0 * mid - pts[:-1]])
        converged = _near(solved, starts, np.vstack([pts[1:], mid]))
    if not converged:
        _, traces = _transport_fold(path, zeta_0, model, cfg, constraint)
        return np.array([[t.x_p_prev, t.x_c, t.x_p, t.zeta] for t in traces]).transpose(1, 0, 2)
    zetas = corner - pts[1:]
    return pts[:-1] + np.vstack([zeta_0, zetas[:-1]]), mid, corner, zetas


def inverse_transport(
    path,
    zeta_K,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
) -> np.ndarray:
    """Pull a displacement at the path end back to the start.

    Solves the rung equations of the forward transport for the other
    unknowns, (c_k, p_{k-1}) from p_K = x_K + zeta_K, in one Newton solve
    (the inverse window of ``_solve_ladder``).  If that solve fails or
    lands on a root the rung-by-rung fold would not pick (``_near``), the
    same kernel runs one rung at a time from the end instead, and the
    fold's errors are the ones raised.
    """
    path = as_path(path)
    pts = path.points
    zeta = _at_point(zeta_K, path[0])
    try:
        mid, corner, _, _, converged = _solve_ladder(pts, zeta, model, constraint, cfg, "inverse ladder", inverse=True)
    except (SolverError, DomainError):
        converged = False
    if converged:
        # the fold starts rung k from c_k = (x_{k-1} + p_k)/2, p_{k-1} = x_{k-1} + zeta_k
        corner_next = np.vstack([corner[1:], pts[-1] + zeta])
        starts = np.vstack([(pts[:-1] + corner_next) / 2.0, pts[:-1] + corner_next - pts[1:]])
        converged = _near(np.vstack([mid, corner]), starts, np.vstack([pts[:-1], pts[:-1]]))
    if converged:
        return corner[0] - pts[0]
    for k in range(len(pts) - 1, 0, -1):
        try:
            _, corner, res, _, converged = _solve_ladder(
                pts[k - 1 : k + 1], zeta, model, constraint, cfg, "inverse rung", inverse=True
            )
            _require(converged, res, "inverse rung")
        except SolverError as err:
            raise SolverError(f"inverse transport step {k} failed: {err}", residual=err.residual) from err
        zeta = corner[0] - pts[k - 1]
    return zeta


def discrete_connection(
    x,
    xi,
    eta0,
    eta1,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
) -> np.ndarray:
    """Finite-difference covariant derivative from one-rung inverse transport.

    Pulls eta1 (attached at x + xi) back to x and subtracts eta0.
    """
    x = as_point(x)
    xi, eta0, eta1 = (_at_point(v, x) for v in (xi, eta0, eta1))
    rung = DiscretePath(np.stack([x, x + xi]))
    return inverse_transport(rung, eta1, model, cfg, constraint) - eta0


def write_traces_csv(traces, target) -> None:
    """Write ladder rungs as CSV rows ``k, x_c, x_p, zeta`` (one coordinate
    per column)."""
    if not traces:
        raise DomainError("no traces to write")
    d = traces[0].x_c.size
    header = ["k"] + [f"{name}_{i}" for name in ("xc", "xp", "zeta") for i in range(d)]
    rows = ((k, [*tr.x_c, *tr.x_p, *tr.zeta]) for k, tr in enumerate(traces, start=1))
    _write_csv(target, header, rows)
