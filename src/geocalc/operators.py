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
rung's midpoint and corner together (``geodesic._solve_ladder``), and one
``TransportTrace`` records it, a (K, d) row stack per field.  The
inverse is the same ladder along the reversed path, of the reversed
energy w'(x, y) = w(y, x) (``_Reversed``); the connection is a one-rung
inverse.  The whole exp and the ladder are less robust than the
step-by-step fold on long shots and coarse ladders; when one fails, or
lands on a root the fold would not pick (``_near``), the operator runs
the fold (``exp2`` or ``transport_step`` at a time), and the fold's
errors are the ones raised.  The public operators start the whole solves
from the straight line; ``_shoot`` and ``_transport`` take another start
(the convergence study's prolonged coarser level), with the same fold and
root test.

Every Newton solve here is one of the two kernels of ``geodesic``,
``_solve_path`` or ``_solve_ladder``, which project the unknowns of their
start onto the level set themselves.  A solve that must converge is
judged by ``geodesic._require``; a fold's SolverError names the failed
stage (``core._labelled``).  Every operator takes, as its 4th
argument, the ``SolverConfig`` the path solves take, and each of its
inner solves runs with it, damping included.

All operators take the path solve's optional constraint, a level set or
a ``LinearGauge``, seen through ``geodesic._constraint_view``.  A
displacement or point whose size differs from the base point's is a
DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscretePath, DomainError, EnergyModel, SolverError, _as_count, _labelled, _write_csv, as_path, as_point
from .geodesic import (
    ConstraintModel,
    LinearGauge,
    SolverConfig,
    _require,
    _solve_ladder,
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
    """The K rungs of a transport ladder along x_0 .. x_K, rung k in row k - 1
    of each (K, d) field: the parallelogram midpoint x_c, the completed
    corner x_p, and the transported displacement zeta = x_p - x_k.  Rung k
    starts from the corner before it, row k - 2 of x_p (x_0 + zeta_0 for k = 1)."""

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


def log2(
    x0, x2, model, cfg: SolverConfig | None = None, constraint: ConstraintModel | LinearGauge | None = None
) -> np.ndarray:
    """Displacement zeta with x0 + zeta the midpoint of the 2-geodesic to x2.

    This is the K = 2 path solve: grad2(x0, x1) + grad1(x1, x2) = 0 for the
    interior point x1 (tangentially, with a multiplier, when a constraint is
    given; the endpoints themselves are data and need not satisfy it),
    started from the midpoint (which the kernel projects onto a level set).
    """
    x0 = as_point(x0)
    x2 = _at_point(x2, x0)
    pts = np.stack([x0, (x0 + x2) / 2.0, x2])
    pts, _, res, _, converged = _solve_path(pts, model, constraint, cfg, "log2")
    _require(converged, res, "log2")
    return pts[1] - x0


def _exp_start(x, zeta, K):
    """Start x_j = x + j zeta (j = 0..K) of the exp solve."""
    return x + np.arange(K + 1)[:, None] * zeta


def exp2(
    x, zeta, model, cfg: SolverConfig | None = None, constraint: ConstraintModel | LinearGauge | None = None
) -> np.ndarray:
    """Endpoint x2 of the 2-geodesic whose midpoint displacement is zeta.

    This is the K = 2 shot of the path kernel, solved for x2 from
    x + 2 zeta (which the kernel projects onto a level set).
    """
    x = as_point(x)
    zeta = _at_point(zeta, x)
    pts = _exp_start(x, zeta, 2)
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
    K = 1 it is the plain difference x_b - x_a, with the endpoints checked
    as for any K.
    """
    xa = as_point(x_a)
    xb = _at_point(x_b, xa)
    result = solve_geodesic(xa, xb, K, model, cfg, constraint=constraint)
    _require(result.converged, result.residual, f"geodesic solve for the K={K} logarithm")
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
        with _labelled(f"extension step {j} failed: "):
            pts.append(exp2(pts[j - 2], pts[j - 1] - pts[j - 2], model, cfg, constraint))
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
    straight line x + j zeta.  If that solve fails at k >= 2 (it is less
    robust than the step-by-step extension on long or coarse shots), the
    path is extended one exp2 step at a time, whose errors are raised; at
    k = 1 there is no extension, and the solve's own error is raised.
    """
    x = as_point(x)
    zeta = _at_point(zeta, x)
    return _shoot(x, zeta, _exp_start(x, zeta, _as_count("k", k, 1)), model, cfg, constraint)


def _shoot(x, zeta, start, model, cfg, constraint) -> DiscretePath:
    """The whole exp solve of ``discrete_exp_path`` from the path ``start``.

    ``start`` has shape (k + 1, d), k >= 1, with start[0] = x and start[1]
    = x + zeta; the kernel projects its points x_2 .. x_k onto the level
    set if there is one.  The fold and the ``_near`` root test are those of
    ``discrete_exp_path``, whatever the start; at k = 1 there is no fold.
    """
    try:
        pts, _, _, _, converged = _solve_path(start, model, constraint, cfg, "exp path", shot=True)
    except (SolverError, DomainError):
        if len(start) == 2:  # no fold to hand the failure to
            raise
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
    """k-step discrete exponential of the displacement zeta at x (x itself at k = 0)."""
    k = _as_count("k", k, 0)
    return discrete_exp_path(x, zeta, max(k, 1), model, cfg, constraint)[k]


def transport_step(
    x_prev,
    x_next,
    zeta_prev,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
):
    """One geodesic-parallelogram rung carrying zeta from x_prev to x_next.

    Returns the transported displacement and the TransportTrace of this
    one-rung ladder, fields of shape (1, d).  The two inner solves are
    labeled rung-midpoint (the parallelogram center) and rung-completion
    (the opposite corner).
    """
    x_prev = as_point(x_prev)
    x_next = _at_point(x_next, x_prev)
    x_p_prev = x_prev + _at_point(zeta_prev, x_prev)
    with _labelled("rung-midpoint solve failed: "):
        x_c = x_p_prev + log2(x_p_prev, x_next, model, cfg, constraint)
    with _labelled("rung-completion solve failed: "):
        x_p = exp2(x_prev, x_c - x_prev, model, cfg, constraint)
    trace = TransportTrace(x_c[None], x_p[None], (x_p - x_next)[None])
    return trace.zeta[0], trace


def _transport_fold(path, zeta, model, cfg, constraint):
    """The ladder one transport_step rung at a time: its midpoints and corners, (K, d) each."""
    mid, corner = np.empty((2, len(path) - 1, zeta.size))
    for k in range(1, len(path)):
        with _labelled(f"transport step {k} failed: "):
            zeta, rung = transport_step(path[k - 1], path[k], zeta, model, cfg, constraint)
        mid[k - 1], corner[k - 1] = rung.x_c[0], rung.x_p[0]
    return mid, corner


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
    fold's errors are the ones raised.  Returns (zeta_K, trace), trace the
    ladder's TransportTrace, whose row k - 1 documents the k-th rung.
    """
    path = as_path(path)
    trace = _transport(path, _at_point(zeta_0, path[0]), None, model, cfg, constraint)
    return trace.zeta[-1], trace


def _transport(path, zeta_0, zetas, model, cfg, constraint) -> TransportTrace:
    """``parallel_transport`` of zeta_0 along the DiscretePath ``path``, its
    whole ladder started from the guesses ``zetas`` of ``_solve_ladder``.

    Returns the ladder's TransportTrace, its zeta the corners less x_1 ..
    x_K whether the whole solve or the fold found them.  The fold and the
    ``_near`` root test are those of ``parallel_transport``, whatever the start.
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
        mid, corner = _transport_fold(path, zeta_0, model, cfg, constraint)
    return TransportTrace(mid, corner, corner - pts[1:])


class _Reversed(EnergyModel):
    """The slot-swapped energy w'(x, y) = w(y, x) of ``model``."""

    def __init__(self, model):
        self._model = model

    def w_stacked(self, xs, ys):
        return self._model.w_stacked(ys, xs)

    def grads_stacked(self, xs, ys):
        return self._model.grads_stacked(ys, xs)[::-1]

    def hess_blocks_stacked(self, xs, ys):
        return self._model.hess_blocks_stacked(ys, xs)[::-1]


def inverse_transport(
    path,
    zeta_K,
    model,
    cfg: SolverConfig | None = None,
    constraint: ConstraintModel | LinearGauge | None = None,
) -> np.ndarray:
    """Pull a displacement at the path end back to the start.

    The inverse rung equations, solved for (c_k, p_{k-1}) from p_k, are the
    forward rung equations of the reversed energy w'(x, y) = w(y, x) along
    the reversed path, so this is the forward transport of zeta_K from the
    path end with w': its whole ladder, root test and fold.  Fold errors
    name the rung counted from the path end, the order it is solved in.
    """
    path = as_path(path)
    zeta = _at_point(zeta_K, path[0])
    with _labelled("inverse "):
        return _transport(DiscretePath(path.points[::-1]), zeta, None, _Reversed(model), cfg, constraint).zeta[-1]


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

    Pulls eta1 (attached at x + xi) back to x, one forward rung of the
    reversed energy from x + xi to x, and subtracts eta0.
    """
    x = as_point(x)
    xi, eta0, eta1 = (_at_point(v, x) for v in (xi, eta0, eta1))
    rung = DiscretePath(np.stack([x, x + xi]))
    return inverse_transport(rung, eta1, model, cfg, constraint) - eta0


def write_traces_csv(trace: TransportTrace, target) -> None:
    """Write a ladder's rungs as CSV rows ``k, x_c, x_p, zeta`` (one
    coordinate per column)."""
    d = trace.x_c.shape[1]
    header = ["k"] + [f"{name}_{i}" for name in ("xc", "xp", "zeta") for i in range(d)]
    _write_csv(target, header, enumerate(np.hstack([trace.x_c, trace.x_p, trace.zeta]), start=1))
