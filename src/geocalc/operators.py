"""Discrete logarithm, exponential, parallel transport, and connection.

The two-point building blocks are

* ``log2(x0, x2)``: the displacement to the interior point of the 2-step
  geodesic between x0 and x2, i.e. the minimizer of
  w(x0, x1) + w(x1, x2); it is the K = 2 call of the path kernel in
  ``geodesic``, and
* ``exp2(x, zeta)``: the inverse problem, the endpoint x2 for which
  x + zeta is that interior point; its stationarity equation is
  grad2(x, x+zeta) + grad1(x+zeta, x2) = 0.

Every Newton solve here (exp2, its hypersurface variant, and the rung
start of inverse transport) runs the one Newton loop of ``geodesic``, with
``OpConfig.solver`` as its settings, damping included.

On top of these sit the K-step logarithm (first increment of the solved
boundary-value geodesic), the recursive exponential, a Schild's-ladder
style parallel transport (one geodesic parallelogram per path segment),
its inverse, and a finite-difference connection.

All operators accept an optional level-set constraint; the inner solves
then keep their variational points on the hypersurface via a Lagrange
multiplier.  Inverse transport with a constraint additionally requires a
symmetric energy (it is then the forward transport along the reversed
path, which satisfies the same stationarity equations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DiscretePath, DomainError, SolverError, _write_csv, as_path, as_point
from .geodesic import (
    ConstraintModel,
    SolverConfig,
    _constraint_view,
    _newton,
    _solve_path,
    _sup,
    project_onto_level_set,
    solve_geodesic_constrained,
)

__all__ = [
    "OpConfig",
    "TransportTrace",
    "log2",
    "exp2",
    "exp2_hypersurface",
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
class OpConfig:
    """Settings for the embedded two-point solves.

    ``solver`` drives every inner Newton solve.  ``method`` selects how
    exp2 is computed: Newton on the stationarity equation (default) or the
    contraction x2 -> x2 + zeta - log2(x, x2) iterated to
    ``fixed_point_tol``.
    """

    solver: SolverConfig = field(default_factory=SolverConfig)
    fixed_point_tol: float = 1e-12
    method: str = "newton"

    def __post_init__(self):
        if self.fixed_point_tol <= 0:
            raise DomainError("fixed_point_tol must be positive")
        if self.method not in ("newton", "fixed_point"):
            raise DomainError(f"unknown exp2 method {self.method!r}")


@dataclass(frozen=True)
class TransportTrace:
    """One rung of the transport ladder: x_p_prev = x_{k-1} + zeta_{k-1},
    the parallelogram midpoint x_c, the completed corner x_p, and the
    transported displacement zeta = x_p - x_k."""

    x_p_prev: np.ndarray
    x_c: np.ndarray
    x_p: np.ndarray
    zeta: np.ndarray


def _bordered(a, left, right):
    """Newton block [[a, -left^T], [right, 0]] for c = len(right) constraint rows."""
    c = len(right)
    if not c:
        return a
    d = len(a)
    out = np.zeros((d + c, d + c))
    out[:d, :d] = a
    out[:d, d:] = -left.T
    out[d:, :d] = right
    return out


def _require(converged: bool, res: float, context: str) -> None:
    if not converged:
        raise SolverError(f"{context}: no convergence, last residual {res:.3e}", residual=res)


def log2(x0, x2, model, cfg: OpConfig | None = None, constraint: ConstraintModel | None = None) -> np.ndarray:
    """Displacement zeta with x0 + zeta the midpoint of the 2-geodesic to x2.

    This is the K = 2 path solve: grad2(x0, x1) + grad1(x1, x2) = 0 for the
    interior point x1 (tangentially, with a multiplier, when a constraint is
    given; the endpoints themselves are data and need not satisfy it),
    started from the midpoint, projected onto the level set if there is one.
    """
    cfg = cfg or OpConfig()
    x0 = as_point(x0)
    x2 = as_point(x2)
    x1 = (x0 + x2) / 2.0
    if constraint is not None:
        x1 = project_onto_level_set(x1, constraint)
    pts, _, res, _, converged = _solve_path(
        np.stack([x0, x1, x2]), model, constraint, cfg.solver, "log2"
    )
    _require(converged, res, "log2")
    return pts[1] - x0


def exp2(x, zeta, model, cfg: OpConfig | None = None, constraint: ConstraintModel | None = None) -> np.ndarray:
    """Endpoint x2 of the 2-geodesic whose midpoint displacement is zeta."""
    cfg = cfg or OpConfig()
    x = as_point(x)
    zeta = as_point(zeta)
    if zeta.size != x.size:
        raise DomainError("displacement dimension differs from point dimension")
    x1 = x + zeta
    d = x.size
    x2 = x + 2.0 * zeta
    if constraint is not None:
        x2 = project_onto_level_set(x2, constraint)

    if cfg.method == "fixed_point":
        for _ in range(500):
            x2_new = x2 + zeta - log2(x, x2, model, cfg, constraint)
            if constraint is not None:
                x2_new = project_onto_level_set(x2_new, constraint)
            change = _sup(x2_new - x2)
            if change < cfg.fixed_point_tol:
                return x2_new
            x2 = x2_new
        raise SolverError(
            f"exp2 fixed-point iteration did not converge, last step {change:.3e}",
            residual=change,
        )

    # unknowns: x2 and the multipliers of the constraint on x2, which act
    # along the constraint gradient at x1
    view = _constraint_view(constraint, 2, d)
    g2_fixed = np.asarray(model.grad2(x, x1))
    jac1 = view.jac(x1)

    def residual(z):
        x2 = z[:d]
        stat = g2_fixed + np.asarray(model.grad1(x1, x2)) - z[d:] @ jac1
        return np.concatenate([stat, view.values(1, x2)])

    def step(z, r):
        x2 = z[:d]
        return np.linalg.solve(_bordered(np.asarray(model.hess12(x1, x2)), jac1, view.jac(x2)), r)

    z0 = np.concatenate([x2, np.zeros(view.c)])
    z, res, _, converged = _newton(residual, step, z0, cfg.solver, "exp2")
    _require(converged, res, "exp2")
    return z[:d]


def exp2_hypersurface(x, zeta, model, constraint: ConstraintModel, cfg: OpConfig | None = None) -> np.ndarray:
    """Geometric exp2 for the spring energy on a hypersurface.

    For w = |y - x|^2 the stationarity condition says zeta and the closing
    displacement differ by a multiple of the normal at x + zeta, so the
    endpoint is x + 2 zeta - c n with the scalar c fixed by d(x2) = 0.
    """
    cfg = cfg or OpConfig()
    if not model.symmetric:
        raise DomainError("the one-dimensional exp2 search requires the spring energy")
    x = as_point(x)
    zeta = as_point(zeta)
    x1 = x + zeta
    n = np.asarray(constraint.grad_d(x1), dtype=float)
    n = n / np.linalg.norm(n)

    def residual(c):
        return np.asarray([float(constraint.d(x1 + zeta - c[0] * n))])

    def step(c, r):
        g = np.asarray(constraint.grad_d(x1 + zeta - c[0] * n))
        return np.linalg.solve(np.asarray([[-float(g @ n)]]), r)

    c, res, _, converged = _newton(residual, step, np.zeros(1), cfg.solver, "exp2 hypersurface")
    _require(converged, res, "exp2 hypersurface")
    return x1 + zeta - c[0] * n


def discrete_log(
    x_a,
    x_b,
    K: int,
    model,
    cfg: OpConfig | None = None,
    constraint: ConstraintModel | None = None,
) -> np.ndarray:
    """First increment x_1 - x_0 of the K-step geodesic from x_a to x_b.

    K times this displacement approximates the Riemannian logarithm.  For
    K = 1 it is the plain difference x_b - x_a.
    """
    cfg = cfg or OpConfig()
    xa = as_point(x_a)
    xb = as_point(x_b)
    if K == 1:
        return xb - xa
    result = solve_geodesic_constrained(xa, xb, K, model, constraint, cfg.solver)
    if not result.converged:
        raise SolverError(
            f"geodesic solve for the K={K} logarithm did not converge",
            residual=result.residual,
        )
    return result.path[1] - result.path[0]


def discrete_exp_path(
    x,
    zeta,
    k: int,
    model,
    cfg: OpConfig | None = None,
    constraint: ConstraintModel | None = None,
) -> DiscretePath:
    """All points x_0 .. x_k of the recursively extended geodesic.

    x_0 = x, x_1 = x + zeta, and each further point solves the exp2
    problem seeded with the previous increment.
    """
    cfg = cfg or OpConfig()
    x = as_point(x)
    zeta = as_point(zeta)
    if k < 1:
        raise DomainError("need k >= 1 for a path")
    pts = [x, x + zeta]
    for j in range(2, k + 1):
        try:
            pts.append(exp2(pts[j - 2], pts[j - 1] - pts[j - 2], model, cfg, constraint))
        except SolverError as err:
            raise SolverError(f"extension step {j} failed: {err}", residual=err.residual) from err
    return DiscretePath(np.stack(pts))


def discrete_exp(
    x,
    zeta,
    k: int,
    model,
    cfg: OpConfig | None = None,
    constraint: ConstraintModel | None = None,
) -> np.ndarray:
    """k-step discrete exponential of the displacement zeta at x."""
    x = as_point(x)
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return x
    if k == 1:
        return x + as_point(zeta)
    return discrete_exp_path(x, zeta, k, model, cfg, constraint)[k]


def transport_step(
    x_prev,
    x_next,
    zeta_prev,
    model,
    cfg: OpConfig | None = None,
    constraint: ConstraintModel | None = None,
):
    """One geodesic-parallelogram rung carrying zeta from x_prev to x_next.

    Returns the transported displacement and the rung trace.  The two inner
    solves are labeled rung-midpoint (the parallelogram center) and
    rung-completion (the opposite corner).
    """
    cfg = cfg or OpConfig()
    x_prev = as_point(x_prev)
    x_next = as_point(x_next)
    zeta_prev = as_point(zeta_prev)
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


def parallel_transport(
    path,
    zeta_0,
    model,
    cfg: OpConfig | None = None,
    constraint: ConstraintModel | None = None,
):
    """Fold the ladder rung over every segment of the path.

    Returns (zeta_K, traces); traces[k-1] documents the k-th rung.
    """
    cfg = cfg or OpConfig()
    path = as_path(path)
    zeta = as_point(zeta_0)
    if zeta.size != path.dim:
        raise DomainError("displacement dimension differs from path dimension")
    traces = []
    for k in range(1, len(path)):
        try:
            zeta, trace = transport_step(path[k - 1], path[k], zeta, model, cfg, constraint)
        except SolverError as err:
            raise SolverError(f"transport step {k} failed: {err}", residual=err.residual) from err
        traces.append(trace)
    return zeta, traces


def _invert_rung(x_prev, x_next, zeta_next, model, cfg, context):
    """Recover zeta_prev from zeta_next on one rung (unconstrained).

    The second ladder equation determines the midpoint alone, so the
    coupled system is block triangular and is solved in two stages: first
    the midpoint, then the rung start point.
    """
    x_c = x_prev + log2(x_prev, x_next + zeta_next, model, cfg)
    g1_fixed = np.asarray(model.grad1(x_c, x_next))

    def residual(y):
        return np.asarray(model.grad2(y, x_c)) + g1_fixed

    def step(y, r):
        return np.linalg.solve(np.asarray(model.hess21(y, x_c)), r)

    context = f"{context}: rung start"
    y, res, _, converged = _newton(residual, step, 2.0 * x_c - x_next, cfg.solver, context)
    _require(converged, res, context)
    return y - x_prev


def inverse_transport(
    path,
    zeta_K,
    model,
    cfg: OpConfig | None = None,
    constraint: ConstraintModel | None = None,
) -> np.ndarray:
    """Pull a displacement at the path end back to the start.

    Solves the same rung equations as the forward transport, with the
    unknowns swapped.  With a constraint the rung inversion is carried out
    as forward transport along the reversed path, which requires a
    symmetric energy.
    """
    cfg = cfg or OpConfig()
    path = as_path(path)
    zeta = as_point(zeta_K)
    if constraint is not None:
        if not model.symmetric:
            raise DomainError(
                "inverse transport on a hypersurface needs a symmetric energy"
            )
        reversed_path = DiscretePath(np.array(path.points[::-1]))
        z0, _ = parallel_transport(reversed_path, zeta, model, cfg, constraint)
        return z0
    for k in range(len(path) - 1, 0, -1):
        try:
            zeta = _invert_rung(path[k - 1], path[k], zeta, model, cfg, f"inverse rung {k}")
        except SolverError as err:
            raise SolverError(f"inverse transport step {k} failed: {err}", residual=err.residual) from err
    return zeta


def discrete_connection(
    x,
    xi,
    eta0,
    eta1,
    model,
    cfg: OpConfig | None = None,
    constraint: ConstraintModel | None = None,
) -> np.ndarray:
    """Finite-difference covariant derivative from one-rung inverse transport.

    Pulls eta1 (attached at x + xi) back to x and subtracts eta0.
    """
    x = as_point(x)
    xi = as_point(xi)
    rung = DiscretePath(np.stack([x, x + xi]))
    pulled = inverse_transport(rung, as_point(eta1), model, cfg, constraint)
    return pulled - as_point(eta0)


def write_traces_csv(traces, target) -> None:
    """Write ladder rungs as CSV rows ``k, x_c, x_p, zeta`` (one coordinate
    per column)."""
    if not traces:
        raise DomainError("no traces to write")
    d = traces[0].x_c.size
    header = ["k"] + [f"{name}_{i}" for name in ("xc", "xp", "zeta") for i in range(d)]
    rows = ((k, [*tr.x_c, *tr.x_p, *tr.zeta]) for k, tr in enumerate(traces, start=1))
    _write_csv(target, header, rows)
