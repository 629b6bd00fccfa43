"""Discrete path energies and the bordered Newton solver behind every operator.

A discrete K-path (x_0, ..., x_K) carries the energy K * sum_k w(x_{k-1}, x_k)
and the length sum_k sqrt(w(x_{k-1}, x_k)).  A discrete geodesic is a
minimizer of the energy with fixed endpoints; its stationarity system

    grad2(x_{k-1}, x_k) + grad1(x_k, x_{k+1}) - J_k^T mu_k = 0,
    c_k(x_k) = 0,                                     k = 1..K-1,

is solved by Newton iteration.  ``c_k`` are optional per-interior-point
constraints with (c, d) Jacobians ``J_k`` and multipliers ``mu_k``: none
(c = 0), a linear gauge G x_k = t_k removing exact null directions of
translation-invariant energies (used by the rod models), or a level set
d(x_k) = 0 holding interior points on an embedded hypersurface (c = 1).
The Jacobian is block tridiagonal in (d + c)-blocks: the energy part has
A_kk = hess22(x_{k-1}, x_k) + hess11(x_k, x_{k+1}) - sum_i mu_k,i hess c_i,
A_k,k-1 = hess21(x_{k-1}, x_k), A_k,k+1 = hess12(x_k, x_{k+1}), bordered by
J_k; the linear solves use block Thomas elimination with dense pivots.

The residual and the Jacobian are built from arrays: each Newton step
makes one stacked ``grads_stacked`` call over all K segments per residual
and one ``hess_blocks_stacked`` call over the K-2 inner segments, plus
``hess22`` of the first segment and ``hess11`` of the last, the only blocks
of the end segments the system reads.  Path energies and lengths come
from one ``w_stacked`` call.  Models without native stacked methods, and
subclasses that redefine a per-point method, are evaluated by the
per-segment loop of ``core.EnergyModel``.

The same kernel at K = 2 is the two-point logarithm ``operators.log2``
(whose endpoints may lie off the level set), and the single Newton loop
here also drives the other solves of ``operators``.  Its whole-path exp
and ladder have block lower triangular Jacobians, which
``_forward_substitution`` solves; they see a constraint through the same
``_constraint_view`` as the path kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    DiscretePath,
    DomainError,
    InvariantViolation,
    SolverError,
    _write_csv,
    as_path,
    as_point,
    fd_jacobian,
)

__all__ = [
    "SolverConfig",
    "GeodesicResult",
    "ConstraintModel",
    "LinearGauge",
    "discrete_energy",
    "discrete_length",
    "el_residual",
    "solve_geodesic",
    "solve_geodesic_constrained",
    "project_onto_level_set",
    "write_result_csv",
]

_ARMIJO_C = 1e-4
# Armijo halving stops below this step length and takes the step anyway
_MIN_STEP = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Newton settings: residual sup-norm tolerance, iteration cap, damping."""

    newton_tol: float = 1e-10
    max_iter: int = 50
    damping: str = "none"  # "none" | "armijo"

    def __post_init__(self):
        if not 0 < self.newton_tol < np.inf:
            raise DomainError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if self.damping not in ("none", "armijo"):
            raise DomainError(f"unknown damping mode {self.damping!r}")


class ConstraintModel(ABC):
    """Level-set description of a hypersurface M = {d = 0}.

    ``d`` should be (close to) a signed distance near the zero set, so that
    ``grad_d`` has norm about 1 there.
    """

    fd_step: float = 1e-6

    @abstractmethod
    def d(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def grad_d(self, x: np.ndarray) -> np.ndarray: ...

    def hess_d(self, x: np.ndarray) -> np.ndarray:
        j = fd_jacobian(self.grad_d, np.asarray(x, dtype=float), self.fd_step)
        return (j + j.T) / 2.0


@dataclass(frozen=True)
class LinearGauge:
    """Per-interior-point linear constraints G x_k = targets[k-1].

    ``matrix`` has shape (c, d); ``targets`` has shape (K-1, c).  Used to pin
    energy-neutral directions (e.g. node-average position of a rod).
    """

    matrix: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class GeodesicResult:
    """Solved (or last-iterate) discrete path plus solver diagnostics."""

    path: DiscretePath
    energy: float
    length: float
    residual: float
    iterations: int
    converged: bool
    multipliers: np.ndarray | None = None


def _segment_w(model, pts) -> np.ndarray:
    """w(x_{k-1}, x_k) of every segment k = 1..K of ``pts``, one stacked call.

    On a DomainError the segments are evaluated one by one to name the
    first inadmissible one.
    """
    try:
        return np.asarray(model.w_stacked(pts[:-1], pts[1:]), dtype=float)
    except DomainError:
        for k in range(1, len(pts)):
            try:
                model.w(pts[k - 1], pts[k])
            except DomainError as err:
                raise DomainError(f"segment {k}: {err}") from err
        raise


def _length(ws) -> float:
    negative = np.flatnonzero(ws < -1e-12)
    if negative.size:
        k = int(negative[0])
        raise InvariantViolation(f"w < 0 on segment {k + 1}: {ws[k]}")
    return float(np.sum(np.sqrt(np.maximum(ws, 0.0))))


def discrete_energy(path, model) -> float:
    """Discrete path energy K * sum_k w(x_{k-1}, x_k)."""
    path = as_path(path)
    return path.step_count * float(np.sum(_segment_w(model, path.points)))


def discrete_length(path, model) -> float:
    """Discrete path length sum_k sqrt(w(x_{k-1}, x_k))."""
    return _length(_segment_w(model, as_path(path).points))


def el_residual(path, model) -> np.ndarray:
    """Stationarity residuals grad2(x_{k-1},x_k) + grad1(x_k,x_{k+1}).

    Returns an array of shape (K-1, d); its sup-norm vanishes exactly on
    interior-stationary paths with fixed endpoints.
    """
    path = as_path(path)
    if path.step_count < 2:
        raise DomainError("residual needs K >= 2")
    return _el_rows(model, path.points)


def _el_rows(model, pts) -> np.ndarray:
    g1, g2 = model.grads_stacked(pts[:-1], pts[1:])
    return g2[:-1] + g1[1:]


def _sup(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def _left_domain(context, err, res) -> SolverError:
    return SolverError(f"{context}: an iterate left the model's domain ({err})", residual=res)


def _newton(residual, step, z0, cfg: SolverConfig | None, context: str):
    """Newton iteration for residual(z) = 0 from z0.

    ``step(z, r)`` returns the Newton correction for r = residual(z); ``cfg``
    None means the default SolverConfig.  With ``cfg.damping == "armijo"``
    the correction is halved until 0.5 |r|^2 decreases sufficiently.  The
    residual is evaluated once per iterate.  Returns (z, sup-norm residual,
    iterations, converged).  A singular linear system, or a DomainError at
    an iterate the loop produced, raises SolverError with the last
    residual; a DomainError at z0 (the caller's input) propagates.
    """
    cfg = cfg or SolverConfig()
    z, r = z0, residual(z0)
    res = _sup(r)
    iterations = 0
    while res > cfg.newton_tol and iterations < cfg.max_iter:
        try:
            delta = step(z, r)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"{context}: singular block pivot ({err})", residual=res) from err
        except DomainError as err:
            if iterations == 0:
                raise
            raise _left_domain(context, err, res) from err
        t = 1.0
        while True:
            trial = z - t * delta
            last = cfg.damping != "armijo" or t <= _MIN_STEP
            try:
                r_trial = residual(trial)
            except DomainError as err:
                if last:
                    raise _left_domain(context, err, res) from err
            else:
                if last or np.sum(r_trial**2) <= (1.0 - 2.0 * _ARMIJO_C * t) * np.sum(r**2):
                    break
            t *= 0.5
        z, r = trial, r_trial
        res = _sup(r)
        iterations += 1
    return z, res, iterations, res <= cfg.newton_tol


def _block_thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a block tridiagonal system by forward elimination.

    ``diag`` has shape (n, b, b) and ``rhs`` (n, b); ``lower`` and ``upper``
    have shape (n-1, b, b): ``lower[i]`` couples row i+1 to block i, and
    ``upper[i]`` couples row i to block i+1.
    """
    n, b = rhs.shape
    # row i of the eliminated system reads x_i + C_i x_{i+1} = d_i, and
    # cd[i] holds [C_i | d_i]; one solve per pivot gives both
    cd = np.zeros((n, b, b + 1))
    cd[:-1, :, :b] = upper
    cd[:, :, b] = rhs
    cd[0] = np.linalg.solve(diag[0], cd[0])
    for i in range(1, n):
        coupled = lower[i - 1] @ cd[i - 1]
        cd[i, :, b] -= coupled[:, b]
        cd[i] = np.linalg.solve(diag[i] - coupled[:, :b], cd[i])
    sol = np.empty((n, b))
    sol[n - 1] = cd[n - 1, :, b]
    for i in range(n - 2, -1, -1):
        sol[i] = cd[i, :, b] - cd[i, :, :b] @ sol[i + 1]
    return sol


def _forward_substitution(diag, bands, rhs) -> np.ndarray:
    """Solve a block lower triangular system by forward substitution.

    ``diag`` has shape (n, b, b) and ``rhs`` (n, b); ``bands[m - 1]`` has
    shape (n - m, b, b), and its block i couples row i + m to unknown i.
    The diagonal blocks are inverted in one stacked call and the bands are
    premultiplied by them, so each of the n steps is a few small matvecs.
    """
    inv = np.linalg.inv(diag)
    sol = (inv @ rhs[..., None])[..., 0]
    scaled = [inv[m:] @ band for m, band in enumerate(bands, start=1)]
    for i in range(1, len(sol)):
        for m, band in enumerate(scaled[:i], start=1):
            sol[i] -= band[i - m] @ sol[i - m]
    return sol


@dataclass(frozen=True)
class _Constraint:
    """A constraint as the kernels see it on a stack x of n points, shape (n, d).

    ``values(x)`` has shape (n, c), ``jac(x)`` shape (n, c, d), and
    ``hess(x, mu)`` is sum_i mu[:, i] hess c_i(x), shape (n, d, d), or 0.0
    where it vanishes.  A LinearGauge reads the stack as the K - 1 interior
    points of a path; a level set is evaluated point by point.
    """

    c: int
    values: Callable
    jac: Callable
    hess: Callable


def _constraint_view(constraint, K: int, d: int) -> _Constraint:
    """View of no constraint (c = 0), a LinearGauge, or a level set (c = 1)."""
    if constraint is None:
        return _Constraint(
            0, lambda x: np.zeros((len(x), 0)), lambda x: np.zeros((len(x), 0, d)), lambda x, mu: 0.0
        )
    if isinstance(constraint, LinearGauge):
        g = np.asarray(constraint.matrix, dtype=float)
        targets = np.asarray(constraint.targets, dtype=float)
        if targets.shape != (K - 1, g.shape[0]):
            raise DomainError("gauge targets must have shape (K-1, c)")
        return _Constraint(
            g.shape[0],
            lambda x: x @ g.T - targets,
            lambda x: np.broadcast_to(g, (len(x),) + g.shape),
            lambda x, mu: 0.0,
        )
    return _Constraint(
        1,
        lambda x: np.array([float(constraint.d(p)) for p in x]).reshape(len(x), 1),
        lambda x: np.array([np.asarray(constraint.grad_d(p), dtype=float) for p in x]).reshape(len(x), 1, d),
        lambda x, mu: np.array([m[0] * np.asarray(constraint.hess_d(p)) for p, m in zip(x, mu)]).reshape(
            len(x), d, d
        ),
    )


def _multiplier_rows(mu, jac) -> np.ndarray:
    """Rows mu_k^T J_k of a stack of multipliers (n, c) and Jacobians (n, c, d)."""
    return np.einsum("nc,ncd->nd", mu, jac)


def _solve_path(pts, model, constraint, cfg: SolverConfig | None, context: str):
    """Newton solve for the interior points of ``pts`` (shape (K+1, d), K >= 2).

    ``constraint`` is None, a LinearGauge, or a ConstraintModel; the
    endpoints stay fixed and need not satisfy it.  Returns (points,
    multipliers of shape (K-1, c), residual, iterations, converged).
    """
    K, d = len(pts) - 1, pts.shape[1]
    view = _constraint_view(constraint, K, d)
    c = view.c
    b = d + c

    # z holds the path and the multipliers, one row per point; Newton
    # corrections of the endpoint rows are zero
    def residual(z):
        x = z[:, :d]
        rows = _el_rows(model, x)
        if not c:
            return rows
        inner = x[1:K]
        return np.hstack([rows - _multiplier_rows(z[1:K, d:], view.jac(inner)), view.values(inner)])

    def step(z, r):
        # segment k joins x_{k-1} and x_k, and row k - 1 of the block arrays
        # belongs to the interior point x_k.  Block Thomas reads only
        # hess22 of the first segment and hess11 of the last, so those two
        # are evaluated alone, and the K-2 inner segments in one stacked
        # call.  The energy blocks fill the top left d x d of each block.
        x = z[:, :d]
        diag = np.zeros((K - 1, b, b))
        lower = np.zeros((K - 2, b, b))
        upper = np.zeros((K - 2, b, b))
        a = diag[:, :d, :d]
        a[0] = model.hess22(x[0], x[1])
        if K > 2:
            h11, h12, h21, h22 = model.hess_blocks_stacked(x[1 : K - 1], x[2:K])
            a[1:] = h22
            a[:-1] += h11
            lower[:, :d, :d] = h21
            upper[:, :d, :d] = h12
        a[-1] += model.hess11(x[K - 1], x[K])
        if c:
            jac = view.jac(x[1:K])
            a -= view.hess(x[1:K], z[1:K, d:])
            diag[:, :d, d:] = -np.swapaxes(jac, 1, 2)
            diag[:, d:, :d] = jac
        delta = np.zeros_like(z)
        delta[1:K] = _block_thomas(lower, diag, upper, r)
        return delta

    z0 = np.hstack([pts, np.zeros((K + 1, c))])
    z, res, iterations, converged = _newton(residual, step, z0, cfg, context)
    return z[:, :d], z[1:K, d:], res, iterations, converged


def _linear_init(xa, xb, K):
    return np.linspace(0.0, 1.0, K + 1)[:, None] * (xb - xa)[None, :] + xa[None, :]


def _result(model, pts, residual, iterations, converged, multipliers=None):
    path = DiscretePath(pts)
    ws = _segment_w(model, path.points)
    return GeodesicResult(
        path=path,
        energy=path.step_count * float(np.sum(ws)),
        length=_length(ws),
        residual=residual,
        iterations=iterations,
        converged=converged,
        multipliers=multipliers,
    )


def _solve(x_a, x_b, K, model, constraint, cfg, init_path) -> GeodesicResult:
    """Body of both public solves; ``constraint`` is None, a gauge or a level set."""
    xa = as_point(x_a)
    xb = as_point(x_b)
    if xa.size != xb.size:
        raise DomainError("endpoint dimensions differ")
    if K < 1:
        raise DomainError("K must be at least 1")
    level_set = isinstance(constraint, ConstraintModel)
    if level_set:
        for label, p in (("x_a", xa), ("x_b", xb)):
            if abs(float(constraint.d(p))) > 1e-10:
                raise DomainError(f"endpoint {label} is off the level set: d = {constraint.d(p)}")

    if init_path is not None:
        pts = np.array(as_path(init_path).points)
        if pts.shape != (K + 1, xa.size):
            raise DomainError("init path has wrong shape")
        pts[0], pts[K] = xa, xb
    else:
        pts = _linear_init(xa, xb, K)
        _project_rows(pts[1:K], constraint)

    if K == 1:
        return _result(model, pts, 0.0, 0, True, np.zeros(0) if level_set else None)
    pts, mu, res, iterations, converged = _solve_path(pts, model, constraint, cfg, "geodesic solve")
    return _result(model, pts, res, iterations, converged, mu[:, 0] if level_set else None)


def solve_geodesic(
    x_a,
    x_b,
    K: int,
    model,
    cfg: SolverConfig | None = None,
    *,
    init_path=None,
    gauge: LinearGauge | None = None,
) -> GeodesicResult:
    """Solve the discrete geodesic boundary-value problem.

    Endpoints are fixed; the K-1 interior points are found by Newton
    iteration on the stationarity system with block Thomas linear solves.
    Non-convergence is reported through ``converged=False`` on the result,
    which then carries the last iterate.  An iterate outside the model's
    domain raises SolverError.
    """
    return _solve(x_a, x_b, K, model, gauge, cfg, init_path)


def project_onto_level_set(
    x, constraint: ConstraintModel, tol: float = 1e-12, max_iter: int = 50
) -> np.ndarray:
    """Newton projection of a point onto {d = 0} along grad_d."""
    p = as_point(x)
    for _ in range(max_iter):
        val = float(constraint.d(p))
        if abs(val) <= tol:
            return p
        g = np.asarray(constraint.grad_d(p), dtype=float)
        p = p - val * g / float(g @ g)
    raise SolverError(
        f"level-set projection did not reach |d| <= {tol}", residual=abs(val)
    )


def _project_rows(x, constraint) -> None:
    """Project each row of the stack x onto the level set, in place.

    Does nothing unless ``constraint`` is a ConstraintModel.
    """
    if isinstance(constraint, ConstraintModel):
        for i, p in enumerate(x):
            x[i] = project_onto_level_set(p, constraint)


def solve_geodesic_constrained(
    x_a,
    x_b,
    K: int,
    model,
    constraint: ConstraintModel | None,
    cfg: SolverConfig | None = None,
    *,
    init_path=None,
) -> GeodesicResult:
    """Discrete geodesic between points of the hypersurface {d = 0}.

    The KKT system couples the stationarity residual, one multiplier per
    interior point, and the constraint values; it is solved by Newton with
    block Thomas elimination on (d+1)-blocks.  Endpoints must satisfy
    |d| <= 1e-10.  With ``constraint=None`` this is ``solve_geodesic``.
    """
    return _solve(x_a, x_b, K, model, constraint, cfg, init_path)


def write_result_csv(result: GeodesicResult, target) -> None:
    """Write the solved path as CSV rows ``k, x_0, ..., x_{d-1}``."""
    path = result.path
    header = ["k"] + [f"x_{i}" for i in range(path.dim)]
    _write_csv(target, header, enumerate(path.points))
