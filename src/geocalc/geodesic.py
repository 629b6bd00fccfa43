"""Discrete path energies and the bordered Newton kernels behind every operator.

A discrete K-path (x_0, ..., x_K) carries the energy K * sum_k w(x_{k-1}, x_k)
and the length sum_k sqrt(w(x_{k-1}, x_k)).  The discrete geodesic (x_0
and x_K given) and the discrete exponential (x_0 and x_1 given) both
solve the Euler-Lagrange rows

    grad2(x_{k-1}, x_k) + grad1(x_k, x_{k+1}) - J_k^T mu_k = 0,   k = 1..K-1,

with a constraint row for each of the K-1 unknown points.  ``_solve_path``
solves them by Newton iteration for either window of unknowns: x_1 ..
x_{K-1} (the geodesic, and ``operators.log2`` at K = 2) or x_2 .. x_K
(``discrete_exp_path``, and ``exp2`` at K = 2).  The constraint is none
(c = 0), a linear gauge G x_k = t_k, t_k where a flat path puts G x_k,
removing exact null directions of translation-invariant energies (the
rods), or a level set d(x) = 0 holding the points on an embedded
hypersurface (c = 1), with (c, d) Jacobians ``J_k`` and multipliers
``mu_k``.  Row k reads x_{k-1}, x_k, x_{k+1} by the d x d blocks
hess21(x_{k-1}, x_k), hess22(x_{k-1}, x_k) + hess11(x_k, x_{k+1}) -
sum_i mu_k,i hess c_i(x_k), and hess12(x_k, x_{k+1}); the one by the
row's own unknown, bordered by the Jacobians, is its pivot (``_bordered``).

For the interior window the system is block tridiagonal in time, for the
shifted window block lower triangular; ``thomas._block_thomas`` and
``thomas._forward_substitution`` solve them.  A model with banded blocks
(``hess_bands_stacked``, the rods) has the interior window solved in node
order instead (``thomas._node_thomas``), ungauged or gauged, at a cost
linear in the node count N, while K times its band half-width ``reach``
is at most N; past that, time order is the faster one.

Schild's-ladder transport (``operators.parallel_transport``) is one
Newton solve over every rung's midpoint c_k and corner p_k together
(``_solve_ladder``).  Each rung is two block rows of the size of one
point and its multipliers, each reading only itself and the row before,
so the system is block lower bidiagonal, as small per row as the exp's,
and ``thomas._forward_substitution`` solves it.  The inverse transport is
this ladder for the reversed energy, so the kernel has one window.

Both kernels run the one Newton loop, ``_newton``; ``_require`` raises
the one SolverError of a solve that must converge and did not.

Each Newton step makes one stacked ``grads_stacked`` call over all K
segments per residual and one ``hess_blocks_stacked`` call (in node order
``hess_bands_stacked``) per Jacobian, over the segments whose blocks the
rows read: all K for the interior, segments 2..K for the shifted window.
Path energies and lengths come from one ``w_stacked`` call.  The stacked
methods are the only ones a model implements (``core.EnergyModel``).

A level set is evaluated the same way: one ``d_stacked`` and one
``grad_d_stacked`` call per residual (the ladder's over midpoints and
corners together), and one ``hess_d_stacked`` call per Jacobian, which
reuses the gradients, and the ladder's segments, of the residual at its
iterate (``ConstraintModel``).  Each kernel projects all unknowns of its
start onto the level set itself, by one masked Newton iteration
(``_project_rows``) in which each row stops on its own.  A level-set geodesic with no ``init_path``
starts near the discrete one, whose segment energies are equal: the
projected straight line has its interior moved to K equal steps of its
length (``_equal_chords``), which the kernel projects again.  A level
set's multipliers start at the least-squares estimate mu_k = J_k .
rows_k / |J_k|^2 from the start's Euler-Lagrange rows, a gauge's at 0;
the first residual sets them from its own rows and gradients, so a start
is evaluated once.
"""

from __future__ import annotations

import numbers
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    DiscretePath,
    DomainError,
    InvariantViolation,
    SolverError,
    _as_count,
    _one,
    _write_csv,
    as_path,
    as_point,
)
from .thomas import _block_thomas, _forward_substitution, _node_thomas

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
        tol = self.newton_tol  # a bool is an int; a string compares with no number
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:
            raise DomainError(f"newton_tol must be positive and finite, got {tol!r}")
        _as_count("max_iter", self.max_iter, 1)
        if self.damping not in ("none", "armijo"):
            raise DomainError(f"unknown damping mode {self.damping!r}")


class ConstraintModel(ABC):
    """Level-set description of a hypersurface M = {d = 0}.

    ``d`` should be (close to) a signed distance near the zero set, so that
    ``grad_d`` has norm about 1 there.

    A model implements stacked evaluation only: ``d_stacked``,
    ``grad_d_stacked`` and ``hess_d_stacked`` take a stack xs of n points,
    shape (n, d), and return d, its gradient and its Hessian at each point,
    stacked along a leading axis: shapes (n,), (n, d) and (n, d, d).  The
    per-point methods ``d``, ``grad_d`` and ``hess_d`` are views of a stack
    of one.
    """

    @abstractmethod
    def d_stacked(self, xs) -> np.ndarray:
        """d at each point of xs, shape (n,)."""

    @abstractmethod
    def grad_d_stacked(self, xs) -> np.ndarray:
        """grad_d at each point of xs, shape (n, d)."""

    @abstractmethod
    def hess_d_stacked(self, xs) -> np.ndarray:
        """hess_d at each point of xs, shape (n, d, d)."""

    def d(self, x) -> float:
        return float(self.d_stacked(_one(x))[0])

    def grad_d(self, x) -> np.ndarray:
        return self.grad_d_stacked(_one(x))[0]

    def hess_d(self, x) -> np.ndarray:
        return self.hess_d_stacked(_one(x))[0]


@dataclass(frozen=True)
class LinearGauge:
    """Linear constraints G x = t on every unknown point of a solve.

    ``matrix`` G has shape (c, d), its rows energy-neutral directions (e.g.
    the node-average position of a rod); it is stored as a float array, and
    one that is not both finite and 2-d is a DomainError.  Each solve sets the
    targets t from its given points, where a flat-space solve would put G x.
    """

    matrix: np.ndarray

    def __post_init__(self):
        try:
            g = np.array(self.matrix, dtype=float)
        except (TypeError, ValueError) as err:
            raise DomainError(f"a gauge matrix must be numeric ({err})") from err
        if g.ndim != 2 or not np.all(np.isfinite(g)):
            raise DomainError(f"a gauge matrix must be finite and 2-d, got shape {g.shape}")
        object.__setattr__(self, "matrix", g)


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


def _require(converged: bool, res: float, context: str) -> None:
    if not converged:
        raise SolverError(f"{context}: no convergence, last residual {res:.3e}", residual=res)


def _left_domain(context, err, res) -> SolverError:
    return SolverError(f"{context}: an iterate left the model's domain ({err})", residual=res)


def _diverged(context, what, iteration, res) -> SolverError:
    return SolverError(
        f"{context}: diverged, the {what} of iteration {iteration} is not finite"
        f" (last finite residual {res:.3e})",
        residual=res,
    )


def _newton(residual, step, z0, cfg: SolverConfig | None, context: str):
    """Newton iteration for residual(z) = 0 from z0.

    ``step(z, r)`` returns the Newton correction for r = residual(z), and is
    called only at the iterate of the last residual evaluation; ``cfg``
    None means the default SolverConfig.  With ``cfg.damping == "armijo"``
    the correction is halved until 0.5 |r|^2 decreases sufficiently.  The
    residual is evaluated once per iterate.  The tolerance is absolute, so
    a start already within it but with a nonzero residual still takes one
    step; only an exact start (residual 0) takes none.  Returns (z,
    sup-norm residual, iterations, converged).  A singular linear system, a
    correction or an iterate's residual that is not finite (divergence), or
    a DomainError at an iterate the loop produced, raises SolverError with
    the last finite residual; a DomainError at z0 (the caller's input)
    propagates.  The loop evaluates its iterates with overflow and
    invalid-operation warnings off, since divergence is reported as an
    error instead.
    """
    cfg = cfg or SolverConfig()
    z, r = z0, residual(z0)
    res = _sup(r)
    if not np.isfinite(res):
        raise SolverError(f"{context}: the residual at the start point is not finite", residual=res)
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        # a nonzero residual gets one step even below the tolerance, which is
        # absolute, however small the rows are
        while (res > cfg.newton_tol or (res > 0.0 and not iterations)) and iterations < cfg.max_iter:
            try:
                delta = step(z, r)
            except np.linalg.LinAlgError as err:
                raise SolverError(f"{context}: singular block pivot ({err})", residual=res) from err
            except DomainError as err:
                if iterations == 0:
                    raise
                raise _left_domain(context, err, res) from err
            if not np.all(np.isfinite(delta)):
                raise _diverged(context, "Newton correction", iterations + 1, res)
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
            res_trial = _sup(r_trial)
            if not np.isfinite(res_trial):
                raise _diverged(context, "residual", iterations + 1, res)
            z, r, res = trial, r_trial, res_trial
            iterations += 1
    return z, res, iterations, res <= cfg.newton_tol


@dataclass(frozen=True)
class _Constraint:
    """A constraint as the kernels see it on a stack x of n points, shape (n, d).

    ``values(x)`` has shape (n, c), ``jac(x)`` shape (n, c, d), and ``hess(x)``
    (n, c, d, d), the Hessians of c, is None for a linear constraint.  A
    LinearGauge reads the stack as the points its targets belong to; a level
    set is evaluated by one stacked call of its ``d_stacked``,
    ``grad_d_stacked`` or ``hess_d_stacked``.
    """

    c: int
    values: Callable
    jac: Callable
    hess: Callable | None


def _constraint_view(constraint, targets: Callable, d: int) -> _Constraint:
    """View of no constraint (c = 0), a LinearGauge, or a level set (c = 1).

    ``targets(g)`` gives a gauge's targets G x = t from its matrix g, one
    row per point of the stacks the view will see.  Any other constraint
    is a TypeError, and a gauge of another width than d a DomainError.
    """
    if constraint is None:
        return _Constraint(0, lambda x: np.zeros((len(x), 0)), lambda x: np.zeros((len(x), 0, d)), None)
    if isinstance(constraint, LinearGauge):
        g = constraint.matrix
        if g.shape[1] != d:
            raise DomainError(f"the gauge acts on points of dimension {g.shape[1]}, got points of dimension {d}")
        t = targets(g)
        return _Constraint(
            g.shape[0],
            lambda x: x @ g.T - t,
            lambda x: np.broadcast_to(g, (len(x),) + g.shape),
            None,
        )
    if not isinstance(constraint, ConstraintModel):
        raise TypeError(f"constraint must be None, a LinearGauge or a ConstraintModel, got {type(constraint).__name__}")
    return _Constraint(
        1,
        lambda x: np.reshape(constraint.d_stacked(x), (len(x), 1)),
        lambda x: np.reshape(constraint.grad_d_stacked(x), (len(x), 1, d)),
        lambda x: np.reshape(constraint.hess_d_stacked(x), (len(x), 1, d, d)),
    )


def _weighted(mu, stack) -> np.ndarray:
    """sum_i mu[:, i] stack[:, i], multipliers (n, c), Jacobians or Hessians (n, c, ...)."""
    return np.einsum("nc,nc...->n...", mu, stack)


def _bordered(blocks, jac_rows, jac_values) -> np.ndarray:
    """Stacked d-blocks (n, d, d) bordered to (d + c)-blocks: -J^T of
    ``jac_rows`` (n, c, d) in the multiplier columns, ``jac_values`` (n, c,
    d) in the constraint rows, zero in the corner."""
    n, c, d = jac_rows.shape
    out = np.zeros((n, d + c, d + c))
    out[:, :d, :d], out[:, :d, d:], out[:, d:, :d] = blocks, -np.swapaxes(jac_rows, 1, 2), jac_values
    return out


def _solve_path(pts, model, constraint, cfg: SolverConfig | None, context: str, shot: bool = False):
    """Newton solve of the rows k = 1..K-1 of ``pts`` (shape (K+1, d), K >= 1).

    The unknowns are x_1 .. x_{K-1} (s = 0), or x_2 .. x_K with ``shot``
    (s = 1); row k constrains x_{k+s}; at K = 1 there are none, so the
    Newton loop stops at iteration 0 with residual 0.  ``constraint`` is
    None, a LinearGauge or a ConstraintModel; the given points need not
    satisfy it, and a level set's unknowns start projected onto it (in a
    copy of ``pts``).  A gauge's targets lie on the line through G x_0 and G x_K,
    at t = k/K (s = 0), or through G x_0 and G x_1, at t = k (s = 1).  A
    level set's multipliers start at their least-squares estimate.  Returns
    (points, multipliers of shape (K-1, c), residual, iterations,
    converged).
    """
    K, d = len(pts) - 1, pts.shape[1]
    s = int(shot)
    pts = np.array(pts, dtype=float)
    _project_rows(pts[1 + s : K + s], constraint)
    t, end = (np.arange(2.0, K + 1), pts[1]) if s else (np.linspace(0.0, 1.0, K + 1)[1:K], pts[K])
    view = _constraint_view(constraint, lambda g: np.outer(1.0 - t, g @ pts[0]) + np.outer(t, g @ end), d)
    c = view.c
    b = d + c
    # a model that hands out banded blocks has the interior window solved in
    # node order while its runs, K times its reach, stay within its nodes
    banded = not s and not isinstance(constraint, ConstraintModel) and hasattr(model, "hess_bands_stacked")
    bands_of = model.hess_bands_stacked if banded and K * model.reach <= model.n_nodes else None

    # z holds the path and the multipliers, one row per point (row k + s
    # those of row k); corrections of the given points are zero
    at_iterate = {}  # J(x_1) .. J(x_{K-1+s}) of the last residual, at the step's z

    def residual(z):
        x = z[:, :d]
        rows = _el_rows(model, x)
        if not c:
            return rows
        jac = at_iterate["jac"] = view.jac(x[1 : K + s])
        mu = z[1 + s : K + s, d:]
        if z is z0 and isinstance(constraint, ConstraintModel):
            # z0's multipliers, a gauge's 0 as they enter no Jacobian, a level
            # set's the least-squares mu_k = J_k . rows_k / |J_k|^2 of its rows
            j = jac[: K - 1, 0]
            jj = np.einsum("nd,nd->n", j, j)
            np.divide(np.einsum("nd,nd->n", j, rows), jj, out=mu[:, 0], where=jj > 0.0)
        return np.hstack([rows - _weighted(mu, jac[: K - 1]), view.values(x[1 + s : K + s])])

    def step(z, r):
        # segment m joins x_{m-1} and x_m; the rows read segments 1+s .. K,
        # block i of the stacked call being segment i+1+s
        x = z[:, :d]
        delta = np.zeros_like(z)
        if bands_of is not None:
            h11, h12, h21, h22 = bands_of(x[:K], x[1:])
            bands = np.stack([h21[:, :, :-1], h22[:, :, :-1] + h11[:, :, 1:], h12[:, :, 1:]])
            delta[1:K] = _node_thomas(bands, view.jac(x[:1])[0], r)
            return delta
        h11, h12, h21, h22 = model.hess_blocks_stacked(x[s:K], x[1 + s : K + 1])
        own = h22[: K - 1 - s] + h11[1 : K - s]  # rows 1+s .. K-1 by x_k
        if view.hess is not None:
            own -= _weighted(z[1 + 2 * s : K + s, d:], view.hess(x[1 + s : K]))
        pivots = h12[: K - 1] if s else own
        if c:
            pivots = _bordered(pivots, at_iterate["jac"][: K - 1], at_iterate["jac"][s:])
        if s:
            delta[2:] = _forward_substitution(pivots, (own, h21[1 : K - 2]), r)
        else:
            lower, upper = np.zeros((2, K - 1, d, d))
            lower[1:], upper[:-1] = h21[1 : K - 1], h12[1 : K - 1]
            delta[1:K] = _block_thomas(lower, pivots, upper, r)
        return delta

    z0 = np.hstack([pts, np.zeros((K + 1, c))])
    z, res, iterations, converged = _newton(residual, step, z0, cfg, context)
    return z[:, :d], z[1 + s : K + s, d:], res, iterations, converged


def _solve_ladder(pts, zeta, model, constraint, cfg: SolverConfig | None, context: str, zetas=None):
    """Newton solve for every rung of the ladder along ``pts`` at once.

    Rung k = 1..K has the midpoint c_k, the corners p_{k-1} and p_k, and
    the equations of the forward transport's two inner solves,

        A: grad2(p_{k-1}, c_k) + grad1(c_k, x_k) - mu J(c_k) = 0,  d(c_k) = 0,
        B: grad2(x_{k-1}, c_k) + grad1(c_k, p_k) - mu' J(c_k) = 0,  d(p_k) = 0,

    the multipliers and constraint rows only with a constraint, solved for
    c_k and p_k with p_0 = x_0 + zeta given.  Each half rung reads only
    itself and the half before (c_k, or the corner the rung before solved
    for), so the Jacobian is block lower bidiagonal in 2K (d + c)-blocks.
    Residual and Jacobian come from one stacked call each over the 4K
    segments (p_{k-1}, c_k), (c_k, x_k), (x_{k-1}, c_k), (c_k, p_k).  A
    gauge's rows are G c_k = G(x_{k-1} + x_k + zeta)/2 and G p_k =
    G(x_k + zeta).  Row k starts from p_k = x_k + zeta_k and c_k =
    (x_{k-1} + x_k + zeta_{k-1})/2, projected onto the level set if there
    is one, with zeta_0 = zeta and the guesses ``zetas`` (K, d), or zeta
    throughout when they are None.  Returns (midpoints, corners,
    residual, iterations, converged).
    """
    K, d = len(pts) - 1, pts.shape[1]
    starts, ends = pts[:-1], pts[1:]
    view = _constraint_view(constraint, lambda g: np.vstack([(starts + ends + zeta) / 2.0, ends + zeta]) @ g.T, d)
    c = view.c
    b = d + c

    # row k of z holds c_k, mu_k, p_k, mu'_k
    at_iterate = {}  # segments, J(c_k) and J(p_k) of the last residual, at the step's z

    def residual(z):
        mid, corner = z[:, :d], z[:, b : b + d]
        prev = np.vstack([starts[0] + zeta, corner[:-1]])
        segments = np.concatenate([prev, mid, starts, mid]), np.concatenate([mid, ends, mid, corner])
        g1, g2 = model.grads_stacked(*segments)
        at_iterate["segments"] = segments
        g1, g2 = g1.reshape(4, K, d), g2.reshape(4, K, d)
        first, second = g2[0] + g1[1], g2[2] + g1[3]
        if not c:
            return np.hstack([first, second])
        points = np.vstack([mid, corner])
        jac = at_iterate["jac"] = view.jac(points)
        values = view.values(points)
        first, second = first - _weighted(z[:, d:b], jac[:K]), second - _weighted(z[:, b + d :], jac[:K])
        return np.hstack([first, values[:K], second, values[K:]])

    def step(z, r):
        h11, h12, h21, h22 = (h.reshape(4, K, d, d) for h in model.hess_blocks_stacked(*at_iterate["segments"]))
        # the pivots are A by c_k and B by p_k, bordered, in rung halves; the
        # band couples B to c_k and A to the corner p_{k-1} it reads
        own, corner, by_mid = h22[0] + h11[1], h12[3], h22[2] + h11[3]
        if view.hess is not None:
            hess = view.hess(z[:, :d])
            own, by_mid = own - _weighted(z[:, d:b], hess), by_mid - _weighted(z[:, b + d :], hess)
        if c:
            jac = at_iterate["jac"]
            own, corner = _bordered(own, jac[:K], jac[:K]), _bordered(corner, jac[:K], jac[K:])
        band = np.zeros((K, 2, d, d))
        band[:, 0], band[:-1, 1] = by_mid, h21[0][1:]
        diag = np.stack([own, corner], axis=1).reshape(2 * K, b, b)
        return _forward_substitution(diag, (band.reshape(2 * K, d, d)[:-1],), r.reshape(2 * K, b)).reshape(z.shape)

    if zetas is None:
        zetas = np.broadcast_to(zeta, (K, d))
    points = np.vstack([(starts + ends) / 2.0 + np.vstack([zeta, zetas[:-1]]) / 2.0, ends + zetas])
    _project_rows(points, constraint)
    no_mu = np.zeros((K, c))
    z0 = np.hstack([points[:K], no_mu, points[K:], no_mu])
    z, res, iterations, converged = _newton(residual, step, z0, cfg, context)
    return z[:, :d], z[:, b : b + d], res, iterations, converged


def _linear_init(xa, xb, K):
    return np.linspace(0.0, 1.0, K + 1)[:, None] * (xb - xa)[None, :] + xa[None, :]


def _equal_chords(pts) -> None:
    """Move the interior of the polyline ``pts`` (K + 1 points), in place, to
    K equal steps of its length; a zero-length segment is never divided by."""
    K = len(pts) - 1
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    at = np.concatenate([[0.0], np.cumsum(chords)])
    target = at[K] * np.arange(1, K) / K
    j = np.minimum(np.searchsorted(at, target, side="right") - 1, K - 1)
    frac = np.divide(target - at[j], chords[j], out=np.zeros(K - 1), where=chords[j] > 0.0)
    pts[1:K] = pts[j] + frac[:, None] * (pts[j + 1] - pts[j])


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


def solve_geodesic(
    x_a,
    x_b,
    K: int,
    model,
    cfg: SolverConfig | None = None,
    *,
    constraint: ConstraintModel | LinearGauge | None = None,
    init_path=None,
) -> GeodesicResult:
    """Solve the discrete geodesic boundary-value problem.

    Endpoints are fixed; the K-1 interior points are found by Newton
    iteration on the stationarity system with block tridiagonal linear
    solves.  ``constraint`` is None, a LinearGauge or a level set {d = 0},
    which the endpoints must satisfy to 1e-10 and onto which the path
    kernel projects the start's interior; the result then carries one
    multiplier per interior point.  The start is ``init_path`` if given, else the
    straight line; on a level set the projected line is re-spaced to K
    equal chord steps and projected again, and the multipliers start at
    their least-squares estimate.  Non-convergence is
    reported through ``converged=False`` on the result, which then carries
    the last iterate.  An iterate outside the model's domain, a singular
    pivot or divergence (an iterate whose residual or correction is not
    finite) raises SolverError.
    """
    xa = as_point(x_a)
    xb = as_point(x_b)
    if xa.size != xb.size:
        raise DomainError("endpoint dimensions differ")
    K = _as_count("K", K, 1)
    level_set = isinstance(constraint, ConstraintModel)
    if level_set:
        for label, d in zip(("x_a", "x_b"), np.asarray(constraint.d_stacked(np.stack([xa, xb])), dtype=float)):
            if abs(d) > 1e-10:
                raise DomainError(f"endpoint {label} is off the level set: d = {float(d)}")

    if init_path is not None:
        pts = np.array(as_path(init_path).points)
        if pts.shape != (K + 1, xa.size):
            raise DomainError("init path has wrong shape")
        pts[0], pts[K] = xa, xb
    else:
        pts = _linear_init(xa, xb, K)
        if level_set:
            _project_rows(pts[1:K], constraint)
            _equal_chords(pts)

    pts, mu, res, iterations, converged = _solve_path(pts, model, constraint, cfg, "geodesic solve")
    return _result(model, pts, res, iterations, converged, mu[:, 0] if level_set else None)


def solve_geodesic_constrained(x_a, x_b, K: int, model, constraint, cfg=None, *, init_path=None) -> GeodesicResult:
    """Deprecated alias of ``solve_geodesic(..., constraint=constraint)``."""
    return solve_geodesic(x_a, x_b, K, model, cfg, constraint=constraint, init_path=init_path)


def project_onto_level_set(
    x, constraint: ConstraintModel, tol: float = 1e-12, max_iter: int = 50
) -> np.ndarray:
    """Newton projection of a point onto {d = 0} along grad_d.

    The one-row case of ``_project_rows``, with its errors.
    """
    if not isinstance(constraint, ConstraintModel):
        raise TypeError(f"expected a ConstraintModel, got {type(constraint).__name__}")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    p = as_point(x)[None, :]
    _project_rows(p, constraint, tol, _as_count("max_iter", max_iter, 1))
    return p[0]


def _stop_rows(x, rows, bad, reason, val) -> None:
    """Raise SolverError naming the first of ``rows`` flagged in ``bad``."""
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        i = int(rows[j])
        raise SolverError(f"level-set projection: row {i} at {x[i]}: {reason}", residual=abs(float(val[j])))


def _project_rows(x, constraint, tol: float = 1e-12, max_iter: int = 50) -> None:
    """Project each row of the stack x onto the level set, in place.

    Masked Newton along grad_d, p <- p - d(p) grad_d(p) / |grad_d(p)|^2,
    over the rows still off the set: each iteration makes one
    ``d_stacked`` and one ``grad_d_stacked`` call, and each row stops on
    its own once |d| <= tol, after the iterations it alone needs.  A row
    where d or grad_d is not finite, or grad_d vanishes, has no projection
    along grad_d and raises SolverError at once, as does a row still off
    the set after ``max_iter`` evaluations of d.  Does nothing unless
    ``constraint`` is a ConstraintModel.
    """
    if not isinstance(constraint, ConstraintModel):
        return
    rows = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            val = np.asarray(constraint.d_stacked(x[rows]), dtype=float)
            _stop_rows(x, rows, ~np.isfinite(val), "d is not finite", val)
            off = np.abs(val) > tol
            rows, val = rows[off], val[off]
            if not rows.size:
                return
            g = np.asarray(constraint.grad_d_stacked(x[rows]), dtype=float)
            gg = np.einsum("ni,ni->n", g, g)
            _stop_rows(x, rows, ~(np.isfinite(gg) & (gg > 0.0)), "grad_d is zero or not finite", val)
            x[rows] -= val[:, None] * g / gg[:, None]
    raise SolverError(
        f"level-set projection did not reach |d| <= {tol}", residual=float(np.max(np.abs(val)))
    )


def write_result_csv(result: GeodesicResult, target) -> None:
    """Write the solved path as CSV rows ``k, x_0, ..., x_{d-1}``."""
    path = result.path
    header = ["k"] + [f"x_{i}" for i in range(path.dim)]
    _write_csv(target, header, enumerate(path.points))
