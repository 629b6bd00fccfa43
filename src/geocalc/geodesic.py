"""Discrete path energies and the bordered Newton solver behind every operator.

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
``mu_k``.  Row k has three (d + c)-block bands,
hess21(x_{k-1}, x_k), hess22(x_{k-1}, x_k) + hess11(x_k, x_{k+1}) -
sum_i mu_k,i hess c_i(x_k), and hess12(x_k, x_{k+1}); the band on the
row's own unknown is bordered by the Jacobians (``_border``).

For the interior window the system is block tridiagonal.
``_block_thomas`` solves it by block cyclic reduction for blocks of size
at most 16, each of about log2(K) levels one stacked pivot solve, and by
sequential block Thomas elimination, faster there, for larger blocks (the
rods).  For the shifted window it is block lower triangular, as is the
ladder of ``operators``; ``_forward_substitution`` scales it by the
stacked diagonal inverse and halves the regrouped recurrence level by
level for blocks of size at most 16, and solves it row by row otherwise.

Each Newton step makes one stacked ``grads_stacked`` call over all K
segments per residual and one ``hess_blocks_stacked`` call per Jacobian,
over the segments whose blocks the rows read: all K for the interior,
segments 2..K for the shifted window.  Path energies and lengths come
from one ``w_stacked`` call.  The stacked methods are the only ones a
model implements (``core.EnergyModel``).

A level set is evaluated the same way: one ``d_stacked`` and one
``grad_d_stacked`` call per residual, one ``grad_d_stacked`` and one
``hess_d_stacked`` call per Jacobian (``ConstraintModel``).  Start points
are projected onto the level set by one masked Newton iteration over the
whole stack (``_project_rows``), in which each row stops on its own.
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
    _as_count,
    _one,
    _write_csv,
    as_path,
    as_point,
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
        _as_count("max_iter", self.max_iter, 1)
        if self.damping not in ("none", "armijo"):
            raise DomainError(f"unknown damping mode {self.damping!r}")


class ConstraintModel(ABC):
    """Level-set description of a hypersurface M = {d = 0}.

    ``d`` should be (close to) a signed distance near the zero set, so that
    ``grad_d`` has norm about 1 there.

    A model implements stacked evaluation only: ``d_stacked`` and
    ``grad_d_stacked`` take a stack xs of n points, shape (n, d), and
    return d and its gradient at each point, stacked along a leading axis:
    shapes (n,) and (n, d).  ``hess_d_stacked``, shape (n, d, d), defaults
    to central differences of ``grad_d_stacked`` over the whole stack with
    step ``fd_step``, symmetrized.  The per-point methods ``d``, ``grad_d``
    and ``hess_d`` are views of a stack of one.
    """

    fd_step: float = 1e-6

    @abstractmethod
    def d_stacked(self, xs) -> np.ndarray:
        """d at each point of xs, shape (n,)."""

    @abstractmethod
    def grad_d_stacked(self, xs) -> np.ndarray:
        """grad_d at each point of xs, shape (n, d)."""

    def hess_d_stacked(self, xs) -> np.ndarray:
        """hess_d at each point of xs, shape (n, d, d): 2d stacked calls of
        ``grad_d_stacked``, column j differentiating along x_j."""
        xs = np.asarray(xs, dtype=float)
        n, d = xs.shape
        jac = np.empty((n, d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = self.fd_step
            jac[:, :, j] = (
                np.asarray(self.grad_d_stacked(xs + e), dtype=float)
                - np.asarray(self.grad_d_stacked(xs - e), dtype=float)
            ) / (2.0 * self.fd_step)
        return (jac + np.swapaxes(jac, 1, 2)) / 2.0

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
    the node-average position of a rod).  Each solve sets the targets t
    from its given points, where a flat-space solve would put G x.
    """

    matrix: np.ndarray


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


def _diverged(context, what, iteration, res) -> SolverError:
    return SolverError(
        f"{context}: diverged, the {what} of iteration {iteration} is not finite"
        f" (last finite residual {res:.3e})",
        residual=res,
    )


def _newton(residual, step, z0, cfg: SolverConfig | None, context: str):
    """Newton iteration for residual(z) = 0 from z0.

    ``step(z, r)`` returns the Newton correction for r = residual(z); ``cfg``
    None means the default SolverConfig.  With ``cfg.damping == "armijo"``
    the correction is halved until 0.5 |r|^2 decreases sufficiently.  The
    residual is evaluated once per iterate.  Returns (z, sup-norm residual,
    iterations, converged).  A singular linear system, a correction or an
    iterate's residual that is not finite (divergence), or a DomainError at
    an iterate the loop produced, raises SolverError with the last finite
    residual; a DomainError at z0 (the caller's input) propagates.  The
    loop evaluates its iterates with overflow and invalid-operation
    warnings off, since divergence is reported as an error instead.
    """
    cfg = cfg or SolverConfig()
    z, r = z0, residual(z0)
    res = _sup(r)
    if not np.isfinite(res):
        raise SolverError(f"{context}: the residual at the start point is not finite", residual=res)
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while res > cfg.newton_tol and iterations < cfg.max_iter:
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


# largest block (after regrouping, for the lower triangular solve) that the
# block solves reduce level by level: on the 2-core Xeon where it was
# measured, reduction takes 0.17-0.76x the sequential loop's time for
# 15-255 blocks of size <= 16, and 1.5-2.6x for blocks of size >= 32 (rods)
_REDUCE_MAX_BLOCK = 16


def _block_thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a block tridiagonal system.

    ``diag`` has shape (n, b, b) and ``rhs`` (n, b); ``lower`` and ``upper``
    have shape (n-1, b, b): ``lower[i]`` couples row i+1 to block i, and
    ``upper[i]`` couples row i to block i+1.  Blocks of size at most
    ``_REDUCE_MAX_BLOCK`` are solved by block cyclic reduction, in about
    log2(n) stacked levels; larger ones by sequential block Thomas
    elimination.
    """
    n, b = rhs.shape
    if n <= 2 or b > _REDUCE_MAX_BLOCK:
        return _thomas_loop(lower, diag, upper, rhs)
    zero = np.zeros((1, b, b))
    return _cyclic_reduction(np.concatenate([zero, lower]), diag, np.concatenate([upper, zero]), rhs)


def _thomas_loop(lower, diag, upper, rhs) -> np.ndarray:
    """Block Thomas elimination, one pivot solve per row; arguments as ``_block_thomas``."""
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


def _cyclic_reduction(lower, diag, upper, rhs) -> np.ndarray:
    """Block cyclic reduction of L_i x_{i-1} + D_i x_i + U_i x_{i+1} = r_i.

    Here ``lower`` and ``upper`` have n rows, with lower[0] = upper[-1] = 0.
    One stacked solve gives every even row as x_i = y_i - alpha_i x_{i-1}
    - beta_i x_{i+1}; substituting it into the odd rows leaves a block
    tridiagonal system of half the rows (its own lower[0] and upper[-1]
    again zero), solved the same way, and the even rows follow in one
    stacked step.  The sequential loop solves the last two rows or fewer.
    """
    n, b = rhs.shape
    if n <= 2:
        return _thomas_loop(lower[1:], diag, upper[:-1], rhs)
    # even[j] = [alpha | beta | y] of row 2j; odd row 2j+1 sits between the
    # even rows j and j+1, and the last odd row has no right neighbour when
    # n is even
    even = np.linalg.solve(diag[::2], np.concatenate([lower[::2], upper[::2], rhs[::2, :, None]], axis=2))
    m, r = n // 2, len(even) - 1
    left = lower[1::2] @ even[:m]
    right = upper[1 : 2 * r : 2] @ even[1:]
    diag_odd = diag[1::2] - left[:, :, b : 2 * b]
    diag_odd[:r] -= right[:, :, :b]
    upper_odd = np.zeros((m, b, b))
    upper_odd[:r] = -right[:, :, b : 2 * b]
    rhs_odd = rhs[1::2] - left[:, :, 2 * b]
    rhs_odd[:r] -= right[:, :, 2 * b]
    sol = np.empty((n, b))
    sol[1::2] = _cyclic_reduction(-left[:, :, :b], diag_odd, upper_odd, rhs_odd)
    sol[::2] = even[:, :, 2 * b]
    sol[2::2] -= (even[1:, :, :b] @ sol[1 : 2 * r : 2, :, None])[..., 0]
    sol[: 2 * m : 2] -= (even[:m, :, b : 2 * b] @ sol[1::2, :, None])[..., 0]
    return sol


def _forward_substitution(diag, bands, rhs) -> np.ndarray:
    """Solve a block lower triangular system.

    ``diag`` has shape (n, b, b) and ``rhs`` (n, b); ``bands[m - 1]`` has
    shape (n - m, b, b), and its block i couples row i + m to unknown i.
    The diagonal blocks are inverted in one stacked call and the bands are
    premultiplied by them, which leaves x_i = s_i - sum_m S_m,i x_{i-m}.
    With M bands and M b at most ``_REDUCE_MAX_BLOCK``, that recurrence is
    regrouped into one of (M b)-blocks X_i = (x_i, ..., x_{i-M+1}) and
    solved in about log2(n) stacked levels (``_affine_recurrence``);
    otherwise each of the n steps is a few small matvecs.
    """
    inv = np.linalg.inv(diag)
    sol = (inv @ rhs[..., None])[..., 0]
    scaled = [inv[m:] @ band for m, band in enumerate(bands, start=1)]
    n, b = rhs.shape
    w = len(bands) * b
    if bands and n > 2 and w <= _REDUCE_MAX_BLOCK:
        # steps[i] = [A_i | c_i] with top block row [-S_1,i ... -S_M,i | s_i]
        # and, below it, identity blocks passing x_{i-1} .. x_{i-M+1} on
        steps = np.zeros((n, w, w + 1))
        steps[:, :b, w] = sol
        for m, band in enumerate(scaled, start=1):
            steps[m:, :b, (m - 1) * b : m * b] = -band
        for t in range(1, len(bands)):
            steps[:, t * b : (t + 1) * b, (t - 1) * b : t * b] = np.eye(b)
        return _affine_recurrence(steps)[:, :b]
    for i in range(1, n):
        for m, band in enumerate(scaled[:i], start=1):
            sol[i] -= band[i - m] @ sol[i - m]
    return sol


def _affine_recurrence(steps) -> np.ndarray:
    """Solve X_i = A_i X_{i-1} + c_i for i = 0..n-1, with X_{-1} = 0.

    ``steps[i]`` is [A_i | c_i], shape (w, w + 1).  Each level composes
    every odd row with the row before it (one stacked matmul), solves the
    recurrence of the odd rows so formed, and fills in the even rows from
    them (one stacked matvec).
    """
    n, w = steps.shape[:2]
    x = np.empty((n, w))
    if n <= 2:
        x[:] = steps[:, :, w]
        if n == 2:
            x[1] += steps[1, :, :w] @ x[0]
        return x
    pairs = steps[1::2, :, :w] @ steps[: 2 * (n // 2) : 2]
    pairs[:, :, w] += steps[1::2, :, w]
    x[1::2] = _affine_recurrence(pairs)
    x[::2] = steps[::2, :, w]
    x[2::2] += (steps[2::2, :, :w] @ x[1 : n - 1 : 2, :, None])[..., 0]
    return x


@dataclass(frozen=True)
class _Constraint:
    """A constraint as the kernels see it on a stack x of n points, shape (n, d).

    ``values(x)`` has shape (n, c), ``jac(x)`` shape (n, c, d), and
    ``hess(x, mu)`` is sum_i mu[:, i] hess c_i(x), shape (n, d, d), or 0.0
    where it vanishes.  A LinearGauge reads the stack as the points its
    targets belong to; a level set is evaluated by one stacked call of its
    ``d_stacked``, ``grad_d_stacked`` or ``hess_d_stacked``.
    """

    c: int
    values: Callable
    jac: Callable
    hess: Callable


def _check_constraint(constraint) -> None:
    if constraint is not None and not isinstance(constraint, (LinearGauge, ConstraintModel)):
        raise TypeError(f"constraint must be None, a LinearGauge or a ConstraintModel, got {type(constraint).__name__}")


def _constraint_view(constraint, targets: Callable, d: int) -> _Constraint:
    """View of no constraint (c = 0), a LinearGauge, or a level set (c = 1).

    ``targets(g)`` gives a gauge's targets G x = t from its matrix g, one
    row per point of the stacks the view will see.
    """
    _check_constraint(constraint)
    if constraint is None:
        return _Constraint(
            0, lambda x: np.zeros((len(x), 0)), lambda x: np.zeros((len(x), 0, d)), lambda x, mu: 0.0
        )
    if isinstance(constraint, LinearGauge):
        g = np.asarray(constraint.matrix, dtype=float)
        t = targets(g)
        return _Constraint(
            g.shape[0],
            lambda x: x @ g.T - t,
            lambda x: np.broadcast_to(g, (len(x),) + g.shape),
            lambda x, mu: 0.0,
        )
    return _Constraint(
        1,
        lambda x: np.reshape(constraint.d_stacked(x), (len(x), 1)),
        lambda x: np.reshape(constraint.grad_d_stacked(x), (len(x), 1, d)),
        lambda x, mu: mu[:, 0, None, None] * constraint.hess_d_stacked(x),
    )


def _multiplier_rows(mu, jac) -> np.ndarray:
    """Rows mu_k^T J_k of a stack of multipliers (n, c) and Jacobians (n, c, d)."""
    return np.einsum("nc,ncd->nd", mu, jac)


def _border(blocks, jac_rows, jac_values) -> None:
    """Border stacked (d + c)-blocks in place: -J^T of ``jac_rows`` (n, c, d)
    in the multiplier columns, ``jac_values`` (n, c, d) in the constraint rows."""
    d = jac_rows.shape[2]
    blocks[:, :d, d:] = -np.swapaxes(jac_rows, 1, 2)
    blocks[:, d:, :d] = jac_values


def _solve_path(pts, model, constraint, cfg: SolverConfig | None, context: str, shot: bool = False):
    """Newton solve of the rows k = 1..K-1 of ``pts`` (shape (K+1, d), K >= 2).

    The unknowns are x_1 .. x_{K-1} (s = 0), or x_2 .. x_K with ``shot``
    (s = 1); row k constrains x_{k+s}.  ``constraint`` is None, a
    LinearGauge or a ConstraintModel; the given points need not satisfy
    it.  A gauge's targets lie on the line through G x_0 and G x_K, at
    t = k/K (s = 0), or through G x_0 and G x_1, at t = k (s = 1).  Returns
    (points, multipliers of shape (K-1, c), residual, iterations,
    converged).
    """
    K, d = len(pts) - 1, pts.shape[1]
    s = int(shot)
    t, end = (np.arange(2.0, K + 1), pts[1]) if s else (np.linspace(0.0, 1.0, K + 1)[1:K], pts[K])
    view = _constraint_view(constraint, lambda g: np.outer(1.0 - t, g @ pts[0]) + np.outer(t, g @ end), d)
    c = view.c
    b = d + c

    # z holds the path and the multipliers, one row per point (row k + s
    # those of row k); corrections of the given points are zero
    def residual(z):
        x = z[:, :d]
        rows = _el_rows(model, x)
        if not c:
            return rows
        mu = z[1 + s : K + s, d:]
        return np.hstack([rows - _multiplier_rows(mu, view.jac(x[1:K])), view.values(x[1 + s : K + s])])

    def step(z, r):
        # bands[j, k - 1] couples row k to x_{k-1+j}, in its top left d x d.
        # Segment m joins x_{m-1} and x_m; the rows read segments 1+s .. K,
        # block i of the stacked call being segment i+1+s
        x = z[:, :d]
        bands = np.zeros((3, K - 1, b, b))
        e = bands[:, :, :d, :d]
        h11, h12, h21, h22 = model.hess_blocks_stacked(x[s:K], x[1 + s : K + 1])
        e[0, 1:] = h21[1 - s : K - 1 - s]
        e[1, s:] = h22[: K - 1 - s]
        e[1] += h11[1 - s : K - s]
        e[2, : K - 2 + s] = h12[1 - s : K - 1]
        if c:
            jac = view.jac(x[1 : K + s])
            e[1, s:] -= view.hess(x[1 + s : K], z[1 + 2 * s : K + s, d:])
            _border(bands[1 + s], jac[: K - 1], jac[s:])
        delta = np.zeros_like(z)
        if s:
            delta[2:] = _forward_substitution(bands[2], (bands[1, 1:], bands[0, 2:]), r)
        else:
            delta[1:K] = _block_thomas(bands[0, 1:], bands[1], bands[2, :-1], r)
        return delta

    z0 = np.hstack([pts, np.zeros((K + 1, c))])
    z, res, iterations, converged = _newton(residual, step, z0, cfg, context)
    return z[:, :d], z[1 + s : K + s, d:], res, iterations, converged


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
    """Body of ``solve_geodesic`` and its alias ``solve_geodesic_constrained``."""
    xa = as_point(x_a)
    xb = as_point(x_b)
    if xa.size != xb.size:
        raise DomainError("endpoint dimensions differ")
    K = _as_count("K", K, 1)
    _check_constraint(constraint)
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
    constraint: ConstraintModel | LinearGauge | None = None,
    init_path=None,
) -> GeodesicResult:
    """Solve the discrete geodesic boundary-value problem.

    Endpoints are fixed; the K-1 interior points are found by Newton
    iteration on the stationarity system with block tridiagonal linear
    solves.  ``constraint`` is None, a LinearGauge or a level set {d = 0},
    which the endpoints must satisfy to 1e-10 and onto which the start's
    interior (the line or ``init_path``) is projected; the result then
    carries one multiplier per interior point.  Non-convergence is
    reported through ``converged=False`` on the result, which then carries
    the last iterate.  An iterate outside the model's domain, a singular
    pivot or divergence (an iterate whose residual or correction is not
    finite) raises SolverError.
    """
    return _solve(x_a, x_b, K, model, constraint, cfg, init_path)


def solve_geodesic_constrained(x_a, x_b, K: int, model, constraint, cfg=None, *, init_path=None) -> GeodesicResult:
    """Deprecated alias of ``solve_geodesic(..., constraint=constraint)``."""
    return _solve(x_a, x_b, K, model, constraint, cfg, init_path)


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
