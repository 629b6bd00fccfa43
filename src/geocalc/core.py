"""Core contracts: points, discrete paths, and deformation-energy models.

A deformation energy is a smooth two-point function ``w(x, y)`` on an open
subset of R^d that behaves like a squared geodesic distance for nearby
points: ``w(x, x) = 0``, both gradients vanish on the diagonal, and half
the second derivative in the second slot defines a Riemannian metric,
``g_x = 1/2 * hess22(x, x)``.  Everything downstream (path energies,
two-point solves, parallel transport) consumes concrete models only
through the :class:`EnergyModel` interface defined here.  A model
implements that interface once, over stacks of segments
(``w_stacked``, ``grads_stacked``, ``hess_blocks_stacked``); the
per-point methods are views of a stack of one.

Derivative layout used throughout the package:

* ``grad1`` / ``grad2``: gradient of ``w`` in the first / second argument,
* ``hess11``: Jacobian of ``grad1`` with respect to the first argument,
* ``hess12``: Jacobian of ``grad1`` with respect to the second argument,
* ``hess21``: Jacobian of ``grad2`` with respect to the first argument,
* ``hess22``: Jacobian of ``grad2`` with respect to the second argument,

so ``hess21 == hess12.T`` whenever ``w`` is twice continuously
differentiable.  Matrix residuals are measured in the max-abs-entry norm,
vector residuals in the Euclidean norm.
"""

from __future__ import annotations

import io
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "EvaluationError",
    "InvariantViolation",
    "SolverError",
    "as_point",
    "DiscretePath",
    "as_path",
    "EnergyModel",
    "FdScheme",
    "fd_derivatives",
    "fd_gradient",
    "fd_jacobian",
    "metric_from_energy",
    "ConsistencyReport",
    "check_consistency",
]


class DomainError(ValueError):
    """Input lies outside the admissible domain of a model or operator."""


class EvaluationError(RuntimeError):
    """A model produced non-finite or otherwise unusable values."""


class InvariantViolation(RuntimeError):
    """A model broke one of its contractual guarantees (e.g. ``w < 0``)."""


class SolverError(RuntimeError):
    """A nonlinear solve failed; ``residual`` holds the last residual norm."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _as_count(name: str, n, least: int) -> int:
    """``n`` as an int: a step count or iteration cap of at least ``least``.

    Anything else is a DomainError, a bool included; numpy integers pass.
    """
    # bool is an int subclass, and NaN compares false with everything
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"{name} must be an integer of at least {least}, got {n!r}")
    return int(n)


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-d float vector (a chart point or displacement)."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise DomainError(f"point must be a 1-d vector, got shape {np.shape(x)}")
    if not np.all(np.isfinite(p)):
        raise DomainError("point has non-finite entries")
    return p.copy()


@dataclass(frozen=True)
class DiscretePath:
    """An ordered tuple of K+1 points of common dimension d.

    ``points`` is a read-only array of shape (K+1, d); index k gives the
    k-th point.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
            raise DomainError(
                f"path must have shape (K+1, d) with K >= 1, got {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise DomainError("path has non-finite entries")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def step_count(self) -> int:
        return self.points.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __getitem__(self, k) -> np.ndarray:
        return self.points[k]


def _write_csv(target, header, rows) -> None:
    """Write CSV lines ``header`` and ``index, values...`` for each (index, values) row.

    Values are written in round-trip precision; ``target`` is an open text
    stream or a file path.
    """
    lines = [",".join(header)]
    lines += [f"{i}," + ",".join(repr(float(v)) for v in vals) for i, vals in rows]
    text = "\n".join(lines) + "\n"
    if isinstance(target, io.TextIOBase):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def as_path(path) -> DiscretePath:
    if isinstance(path, DiscretePath):
        return path
    return DiscretePath(np.asarray(path, dtype=float))


def _one(x) -> np.ndarray:
    """The point x as a stack of one, shape (1, d)."""
    return np.reshape(np.asarray(x, dtype=float), (1, -1))


class EnergyModel(ABC):
    """Two-point deformation energy with gradient and Hessian access.

    Contract: ``w(x, x) == 0`` and ``w >= 0`` on the admissible domain;
    models must reject inadmissible input with :class:`DomainError` rather
    than return NaN.  Instances are immutable after construction and safe
    to evaluate concurrently.

    A model implements stacked evaluation only: ``w_stacked``,
    ``grads_stacked`` and ``hess_blocks_stacked`` take the starts ``xs``
    and ends ``ys`` of n segments, arrays of shape (n, d), and return the
    energy, both gradients and the four Hessian blocks of each segment,
    stacked along a leading axis: shape (n,), two arrays (n, d), and four
    arrays (n, d, d).  They check the whole stack once.  The per-point
    methods (``w``, ``grads``, ``grad1`` ... ``hess22``) are views of a
    stack of one.
    """

    @abstractmethod
    def w_stacked(self, xs, ys) -> np.ndarray:
        """``w`` of each segment (xs[i], ys[i]), shape (n,)."""

    @abstractmethod
    def grads_stacked(self, xs, ys):
        """(grad1, grad2) of each segment, two arrays of shape (n, d)."""

    @abstractmethod
    def hess_blocks_stacked(self, xs, ys):
        """(hess11, hess12, hess21, hess22) of each segment, four arrays of shape (n, d, d)."""

    def w(self, x, y) -> float:
        return float(self.w_stacked(_one(x), _one(y))[0])

    def grads(self, x, y):
        return tuple(g[0] for g in self.grads_stacked(_one(x), _one(y)))

    def grad1(self, x, y) -> np.ndarray:
        return self.grads(x, y)[0]

    def grad2(self, x, y) -> np.ndarray:
        return self.grads(x, y)[1]

    def hess_blocks(self, x, y):
        return tuple(h[0] for h in self.hess_blocks_stacked(_one(x), _one(y)))

    def hess11(self, x, y) -> np.ndarray:
        return self.hess_blocks(x, y)[0]

    def hess12(self, x, y) -> np.ndarray:
        return self.hess_blocks(x, y)[1]

    def hess21(self, x, y) -> np.ndarray:
        return self.hess_blocks(x, y)[2]

    def hess22(self, x, y) -> np.ndarray:
        return self.hess_blocks(x, y)[3]

    def metric(self, x) -> np.ndarray:
        """Induced metric g_x; overridden by models with a closed form."""
        return metric_from_energy(self, x)


@dataclass(frozen=True)
class FdScheme:
    """Central finite-difference scheme of order 2 with step ``step``."""

    step: float = 1e-5

    def __post_init__(self):
        if not (1e-8 <= self.step <= 1e-2):
            raise DomainError(f"fd step must lie in [1e-8, 1e-2], got {self.step}")


def fd_gradient(func, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function of one vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (func(x + e) - func(x - e)) / (2.0 * step)
    return g


def fd_jacobian(func, x: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian; column j differentiates along x_j."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        cols.append(
            (np.asarray(func(x + e), dtype=float) - np.asarray(func(x - e), dtype=float))
            / (2.0 * step)
        )
    return np.stack(cols, axis=1)


class _FiniteDifferenceModel(EnergyModel):
    """Full derivative access for a model that only implements ``w``.

    The base model has no stacked evaluation, so the stacked methods loop
    over the segments, each one a set of central-difference stencils.
    """

    def __init__(self, base, scheme: FdScheme):
        self._base = base
        self._h = scheme.step

    def _grad(self, x, y, first: bool):
        if first:
            return fd_gradient(lambda p: self._base.w(p, y), x, self._h)
        return fd_gradient(lambda p: self._base.w(x, p), y, self._h)

    def _hess_same(self, x, y, first: bool):
        h = self._h
        d = np.asarray(x if first else y).size
        out = np.empty((d, d))
        for i in range(d):
            for j in range(i + 1):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = h
                ej[j] = h

                def _w(p):
                    return self._base.w(p, y) if first else self._base.w(x, p)

                base = np.asarray(x if first else y, dtype=float)
                val = (
                    _w(base + ei + ej)
                    - _w(base + ei - ej)
                    - _w(base - ei + ej)
                    + _w(base - ei - ej)
                ) / (4.0 * h * h)
                out[i, j] = val
                out[j, i] = val
        return out

    def _hess12(self, x, y):
        h = self._h
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = x.size
        out = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = h
                ej[j] = h
                out[i, j] = (
                    self._base.w(x + ei, y + ej)
                    - self._base.w(x + ei, y - ej)
                    - self._base.w(x - ei, y + ej)
                    + self._base.w(x - ei, y - ej)
                ) / (4.0 * h * h)
        return out

    def w_stacked(self, xs, ys):
        return np.array([float(self._base.w(x, y)) for x, y in zip(xs, ys)])

    def grads_stacked(self, xs, ys):
        g1, g2 = np.empty(np.shape(xs)), np.empty(np.shape(xs))
        for i, (x, y) in enumerate(zip(xs, ys)):
            g1[i], g2[i] = self._grad(x, y, True), self._grad(x, y, False)
        return g1, g2

    def hess_blocks_stacked(self, xs, ys):
        n, d = np.shape(xs)
        blocks = np.empty((4, n, d, d))
        for i, (x, y) in enumerate(zip(xs, ys)):
            # the two mixed blocks share one stencil, with the slots swapped
            h12 = self._hess12(x, y)
            blocks[:, i] = self._hess_same(x, y, True), h12, h12.T, self._hess_same(x, y, False)
        return tuple(blocks)


def fd_derivatives(model, scheme: FdScheme | None = None) -> EnergyModel:
    """Wrap a w-only model into a full :class:`EnergyModel` via central FD.

    ``model`` needs a ``w(x, y)`` method; domain errors raised by it
    propagate unchanged.
    """
    return _FiniteDifferenceModel(model, scheme or FdScheme())


def _require_finite_matrix(m: np.ndarray, label: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        bad = np.argwhere(~np.isfinite(m))[0]
        raise EvaluationError(
            f"{label} has a non-finite entry at index {tuple(int(b) for b in bad)}"
        )
    return m


def metric_from_energy(model: EnergyModel, x) -> np.ndarray:
    """Metric g_x = 1/2 hess22(x, x), symmetrized as (M + M^T)/2."""
    x = as_point(x)
    h22 = _require_finite_matrix(model.hess22(x, x), "hess22")
    return (h22 + h22.T) / 4.0


@dataclass(frozen=True)
class ConsistencyReport:
    """Residual magnitudes of the diagonal identities a model must satisfy."""

    tol: float
    residuals: dict

    @property
    def passed(self) -> dict:
        return {name: r <= self.tol for name, r in self.residuals.items()}

    @property
    def ok(self) -> bool:
        return all(self.passed.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def failed(self):
        return [name for name, good in self.passed.items() if not good]


def check_consistency(model: EnergyModel, x, tol: float) -> ConsistencyReport:
    """Verify the squared-distance identities of ``model`` on the diagonal.

    Checks w(x,x) = 0, vanishing diagonal gradients, hess22 = 2 g_x, and
    the sign relations hess11 = hess22 = -hess12 = -hess21 at (x, x).
    """
    x = as_point(x)
    w0 = float(model.w(x, x))
    g1, g2 = model.grads(x, x)
    h11, h12, h21, h22 = model.hess_blocks(x, x)
    two_g = 2.0 * np.asarray(model.metric(x), dtype=float)

    for label, val in (("grad1", g1), ("grad2", g2)):
        if not np.all(np.isfinite(val)):
            raise EvaluationError(f"{label} is non-finite at the diagonal")
    for label, val in (("hess11", h11), ("hess12", h12), ("hess21", h21), ("hess22", h22)):
        _require_finite_matrix(val, label)

    def _maxabs(m):
        return float(np.max(np.abs(m)))

    residuals = {
        "w_diagonal": abs(w0),
        "grad1_diagonal": float(np.linalg.norm(g1)),
        "grad2_diagonal": float(np.linalg.norm(g2)),
        "hess22_vs_metric": _maxabs(np.asarray(h22) - two_g),
        "hess11_vs_hess22": _maxabs(np.asarray(h11) - np.asarray(h22)),
        "hess12_vs_hess22": _maxabs(np.asarray(h12) + np.asarray(h22)),
        "hess21_vs_hess22": _maxabs(np.asarray(h21) + np.asarray(h22)),
    }
    return ConsistencyReport(tol=float(tol), residuals=residuals)
