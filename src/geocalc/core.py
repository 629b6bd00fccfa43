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
per-point methods are views of a stack of one.  A two-point energy given
only as a stacked, complex-analytic ``w`` becomes a model through
:func:`energy_from_w`: complex-step gradients, and Hessian blocks as
central differences of them.

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
    "energy_from_w",
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
    stack of one.  A model may also hand out banded blocks, as the rods'
    ``hess_bands_stacked`` does, for the node-ordered geodesic solve.
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


_CS_STEP = 1e-30  # complex step: nothing cancels, so it can be tiny
_FD_STEP = 1e-6  # central-difference step for Jacobians of exact gradients


def _central_columns(f, xs):
    """Central differences of a stacked map ``f`` at the points xs, shape
    (n, d): 2d calls of ``f`` over the whole stack, column j (along x_j)
    stacked on a new last axis."""
    xs = np.asarray(xs, dtype=float)
    steps = _FD_STEP * np.eye(xs.shape[1])
    return np.stack([(f(xs + e) - f(xs - e)) / (2.0 * _FD_STEP) for e in steps], axis=-1)


class _ComplexStepModel(EnergyModel):
    """The model of a stacked, complex-analytic ``w`` (see :func:`energy_from_w`)."""

    def __init__(self, w):
        self._w = w

    def w_stacked(self, xs, ys):
        return np.asarray(self._w(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)), dtype=float)

    def _grads(self, xs, ys):
        """(grad1, grad2) of each segment side by side, shape (n, 2d): a call
        of ``w`` per slot over the d copies of the stack, the slot moved by
        i h along one coordinate in each copy."""
        n, d = xs.shape
        steps = 1j * _CS_STEP * np.eye(d)[:, None]
        w = np.concatenate([
            self._w((xs + steps).reshape(-1, d), np.concatenate([ys] * d)),
            self._w(np.concatenate([xs] * d), (ys + steps).reshape(-1, d)),
        ])
        if not np.iscomplexobj(w):
            raise TypeError("energy_from_w needs a complex-analytic w, but w returned real values for complex input")
        return w.imag.reshape(2 * d, n).T / _CS_STEP

    def grads_stacked(self, xs, ys):
        return tuple(np.hsplit(self._grads(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)), 2))

    def hess_blocks_stacked(self, xs, ys):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        # rows (grad1, grad2), columns along x and along y
        jx = _central_columns(lambda p: self._grads(p, ys), xs)
        jy = _central_columns(lambda p: self._grads(xs, p), ys)
        d = xs.shape[1]
        return jx[:, :d], jy[:, :d], jx[:, d:], jy[:, d:]


def energy_from_w(w) -> EnergyModel:
    """The :class:`EnergyModel` of a two-point energy given only as ``w``.

    ``w(xs, ys)`` takes the starts and ends of n segments, arrays of shape
    (n, d), and returns their n energies.  It must be complex-analytic in
    both arguments: no ``abs``, conjugation, ``np.maximum``, casts to
    float, and comparisons on ``.real`` only.  Gradients are complex-step
    derivatives (Squire & Trapp 1998), exact to rounding: two calls of
    ``w`` over d copies of the stack.  Hessian blocks are central
    differences of them: 8d such calls.  Domain errors raised by ``w``
    propagate unchanged.
    """
    return _ComplexStepModel(w)


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
