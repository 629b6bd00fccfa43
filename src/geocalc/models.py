"""Concrete energy models and geometric oracles.

Shipped backends:

* ``flat_energy``: the squared Euclidean distance w = |y - x|^2.  Used on
  its own it makes all discrete operators exact; paired with a level-set
  constraint it is the spring energy of an embedded hypersurface.
* ``sphere_chart_energy``: the chart-quadratic energy
  w(x, y) = g_x(y - x, y - x) on the stereographic chart of the unit
  sphere (projection from the north pole onto the equatorial plane), with
  the conformal metric g_x = 4 I / (1 + |x|^2)^2.
* the signed distances to the unit circle and the unit sphere, for
  constrained geodesics with the spring energy, with closed-form Hessians.

Each model implements only the stacked methods of ``core.EnergyModel`` or
``geodesic.ConstraintModel``, one array evaluation over a whole stack.  The
sphere chart works on coordinate columns, and far from the origin on points
scaled by a power of two, where its outputs stay accurate and finite
without a warning.

``sphere_oracles`` exposes the closed-form great-circle geometry pulled
back through the chart: distance, constant-speed geodesic, logarithm,
exponential, parallel transport, and the chart Christoffel symbols.  The
convergence harness and the test suite use these as ground truth.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, EnergyModel, _outer, as_point
from .geodesic import ConstraintModel

__all__ = [
    "FlatEnergy",
    "flat_energy",
    "SphereChartEnergy",
    "sphere_chart_energy",
    "SphereOracles",
    "sphere_oracles",
    "CircleSdf",
    "SphereSdf",
    "sdf_spring_model",
]

_POLE_TOL = 1e-8


class FlatEnergy(EnergyModel):
    """w(x, y) = |y - x|^2 with exact derivatives; any dimension."""

    @staticmethod
    def _eye(x, scale):
        """scale * I for each point of x, shape (..., d, d): one zeroed
        allocation with its diagonal set through a flat view."""
        d = x.shape[-1]
        out = np.zeros(x.shape[:-1] + (d, d))
        out.reshape(-1, d * d)[:, :: d + 1] = scale
        return out

    def w_stacked(self, xs, ys):
        d = np.asarray(ys, float) - np.asarray(xs, float)
        return (d * d).sum(-1)

    def grads_stacked(self, xs, ys):
        g2 = 2.0 * (np.asarray(ys, float) - np.asarray(xs, float))
        return -g2, g2

    def hess_blocks_stacked(self, xs, ys):
        xs = np.asarray(xs, float)
        return self._eye(xs, 2.0), self._eye(xs, -2.0), self._eye(xs, -2.0), self._eye(xs, 2.0)

    def metric(self, x):
        return np.eye(np.asarray(x).size)


def flat_energy() -> FlatEnergy:
    return FlatEnergy()


# a chart row whose largest |coordinate| is 2^61 or more is evaluated at
# 2^-k (x, y), that coordinate then in [2^60, 2^61): 1 + |x|^2 rounds to |x|^2
# on both sides, no term in x alone under- or overflows, and none overflows
# while |y - x| < 2^450 |x|
_FAR_EXPONENT = 61


def _chart(xs, ys):
    """Columns x0, x1 of ``xs`` and d0, d1 of ``ys - xs``, two stacks of shape
    (n, 2) checked once, and k: None, or the power of two by which each row
    was scaled down.  Far out every output is homogeneous in (x, y), of
    degree -2 (w), -3 (gradients) or -4 (Hessian blocks), which
    ``_far_field`` scales back."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2 or xs.shape[-1] != 2 or ys.shape != xs.shape:
        raise DomainError("the sphere chart is two-dimensional")
    k = None
    if not (np.abs(xs).max(initial=0.0) < 2.0**_FAR_EXPONENT and np.isfinite(ys).all()):
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise DomainError("point has non-finite entries")
        k = np.maximum(np.frexp(np.abs(xs).max(axis=1))[1] - _FAR_EXPONENT, 0)
        xs, ys = np.ldexp(xs, -k[:, None]), np.ldexp(ys, -k[:, None])
    d = ys - xs
    return xs[:, 0], xs[:, 1], d[:, 0], d[:, 1], k


def _far_field(k, degree, *outs):
    """Outputs at ``_chart``'s scaled points, row i times 2^(degree k_i)."""
    if k is None:
        return outs
    return tuple(np.ldexp(out, (degree * k).reshape(k.shape + (1,) * (out.ndim - 1))) for out in outs)


def _conformal(xx0, xx1):
    """q = 1 + |x|^2 and c(x) = 4 / q^2 from the columns x0^2 and x1^2."""
    q = 1.0 + (xx0 + xx1)
    return q, 4.0 / q**2


class SphereChartEnergy(EnergyModel):
    """Chart-quadratic energy w(x, y) = c(x) |y - x|^2, c(x) = 4/(1+|x|^2)^2.

    w(x, y) and w(y, x) differ: the metric is frozen at the first argument.

    Each stacked method forms every output entry from the coordinate
    columns, a few array operations of length n, into preallocated (n, 2)
    and (n, 2, 2) arrays.  With s = |y - x|^2, q = 1 + |x|^2, grad c(x) =
    -4 x c / q, hc = c (-4 I / q + 24 x x^T / q^2) and cross = grad c (y -
    x)^T: w = c s, grad2 = 2 c (y - x), grad1 = grad c s - grad2, hess22 =
    2 c I, hess12 = 2 cross - hess22, hess21 = hess12^T (a view) and hess11
    = hc s - 2 (cross + cross^T) + hess22.

    These formulas underflow to wrong values far from the origin (from |x|
    of about 1e52 on, hess11 can have the wrong sign), and (1 + |x|^2)^2
    overflows from 1.2e77.  So a row whose largest coordinate is 2^61 or more is
    evaluated at a point scaled by a power of two and scaled back
    (``_chart``): the same values where the formulas are accurate, accurate
    to rounding elsewhere, 0 only where they underflow, and no warning
    while |y - x| < 2^450 |x|.
    """

    def w_stacked(self, xs, ys):
        x0, x1, d0, d1, k = _chart(xs, ys)
        (w,) = _far_field(k, -2, _conformal(x0 * x0, x1 * x1)[1] * (d0 * d0 + d1 * d1))
        return w

    def grads_stacked(self, xs, ys):
        x0, x1, d0, d1, k = _chart(xs, ys)
        q, c = _conformal(x0 * x0, x1 * x1)
        s = d0 * d0 + d1 * d1
        c2 = 2.0 * c
        g1, g2 = np.empty((2, len(q), 2))
        np.multiply(c2, d0, out=g2[:, 0])
        np.multiply(c2, d1, out=g2[:, 1])
        np.subtract(-4.0 * x0 * c / q * s, g2[:, 0], out=g1[:, 0])
        np.subtract(-4.0 * x1 * c / q * s, g2[:, 1], out=g1[:, 1])
        return _far_field(k, -3, g1, g2)

    def hess_blocks_stacked(self, xs, ys):
        x0, x1, d0, d1, k = _chart(xs, ys)
        xx0, xx1 = x0 * x0, x1 * x1
        q, c = _conformal(xx0, xx1)
        q2, m4q = q**2, -4.0 / q
        s = d0 * d0 + d1 * d1
        gc0, gc1 = -4.0 * x0 * c / q, -4.0 * x1 * c / q
        h11, cross, h22 = np.zeros((3, len(q), 2, 2))
        np.multiply(gc0, d0, out=cross[:, 0, 0])
        np.multiply(gc0, d1, out=cross[:, 0, 1])
        np.multiply(gc1, d0, out=cross[:, 1, 0])
        np.multiply(gc1, d1, out=cross[:, 1, 1])
        np.multiply(2.0, c, out=h22[:, 0, 0])
        h22[:, 1, 1] = h22[:, 0, 0]
        # hc s - 2 (cross + cross^T) entry by entry; 2 (a + a) is 4 a exactly
        np.subtract(c * (m4q + 24.0 * xx0 / q2) * s, 4.0 * cross[:, 0, 0], out=h11[:, 0, 0])
        np.subtract(c * (m4q + 24.0 * xx1 / q2) * s, 4.0 * cross[:, 1, 1], out=h11[:, 1, 1])
        np.subtract(c * (24.0 * (x0 * x1) / q2) * s, 2.0 * (cross[:, 0, 1] + cross[:, 1, 0]), out=h11[:, 0, 1])
        h11[:, 1, 0] = h11[:, 0, 1]
        h11 += h22
        cross *= 2.0
        cross -= h22
        h11, h12, h22 = _far_field(k, -4, h11, cross, h22)
        return h11, h12, np.swapaxes(h12, -1, -2), h22

    def metric(self, x):
        x = as_point(x)[None]
        x0, x1, _, _, k = _chart(x, x)
        (c,) = _far_field(k, -4, _conformal(x0 * x0, x1 * x1)[1])
        return float(c[0]) * np.eye(2)


def sphere_chart_energy() -> SphereChartEnergy:
    return SphereChartEnergy()


class SphereOracles:
    """Closed-form unit-sphere geometry in stereographic chart coordinates.

    The chart maps x in R^2 to X = (2 x_0, 2 x_1, |x|^2 - 1) / (1 + |x|^2)
    and back via x = (X_0, X_1) / (1 - X_2).  Inputs must stay away from
    the north pole and from antipodal configurations.
    """

    @staticmethod
    def _chart_vector(v) -> np.ndarray:
        """``v`` as a chart point or chart vector; any size but 2 is a DomainError."""
        v = as_point(v)
        if v.size != 2:
            raise DomainError(f"sphere-chart vectors have 2 coordinates, got {v.size}")
        return v

    def to_sphere(self, x) -> np.ndarray:
        x = self._chart_vector(x)
        s = float(x @ x)
        return np.array([2.0 * x[0], 2.0 * x[1], s - 1.0]) / (1.0 + s)

    def to_chart(self, X) -> np.ndarray:
        """Chart coordinates of one sphere point (3,) or of a stack (n, 3)."""
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2) or X.shape[-1] != 3:
            raise DomainError(f"sphere points have 3 coordinates, got shape {X.shape}")
        if np.any(X[..., 2] > 1.0 - _POLE_TOL):
            raise DomainError("point too close to the projection pole")
        return X[..., :2] / (1.0 - X[..., 2:])

    def chart_jacobian(self, x) -> np.ndarray:
        """Differential of the chart map, shape (3, 2)."""
        x = self._chart_vector(x)
        q = 1.0 + float(x @ x)
        j = np.empty((3, 2))
        j[0] = [2.0 / q - 4.0 * x[0] * x[0] / q**2, -4.0 * x[0] * x[1] / q**2]
        j[1] = [-4.0 * x[1] * x[0] / q**2, 2.0 / q - 4.0 * x[1] * x[1] / q**2]
        j[2] = [4.0 * x[0] / q**2, 4.0 * x[1] / q**2]
        return j

    def pullback(self, X, V) -> np.ndarray:
        """Chart representation of a tangent vector V at the sphere point X."""
        X, V = np.asarray(X, dtype=float), np.asarray(V, dtype=float)
        if X.shape != (3,) or V.shape != (3,):
            raise DomainError(f"pullback takes a 3-d sphere point and vector, got shapes {X.shape}, {V.shape}")
        if X[2] > 1.0 - _POLE_TOL:
            raise DomainError("point too close to the projection pole")
        r = 1.0 - X[2]
        return np.array(
            [V[0] / r + X[0] * V[2] / r**2, V[1] / r + X[1] * V[2] / r**2]
        )

    def _lift_pair(self, x_a, x_b):
        A = self.to_sphere(x_a)
        B = self.to_sphere(x_b)
        cos = float(np.clip(A @ B, -1.0, 1.0))
        if cos <= -1.0 + 1e-12:
            raise DomainError("antipodal endpoints have no unique geodesic")
        return A, B, cos

    def dist(self, x_a, x_b) -> float:
        _, _, cos = self._lift_pair(x_a, x_b)
        return float(np.arccos(cos))

    def _arc(self, x_a, x_b):
        A, B, cos = self._lift_pair(x_a, x_b)
        theta = float(np.arccos(cos))
        if theta < 1e-14:
            return A, None, 0.0
        u = B - cos * A
        u = u / np.linalg.norm(u)
        return A, u, theta

    def geodesic(self, x_a, x_b, t) -> np.ndarray:
        """Constant-speed geodesic with value x_a at t=0 and x_b at t=1.

        ``t`` is one time (result shape (2,)) or an array of n times
        (result shape (n, 2)).
        """
        A, u, theta = self._arc(x_a, x_b)
        angle = (np.asarray(t, dtype=float) * theta)[..., None]
        if u is None:
            return np.tile(as_point(x_a), angle.shape[:-1] + (1,))
        return self.to_chart(np.cos(angle) * A + np.sin(angle) * u)

    def log(self, x_a, x_b) -> np.ndarray:
        """Chart velocity of the connecting geodesic at t = 0."""
        A, u, theta = self._arc(x_a, x_b)
        if u is None:
            return np.zeros(2)
        return self.pullback(A, theta * u)

    def exp(self, x, v) -> np.ndarray:
        """Endpoint at t = 1 of the geodesic leaving x with chart velocity v."""
        x = self._chart_vector(x)
        X = self.to_sphere(x)
        V = self.chart_jacobian(x) @ self._chart_vector(v)
        speed = float(np.linalg.norm(V))
        if speed < 1e-15:
            return x
        point = np.cos(speed) * X + np.sin(speed) * V / speed
        return self.to_chart(point)

    def transport(self, x_a, x_b, w) -> np.ndarray:
        """Parallel transport of the chart vector w along the geodesic."""
        A, u, theta = self._arc(x_a, x_b)
        W = self.chart_jacobian(x_a) @ self._chart_vector(w)
        if u is None:
            return as_point(w)
        along = float(W @ u)
        transported = along * (np.cos(theta) * u - np.sin(theta) * A) + (W - along * u)
        B = self.to_sphere(x_b)
        return self.pullback(B, transported)

    def christoffel(self, x) -> np.ndarray:
        """Christoffel symbols Gamma[k, i, j] of the conformal chart metric
        g = e^(2 phi) I: delta_ik phi_j + delta_jk phi_i - delta_ij phi_k."""
        x = self._chart_vector(x)
        phi = -2.0 * x / (1.0 + float(x @ x))
        eye = np.eye(2)
        return eye[:, :, None] * phi + eye[:, None, :] * phi[:, None] - eye * phi[:, None, None]

    def covariant_derivative(self, x, theta, eta_value, eta_jacobian) -> np.ndarray:
        """Covariant derivative of a vector field along theta at x.

        ``eta_value`` is the field at x, ``eta_jacobian`` its Euclidean
        Jacobian there.
        """
        theta = self._chart_vector(theta)
        gamma = self.christoffel(x)
        correction = np.einsum("kij,i,j->k", gamma, theta, np.asarray(eta_value, float))
        return np.asarray(eta_jacobian, float) @ theta + correction


def sphere_oracles() -> SphereOracles:
    return SphereOracles()


class CircleSdf(ConstraintModel):
    """Signed distance to the unit circle in the plane."""

    @staticmethod
    def _radius(xs):
        """xs as a float array and |x| over the last axis, kept as an axis of length 1."""
        xs = np.asarray(xs, dtype=float)
        return xs, np.sqrt(np.einsum("...i,...i->...", xs, xs))[..., None]

    def d_stacked(self, xs):
        return self._radius(xs)[1][..., 0] - 1.0

    def grad_d_stacked(self, xs):
        xs, r = self._radius(xs)
        return xs / r

    def hess_d_stacked(self, xs):
        xs, r = self._radius(xs)
        u = xs / r
        return (np.eye(xs.shape[-1]) - _outer(u, u)) / r[..., None]


class SphereSdf(CircleSdf):
    """Signed distance to the unit sphere in R^3 (same formulas as the circle)."""


def sdf_spring_model(surface: ConstraintModel):
    """Spring energy in the ambient space plus the surface constraint."""
    return FlatEnergy(), surface
