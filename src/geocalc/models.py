"""Concrete energy models and geometric oracles.

Shipped backends:

* ``flat_energy``: the squared Euclidean distance w = |y - x|^2.  Used on
  its own it makes all discrete operators exact; paired with a level-set
  constraint it is the spring energy of an embedded hypersurface.
* ``sphere_chart_energy``: the chart-quadratic energy
  w(x, y) = g_x(y - x, y - x) on the stereographic chart of the unit
  sphere (projection from the north pole onto the equatorial plane), with
  the conformal metric g_x = 4 I / (1 + |x|^2)^2.
* signed-distance surfaces (circle, sphere, ellipsoid) for constrained
  geodesics with the spring energy.

Each model implements only the stacked methods of ``core.EnergyModel`` or
``geodesic.ConstraintModel``, one array evaluation over a whole stack
(``EllipsoidSdf`` runs its closest-point Newton row by row), and inherits
the per-point methods as views of a stack of one.

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
    "EllipsoidSdf",
    "sdf_spring_model",
]

_POLE_TOL = 1e-8


def _sq(v):
    """|v|^2 over the last axis, kept as an axis of length 1."""
    return (v * v).sum(-1, keepdims=True)


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
        return _sq(np.asarray(ys, float) - np.asarray(xs, float))[..., 0]

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


_EYE2 = np.eye(2)


def _conformal_factor(x):
    """c(x) = 4 / (1 + |x|^2)^2, with an axis of length 1."""
    return 4.0 / (1.0 + _sq(x)) ** 2


def _conformal(x):
    """q = 1 + |x|^2, c(x) and grad c(x) = -16 x / q^3."""
    q = 1.0 + _sq(x)
    return q, 4.0 / q**2, -16.0 * x / q**3


class SphereChartEnergy(EnergyModel):
    """Chart-quadratic energy w(x, y) = c(x) |y - x|^2, c(x) = 4/(1+|x|^2)^2.

    w(x, y) and w(y, x) differ: the metric is frozen at the first argument.
    """

    @staticmethod
    def _pair(xs, ys):
        """xs, ys as float arrays of one shape (n, 2).

        Shape and finiteness are checked once for the whole stack, without
        copying it.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 2 or xs.shape[-1] != 2 or ys.shape != xs.shape:
            raise DomainError("the sphere chart is two-dimensional")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise DomainError("point has non-finite entries")
        return xs, ys

    def w_stacked(self, xs, ys):
        x, y = self._pair(xs, ys)
        return (_conformal_factor(x) * _sq(y - x))[..., 0]

    def grads_stacked(self, xs, ys):
        x, y = self._pair(xs, ys)
        diff = y - x
        _, c, gc = _conformal(x)
        g2 = 2.0 * c * diff
        return gc * _sq(diff) - g2, g2

    def hess_blocks_stacked(self, xs, ys):
        x, y = self._pair(xs, ys)
        diff = y - x
        q, c, gc = _conformal(x)
        q = q[..., None]
        h22 = 2.0 * c[..., None] * _EYE2
        hc = -16.0 * _EYE2 / q**3 + 96.0 * _outer(x, x) / q**4
        cross = _outer(gc, diff)
        cross_t = np.swapaxes(cross, -1, -2)
        h11 = hc * _sq(diff)[..., None] - 2.0 * (cross + cross_t) + h22
        h12 = 2.0 * cross - h22
        return h11, h12, np.swapaxes(h12, -1, -2), h22

    def metric(self, x):
        x = as_point(x)
        return float(_conformal_factor(x)[0]) * np.eye(2)


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
        """Christoffel symbols Gamma[k, i, j] of the conformal chart metric."""
        x = self._chart_vector(x)
        phi_grad = -2.0 * x / (1.0 + float(x @ x))
        gamma = np.zeros((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    gamma[k, i, j] = (
                        (i == k) * phi_grad[j]
                        + (j == k) * phi_grad[i]
                        - (i == j) * phi_grad[k]
                    )
        return gamma

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


class EllipsoidSdf(ConstraintModel):
    """Local signed distance to an axis-aligned ellipsoid.

    The closest point p(x) is found by damped Newton on the standard
    one-parameter projection equation, one point of a stack at a time; the
    gradient is the unit outward normal at p.  Intended for points near
    the surface.
    """

    def __init__(self, semi_axes):
        axes = np.asarray(semi_axes, dtype=float)
        if np.any(axes <= 0):
            raise DomainError("semi axes must be positive")
        self.semi_axes = axes

    def _closest_point(self, x):
        a2 = self.semi_axes**2
        x = np.asarray(x, dtype=float)
        t = 0.0
        lo = -float(np.min(a2)) * 0.999
        for _ in range(100):
            denom = a2 + t
            phi = float(np.sum(x**2 * a2 / denom**2)) - 1.0
            if abs(phi) < 1e-14:
                break
            dphi = float(np.sum(-2.0 * x**2 * a2 / denom**3))
            step = phi / dphi
            t_new = t - step
            while t_new <= lo:  # keep the pivot inside the admissible branch
                step *= 0.5
                t_new = t - step
            t = t_new
        return x * a2 / (a2 + t)

    def _level(self, x):
        return float(np.sum(np.asarray(x, float) ** 2 / self.semi_axes**2)) - 1.0

    def _distance(self, x):
        return np.sign(self._level(x)) * np.linalg.norm(x - self._closest_point(x))

    def _normal(self, x):
        n = 2.0 * self._closest_point(x) / self.semi_axes**2
        return n / np.linalg.norm(n)

    def d_stacked(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.array([self._distance(x) for x in xs])

    def grad_d_stacked(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.array([self._normal(x) for x in xs]).reshape(xs.shape)


def sdf_spring_model(surface: ConstraintModel):
    """Spring energy in the ambient space plus the surface constraint."""
    return FlatEnergy(), surface
