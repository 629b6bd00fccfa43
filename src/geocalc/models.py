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

``sphere_oracles`` exposes the closed-form great-circle geometry pulled
back through the chart: distance, constant-speed geodesic, logarithm,
exponential, parallel transport, and the chart Christoffel symbols.  The
convergence harness and the test suite use these as ground truth.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, EnergyModel, as_point
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
    """w(x, y) = |y - x|^2 with exact derivatives; any dimension.

    The formulas take one point pair of shape (d,) or a stack of shape
    (n, d); the per-point and the stacked methods share them.
    """

    symmetric = True

    @staticmethod
    def _pair(x, y):
        return np.asarray(x, float), np.asarray(y, float)

    @staticmethod
    def _w(x, y):
        return _sq(y - x)[..., 0]

    @staticmethod
    def _grads(x, y):
        g2 = 2.0 * (y - x)
        return -g2, g2

    @staticmethod
    def _eye(x, scale):
        """scale * I for each point of x, shape (..., d, d)."""
        return scale * np.eye(x.shape[-1]) * np.ones(x.shape[:-1] + (1, 1))

    def w(self, x, y):
        return float(self._w(*self._pair(x, y)))

    def grad1(self, x, y):
        return self._grads(*self._pair(x, y))[0]

    def grad2(self, x, y):
        return self._grads(*self._pair(x, y))[1]

    def hess11(self, x, y):
        return self._eye(self._pair(x, y)[0], 2.0)

    def hess22(self, x, y):
        return self._eye(self._pair(x, y)[0], 2.0)

    def hess12(self, x, y):
        return self._eye(self._pair(x, y)[0], -2.0)

    def hess21(self, x, y):
        return self._eye(self._pair(x, y)[0], -2.0)

    def w_stacked(self, xs, ys):
        return self._w(*self._pair(xs, ys))

    def grads_stacked(self, xs, ys):
        return self._grads(*self._pair(xs, ys))

    def hess_blocks_stacked(self, xs, ys):
        xs = self._pair(xs, ys)[0]
        return self._eye(xs, 2.0), self._eye(xs, -2.0), self._eye(xs, -2.0), self._eye(xs, 2.0)

    def metric(self, x):
        return np.eye(np.asarray(x).size)


def flat_energy() -> FlatEnergy:
    return FlatEnergy()


_EYE2 = np.eye(2)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _conformal_factor(x):
    """c(x) = 4 / (1 + |x|^2)^2, with an axis of length 1."""
    return 4.0 / (1.0 + _sq(x)) ** 2


def _conformal(x):
    """q = 1 + |x|^2, c(x) and grad c(x) = -16 x / q^3."""
    q = 1.0 + _sq(x)
    return q, 4.0 / q**2, -16.0 * x / q**3


class SphereChartEnergy(EnergyModel):
    """Chart-quadratic energy w(x, y) = c(x) |y - x|^2, c(x) = 4/(1+|x|^2)^2.

    Not symmetric: the metric is frozen at the first argument.  The
    formulas take one point pair of shape (2,) or a stack of shape (n, 2);
    the per-point and the stacked methods share them.
    """

    symmetric = False

    @staticmethod
    def _pair(x, y, ndim=1):
        """x, y as float arrays of one shape (2,) (ndim 1) or (n, 2) (ndim 2).

        Shape and finiteness are checked once for the whole input, without
        copying it.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != ndim or x.shape[-1] != 2 or y.shape != x.shape:
            raise DomainError("the sphere chart is two-dimensional")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DomainError("point has non-finite entries")
        return x, y

    @staticmethod
    def _w(x, y):
        return (_conformal_factor(x) * _sq(y - x))[..., 0]

    @staticmethod
    def _grad1(x, y):
        diff = y - x
        _, c, gc = _conformal(x)
        return gc * _sq(diff) - 2.0 * c * diff

    @staticmethod
    def _grad2(x, y):
        return 2.0 * _conformal_factor(x) * (y - x)

    @staticmethod
    def _hess11(x, y):
        diff = y - x
        q, c, gc = _conformal(x)
        q = q[..., None]
        hc = -16.0 * _EYE2 / q**3 + 96.0 * _outer(x, x) / q**4
        cross = _outer(gc, diff)
        return (
            hc * _sq(diff)[..., None]
            - 2.0 * (cross + np.swapaxes(cross, -1, -2))
            + 2.0 * c[..., None] * _EYE2
        )

    @staticmethod
    def _hess12(x, y):
        _, c, gc = _conformal(x)
        return 2.0 * _outer(gc, y - x) - 2.0 * c[..., None] * _EYE2

    @staticmethod
    def _hess21(x, y):
        _, c, gc = _conformal(x)
        return 2.0 * _outer(y - x, gc) - 2.0 * c[..., None] * _EYE2

    @staticmethod
    def _hess22(x, y):
        return 2.0 * _conformal_factor(x)[..., None] * _EYE2

    def w(self, x, y):
        return float(self._w(*self._pair(x, y)))

    def grad1(self, x, y):
        return self._grad1(*self._pair(x, y))

    def grad2(self, x, y):
        return self._grad2(*self._pair(x, y))

    def hess11(self, x, y):
        return self._hess11(*self._pair(x, y))

    def hess12(self, x, y):
        return self._hess12(*self._pair(x, y))

    def hess21(self, x, y):
        return self._hess21(*self._pair(x, y))

    def hess22(self, x, y):
        return self._hess22(*self._pair(x, y))

    def w_stacked(self, xs, ys):
        return self._w(*self._pair(xs, ys, 2))

    def grads_stacked(self, xs, ys):
        xs, ys = self._pair(xs, ys, 2)
        return self._grad1(xs, ys), self._grad2(xs, ys)

    def hess_blocks_stacked(self, xs, ys):
        xs, ys = self._pair(xs, ys, 2)
        return self._hess11(xs, ys), self._hess12(xs, ys), self._hess21(xs, ys), self._hess22(xs, ys)

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

    def to_sphere(self, x) -> np.ndarray:
        x = as_point(x)
        s = float(x @ x)
        return np.array([2.0 * x[0], 2.0 * x[1], s - 1.0]) / (1.0 + s)

    def to_chart(self, X) -> np.ndarray:
        """Chart coordinates of one sphere point (3,) or of a stack (n, 3)."""
        X = np.asarray(X, dtype=float)
        if np.any(X[..., 2] > 1.0 - _POLE_TOL):
            raise DomainError("point too close to the projection pole")
        return X[..., :2] / (1.0 - X[..., 2:])

    def chart_jacobian(self, x) -> np.ndarray:
        """Differential of the chart map, shape (3, 2)."""
        x = as_point(x)
        q = 1.0 + float(x @ x)
        j = np.empty((3, 2))
        j[0] = [2.0 / q - 4.0 * x[0] * x[0] / q**2, -4.0 * x[0] * x[1] / q**2]
        j[1] = [-4.0 * x[1] * x[0] / q**2, 2.0 / q - 4.0 * x[1] * x[1] / q**2]
        j[2] = [4.0 * x[0] / q**2, 4.0 * x[1] / q**2]
        return j

    def pullback(self, X, V) -> np.ndarray:
        """Chart representation of a tangent vector V at the sphere point X."""
        X = np.asarray(X, dtype=float)
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
        x = as_point(x)
        X = self.to_sphere(x)
        V = self.chart_jacobian(x) @ as_point(v)
        speed = float(np.linalg.norm(V))
        if speed < 1e-15:
            return x
        point = np.cos(speed) * X + np.sin(speed) * V / speed
        return self.to_chart(point)

    def transport(self, x_a, x_b, w) -> np.ndarray:
        """Parallel transport of the chart vector w along the geodesic."""
        A, u, theta = self._arc(x_a, x_b)
        W = self.chart_jacobian(x_a) @ as_point(w)
        if u is None:
            return as_point(w)
        along = float(W @ u)
        transported = along * (np.cos(theta) * u - np.sin(theta) * A) + (W - along * u)
        B = self.to_sphere(x_b)
        return self.pullback(B, transported)

    def christoffel(self, x) -> np.ndarray:
        """Christoffel symbols Gamma[k, i, j] of the conformal chart metric."""
        x = as_point(x)
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
        x = as_point(x)
        theta = as_point(theta)
        gamma = self.christoffel(x)
        correction = np.einsum("kij,i,j->k", gamma, theta, np.asarray(eta_value, float))
        return np.asarray(eta_jacobian, float) @ theta + correction


def sphere_oracles() -> SphereOracles:
    return SphereOracles()


class CircleSdf(ConstraintModel):
    """Signed distance to the unit circle in the plane.

    The formulas take one point of shape (d,) or a stack of shape (n, d);
    the per-point and the stacked methods share them.
    """

    @staticmethod
    def _radius(x):
        """x as a float array and |x| over the last axis, kept as an axis of length 1."""
        x = np.asarray(x, dtype=float)
        return x, np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]

    def _d(self, x):
        return self._radius(x)[1][..., 0] - 1.0

    def _grad_d(self, x):
        x, r = self._radius(x)
        return x / r

    def _hess_d(self, x):
        x, r = self._radius(x)
        u = x / r
        return (np.eye(x.shape[-1]) - _outer(u, u)) / r[..., None]

    def d(self, x):
        return float(self._d(x))

    def grad_d(self, x):
        return self._grad_d(x)

    def hess_d(self, x):
        return self._hess_d(x)

    def d_stacked(self, xs):
        return self._d(xs)

    def grad_d_stacked(self, xs):
        return self._grad_d(xs)

    def hess_d_stacked(self, xs):
        return self._hess_d(xs)


class SphereSdf(CircleSdf):
    """Signed distance to the unit sphere in R^3 (same formulas as the circle)."""


class EllipsoidSdf(ConstraintModel):
    """Local signed distance to an axis-aligned ellipsoid.

    The closest point p(x) is found by damped Newton on the standard
    one-parameter projection equation; the gradient is the unit outward
    normal at p.  Intended for points near the surface.
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

    def d(self, x):
        x = np.asarray(x, dtype=float)
        p = self._closest_point(x)
        return float(np.sign(self._level(x)) * np.linalg.norm(x - p))

    def grad_d(self, x):
        p = self._closest_point(x)
        n = 2.0 * p / self.semi_axes**2
        return n / np.linalg.norm(n)


def sdf_spring_model(surface: ConstraintModel):
    """Spring energy in the ambient space plus the surface constraint."""
    return FlatEnergy(), surface
