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


class FlatEnergy(EnergyModel):
    """w(x, y) = |y - x|^2 with exact derivatives; any dimension."""

    symmetric = True

    def w(self, x, y):
        diff = np.asarray(y, float) - np.asarray(x, float)
        return float(diff @ diff)

    def grad1(self, x, y):
        return -2.0 * (np.asarray(y, float) - np.asarray(x, float))

    def grad2(self, x, y):
        return 2.0 * (np.asarray(y, float) - np.asarray(x, float))

    def hess11(self, x, y):
        return 2.0 * np.eye(np.asarray(x).size)

    def hess22(self, x, y):
        return 2.0 * np.eye(np.asarray(x).size)

    def hess12(self, x, y):
        return -2.0 * np.eye(np.asarray(x).size)

    def hess21(self, x, y):
        return -2.0 * np.eye(np.asarray(x).size)

    def metric(self, x):
        return np.eye(np.asarray(x).size)


def flat_energy() -> FlatEnergy:
    return FlatEnergy()


def _conformal_factor(x):
    s = float(x @ x)
    return 4.0 / (1.0 + s) ** 2


def _conformal_grad(x):
    s = float(x @ x)
    return -16.0 * x / (1.0 + s) ** 3


def _conformal_hess(x):
    s = float(x @ x)
    q = 1.0 + s
    return -16.0 * np.eye(x.size) / q**3 + 96.0 * np.outer(x, x) / q**4


class SphereChartEnergy(EnergyModel):
    """Chart-quadratic energy w(x, y) = c(x) |y - x|^2, c(x) = 4/(1+|x|^2)^2.

    Not symmetric: the metric is frozen at the first argument.
    """

    symmetric = False

    @staticmethod
    def _pair(x, y):
        x = as_point(x)
        y = as_point(y)
        if x.size != 2 or y.size != 2:
            raise DomainError("the sphere chart is two-dimensional")
        return x, y

    def w(self, x, y):
        x, y = self._pair(x, y)
        diff = y - x
        return _conformal_factor(x) * float(diff @ diff)

    def grad1(self, x, y):
        x, y = self._pair(x, y)
        diff = y - x
        return _conformal_grad(x) * float(diff @ diff) - 2.0 * _conformal_factor(x) * diff

    def grad2(self, x, y):
        x, y = self._pair(x, y)
        return 2.0 * _conformal_factor(x) * (y - x)

    def hess11(self, x, y):
        x, y = self._pair(x, y)
        diff = y - x
        gc = _conformal_grad(x)
        cross = np.outer(gc, diff)
        return (
            _conformal_hess(x) * float(diff @ diff)
            - 2.0 * (cross + cross.T)
            + 2.0 * _conformal_factor(x) * np.eye(2)
        )

    def hess12(self, x, y):
        x, y = self._pair(x, y)
        return 2.0 * np.outer(_conformal_grad(x), y - x) - 2.0 * _conformal_factor(
            x
        ) * np.eye(2)

    def hess21(self, x, y):
        x, y = self._pair(x, y)
        return 2.0 * np.outer(y - x, _conformal_grad(x)) - 2.0 * _conformal_factor(
            x
        ) * np.eye(2)

    def hess22(self, x, y):
        x, y = self._pair(x, y)
        return 2.0 * _conformal_factor(x) * np.eye(2)

    def metric(self, x):
        x = as_point(x)
        return _conformal_factor(x) * np.eye(2)


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
        X = np.asarray(X, dtype=float)
        if X[2] > 1.0 - _POLE_TOL:
            raise DomainError("point too close to the projection pole")
        return X[:2] / (1.0 - X[2])

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

    def geodesic(self, x_a, x_b, t: float) -> np.ndarray:
        """Constant-speed geodesic with value x_a at t=0 and x_b at t=1."""
        A, u, theta = self._arc(x_a, x_b)
        if u is None:
            return as_point(x_a)
        point = np.cos(t * theta) * A + np.sin(t * theta) * u
        return self.to_chart(point)

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
    """Signed distance to the unit circle in the plane."""

    def d(self, x):
        return float(np.linalg.norm(np.asarray(x, float))) - 1.0

    def grad_d(self, x):
        x = np.asarray(x, dtype=float)
        return x / np.linalg.norm(x)

    def hess_d(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        u = x / r
        return (np.eye(x.size) - np.outer(u, u)) / r


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
