"""Per-point central differences, the independent reference of the tests.

The rods differentiate their energies in closed form and by complex step;
these loops differentiate one point at a time, from ``w`` alone, so the
tests can check the rods' gradients and Hessian blocks against them.
"""

import numpy as np


def central_jacobian(func, x, step):
    """Central-difference Jacobian of ``func`` at the vector x, column j
    differentiating along x_j; for a scalar ``func`` it is the gradient."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        cols.append(
            (np.asarray(func(x + e), dtype=float) - np.asarray(func(x - e), dtype=float)) / (2.0 * step)
        )
    return np.stack(cols, axis=-1)


def central_hess_blocks(w, x, y, step):
    """(hess11, hess12, hess21, hess22) of the scalar ``w(x, y)`` from w
    alone: the central differences of its central-difference gradient,
    the four-point stencils w(z ± step e_i ± step e_j) of z = (x, y)."""
    d = np.size(x)

    def _w(z):
        return w(z[:d], z[d:])

    hess = central_jacobian(lambda z: central_jacobian(_w, z, step), np.concatenate([x, y]), step)
    return hess[:d, :d], hess[:d, d:], hess[d:, :d], hess[d:, d:]
