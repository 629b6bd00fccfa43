"""Sequential block Thomas elimination: along the time steps of a path
(``_thomas_loop``), and along a periodic curve for models with banded
blocks (``_node_thomas``)."""

from __future__ import annotations

import functools

import numpy as np


def _thomas_loop(lower, diag, upper, rhs) -> np.ndarray:
    """Block Thomas elimination, one pivot solve per row; arguments as ``geodesic._block_thomas``, or rhs (n, b, r)."""
    n, b = rhs.shape[:2]
    # row i of the eliminated system reads x_i + C_i x_{i+1} = d_i, and
    # cd[i] holds [C_i | d_i]; one solve per pivot gives both
    cd = np.zeros((n, b, b + rhs[0, 0].size))
    cd[:-1, :, :b] = upper
    cd[:, :, b:] = rhs.reshape(n, b, -1)
    cd[0] = np.linalg.solve(diag[0], cd[0])
    for i in range(1, n):
        coupled = lower[i - 1] @ cd[i - 1]
        cd[i, :, b:] -= coupled[:, b:]
        cd[i] = np.linalg.solve(diag[i] - coupled[:, :b], cd[i])
    d = cd[:, :, b:].reshape(rhs.shape)
    sol = np.empty(rhs.shape)
    sol[n - 1] = d[n - 1]
    for i in range(n - 2, -1, -1):
        sol[i] = d[i] - cd[i, :, :b] @ sol[i + 1]
    return sol


def _node_thomas(bands, gauge, rhs) -> np.ndarray:
    """Solve a gauged path system of periodic banded blocks in node order.

    At each of n times i the unknowns are a curve x_i of N planar nodes and
    c multipliers mu_i; row j of time i reads sum_{t, o} bands[t, o, j, i]
    x_{i+t-1, (j+o-p) mod N} - (G^T mu_i)_j = rhs[i, 2j : 2j + 2], and
    G x_i = rhs[i, 2N:].  ``bands`` (3, 2p + 1, N, n, 2, 2) lays each block
    out as the rods' ``hess_bands_stacked`` (terms past the first or last
    time are left out).  Runs of p nodes couple only to neighbouring runs:
    the first (p + N mod p nodes) and the multipliers form a border, the
    others, at all n times each, go through ``_thomas_loop`` along the
    curve with the border columns as further right-hand sides, and the
    border follows from its Schur complement, in O(N (n p)^3) in all.
    """
    _, width, nodes, n = bands.shape[:4]
    band_dst, cols_dst, rows_dst, order, (m, q, nb) = _node_layout(width // 2, nodes, n, gauge.shape[0])
    mq = m * q
    buf = np.zeros(3 * mq * q + (2 * mq + nb) * nb + 1)  # the last entry takes what is left out
    buf[band_dst] = bands.reshape(-1)
    g = np.broadcast_to(gauge, (n,) + gauge.shape).reshape(-1)
    buf[cols_dst], buf[rows_dst] = -g, g
    tri, cols, rows = np.split(buf[:-1], np.cumsum([3 * mq * q, (mq + nb) * nb]))
    tri, cols, rows = tri.reshape(3, m, q, q), cols.reshape(mq + nb, nb), rows.reshape(nb, mq)
    vec = np.empty(mq + nb)
    vec[order] = rhs
    y = _thomas_loop(tri[0, 1:], tri[1], tri[2, :-1], np.hstack([vec[:mq, None], cols[:mq]]).reshape(m, q, -1))
    y = y.reshape(mq, nb + 1)
    vec[mq:] = np.linalg.solve(cols[mq:] - rows @ y[:, 1:], vec[mq:] - rows @ y[:, 0])
    vec[:mq] = y[:, 0] - y[:, 1:] @ vec[mq:]
    return vec[order]


@functools.lru_cache(maxsize=8)
def _node_layout(p, nodes, n, c):
    """Read-only index arrays of ``_node_thomas`` (reach p, N nodes, n
    times, c multipliers).  Run r (nodes g + r p .. g + r p + p - 1, g = p
    + N mod p) takes rows r q .. r q + q - 1, q = 2 p n, and the border
    (first g nodes, then multipliers) the last nb, time-major within each;
    ``order[i, e]`` is the row of unknown e of time i.  One buffer holds
    the runs' block bands (3, m, q, q), the border columns (m q + nb, nb)
    and rows (nb, m q); the rest say where bands, -G^T and G go in it."""
    g = p + nodes % p
    m, q = (nodes - g) // p, 2 * p * n
    mq, nb = m * q, (2 * g + c) * n
    i, j, a = np.ogrid[:n, :nodes, :2]
    inner = (j - g) // p * q + (i * p + (j - g) % p) * 2 + a
    points = np.where(j >= g, inner, mq + (i * g + j) * 2 + a).reshape(n, -1)
    order = np.hstack([points, mq + 2 * g * n + i[:, :, 0] * c + np.arange(c)])

    def dst(row, col):
        band = ((col // q - row // q + 1) * m + row // q) * q * q + row % q * q + col % q
        border_col = 3 * mq * q + row * nb + col - mq
        border_row = 3 * mq * q + (mq + nb) * nb + (row - mq) * mq + col
        return np.select([col >= mq, row >= mq], [border_col, border_row], band)

    t, o, j, i, a, b = np.ogrid[:3, : 2 * p + 1, :nodes, :n, :2, :2]
    at = i + t - 1
    band = dst(order[i, 2 * j + a], order[np.clip(at, 0, n - 1), 2 * ((j + o - p) % nodes) + b])
    # offsets from N on repeat a column of a band that wraps onto itself
    left_out = (at < 0) | (at >= n) | (o >= nodes)
    i, k, e = np.ogrid[:n, :c, : 2 * nodes]
    point, multiplier = order[i, e], order[i, 2 * nodes + k]
    layout = [np.where(left_out, 3 * mq * q + (2 * mq + nb) * nb, band), dst(point, multiplier), dst(multiplier, point)]
    layout = [arr.reshape(-1) for arr in layout] + [order]
    for arr in layout:
        arr.setflags(write=False)
    return (*layout, (m, q, nb))
