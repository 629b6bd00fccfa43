"""Every block linear solve of the Newton steps.

A path Jacobian is block tridiagonal in time (``_block_thomas``) or block
lower triangular (``_forward_substitution``: the shifted window and the
ladder, ``geodesic._solve_ladder``).  Up to ``_DENSE_MAX`` unknowns, coarse levels
included, a system is one dense LU.  Above it, the first is halved level
by level by block cyclic reduction, the second when its regrouped blocks
are at most ``_REDUCE_MAX_BLOCK`` wide (row by row otherwise), one stacked
pivot step each.  The rods' gauged path system is solved in node order
(``_node_thomas``), block Thomas elimination (``_thomas_loop``) running in
place in one working array.  Its matrix, rhs included, and the dense LU's
are each one scatter through an index cached per shape (``_node_layout``,
``_dense_index``).

One pivot rule serves every elimination: a stack of pivots is inverted in
one call (``_inv``: 2 x 2 ones in closed form, larger ones by LAPACK) and
applied to all of a pivot's columns by one matrix product.  For the many
columns a pivot carries here, LAPACK's triangular solves cost more than the
inverse and product (a 28 x 28 node-run pivot on its 71 columns: 43 us
against 27 us on a 2-core Xeon, one BLAS thread).  ``np.linalg.solve`` is
left to systems of one right-hand side: the dense LU and the border of
``_node_thomas``.
"""

from __future__ import annotations

import functools

import numpy as np

# largest system (rows times block size) solved as one dense LU: on a 2-core
# Xeon the chart's 30 unknowns at K = 16 took 50 us so against 270 us by cyclic
# reduction, and 126 (K = 64) as long as one reduction level onto 62
_DENSE_MAX = 64
# widest regrouped block (M bands of b) whose lower triangular recurrence is
# solved level by level, not row by row: on that host, for 63-255 rows, that
# took 0.62-0.72x the row loop's time at M = 1, b = 8, 0.90-1.06x at 16,
# 0.93-1.22x at 17, 1.27-1.35x at 32, and at M = 2 0.51-0.61x at b = 8,
# 0.60-0.64x at 9, 1.38-1.66x at 17; shipped models regroup to 8 or past 32
_REDUCE_MAX_BLOCK = 16


def _dense_solve(diag, bands, rhs) -> np.ndarray:
    """Solve a block-banded system, ``diag`` (n, b, b) and ``rhs`` (n, b), as
    one dense LU; ``bands`` holds pairs (m, blocks), the n - |m| blocks of
    band m, block i at block (i + m, i) for m > 0 and at (i, i - m) for
    m < 0, all scattered in one step through ``_dense_index``."""
    n, b = rhs.shape
    offsets, blocks = zip((0, diag), *bands)
    values = np.concatenate(blocks, axis=None)
    if not np.isfinite(values).all():
        # LAPACK's pivot search skips NaN and can meet an exact zero instead
        return np.full((n, b), np.nan)
    a = np.zeros((n * b) ** 2)
    a[_dense_index(n, b, offsets)] = values
    return np.linalg.solve(a.reshape(n * b, n * b), rhs.reshape(n * b)).reshape(n, b)


@functools.lru_cache(maxsize=64)
def _dense_index(n, b, offsets):
    """Read-only positions, in the flattened (n b) x (n b) matrix of
    ``_dense_solve``, of the entries of its bands at ``offsets``: band
    after band, each as its (n - |m|, b, b) stack of blocks."""
    at = np.arange((n * b) ** 2).reshape(n, b, n, b)
    parts = []
    for m in offsets:
        i = np.arange(n - abs(m))
        parts.append(at[i + max(m, 0), :, i - min(m, 0)])
    index = np.concatenate(parts, axis=None)
    index.setflags(write=False)
    return index


def _inv(a) -> np.ndarray:
    """Inverses of stacked pivots ``a`` (..., b, b): the adjugate over the
    determinant at b = 2, else LAPACK's.  LAPACK also takes a 2 x 2 stack in
    which a pivot of finite entries has a determinant that is not a normal
    number, so an exactly singular pivot raises LinAlgError; NaN propagates."""
    if a.shape[-1] != 2:
        return np.linalg.inv(a)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    det = a00 * a11 - a01 * a10
    off = ~(np.abs(det) >= np.finfo(float).tiny) | np.isinf(det)
    if off.any() and np.isfinite(a[off]).all(axis=(-2, -1)).any():
        return np.linalg.inv(a)
    return np.stack([a11, -a01, -a10, a00], axis=-1).reshape(a.shape) / det[..., None, None]


def _block_thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Solve L_i x_{i-1} + D_i x_i + U_i x_{i+1} = r_i, block tridiagonal.

    ``lower``, ``diag`` and ``upper`` have shape (n, b, b), with lower[0] =
    upper[-1] = 0, and ``rhs`` (n, b).  Up to ``_DENSE_MAX`` unknowns, and
    for one row, it is one dense LU.  Above that, block cyclic reduction:
    one stacked solve gives every even row as x_i = y_i - alpha_i x_{i-1} -
    beta_i x_{i+1}; substituting it into the odd rows leaves a block
    tridiagonal system of half the rows (its own lower[0] and upper[-1]
    again zero), solved the same way, and the even rows follow in one
    stacked step.
    """
    n, b = rhs.shape
    if n * b <= _DENSE_MAX or n == 1:
        return _dense_solve(diag, ((1, lower[1:]), (-1, upper[:-1])), rhs)
    # even[j] = [alpha | beta | y] of row 2j; odd row 2j+1 sits between the
    # even rows j and j+1, and the last odd row has no right neighbour when
    # n is even
    cols = np.concatenate([lower[::2], upper[::2], rhs[::2, :, None]], axis=2)
    even = _inv(diag[::2]) @ cols
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
    sol[1::2] = _block_thomas(-left[:, :, :b], diag_odd, upper_odd, rhs_odd)
    sol[::2] = even[:, :, 2 * b]
    sol[2::2] -= (even[1:, :, :b] @ sol[1 : 2 * r : 2, :, None])[..., 0]
    sol[: 2 * m : 2] -= (even[:m, :, b : 2 * b] @ sol[1::2, :, None])[..., 0]
    return sol


def _forward_substitution(diag, bands, rhs) -> np.ndarray:
    """Solve a block lower triangular system.

    ``diag`` has shape (n, b, b) and ``rhs`` (n, b); ``bands[m - 1]`` has
    shape (n - m, b, b), and its block i couples row i + m to unknown i.
    Past ``_DENSE_MAX`` unknowns the diagonal blocks are inverted in one
    stacked call and premultiply the bands: x_i = s_i - sum_m S_m,i x_{i-m}.
    With M bands and M b at most ``_REDUCE_MAX_BLOCK``, that recurrence is
    regrouped into one of (M b)-blocks X_i = (x_i, ..., x_{i-M+1}) and
    solved in about log2(n) stacked levels (``_affine_recurrence``);
    otherwise each of the n steps is a few small matvecs.
    """
    n, b = rhs.shape
    if n * b <= _DENSE_MAX:
        return _dense_solve(diag, enumerate(bands, start=1), rhs)
    inv = _inv(diag)
    sol = (inv @ rhs[..., None])[..., 0]
    scaled = [inv[m:] @ band for m, band in enumerate(bands, start=1)]
    w = len(bands) * b
    if bands and w <= _REDUCE_MAX_BLOCK:
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


def _thomas_loop(lower, diag, cd) -> np.ndarray:
    """Block Thomas elimination, one pivot inverse per row applied to all of
    its columns, in place on ``cd`` = [upper | rhs] (n, b, b + r); bands as
    ``_block_thomas``.  Returns the solution (n, b, r), a view of ``cd``."""
    b = diag.shape[1]
    # row i of the eliminated system reads x_i + C_i x_{i+1} = d_i, and
    # cd[i] holds [C_i | d_i]; one inverse per pivot gives both
    cd[0] = _inv(diag[0]) @ cd[0]
    for i in range(1, len(cd)):
        coupled = lower[i] @ cd[i - 1]
        cd[i, :, b:] -= coupled[:, b:]
        cd[i] = _inv(diag[i] - coupled[:, :b]) @ cd[i]
    sol = cd[:, :, b:]
    for i in range(len(cd) - 2, -1, -1):
        sol[i] -= cd[i, :, :b] @ sol[i + 1]
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
    curve with the rhs and the border columns as its right-hand sides, and
    the border follows from its Schur complement, in O(N (n p)^3) in all.
    All of it runs in one working array laid out by ``_node_layout``.
    """
    _, width, nodes, n = bands.shape[:4]
    band_dst, cols_dst, rows_dst, rhs_dst, order, (m, q, nb) = _node_layout(width // 2, nodes, n, gauge.shape[0])
    mq, w = m * q, q + 1 + nb
    ends = np.cumsum([2 * mq * q, mq * w, nb * (mq + nb + 1)])
    buf = np.zeros(ends[-1] + 1)  # the last entry takes what is left out
    buf[band_dst] = bands.reshape(-1)
    g = np.broadcast_to(gauge, (n,) + gauge.shape).reshape(-1)
    buf[cols_dst], buf[rows_dst] = -g, g
    buf[rhs_dst] = rhs.reshape(-1)
    tri, cd, border, _ = np.split(buf, ends)
    y = _thomas_loop(*tri.reshape(2, m, q, q), cd.reshape(m, q, w)).reshape(mq, nb + 1)
    rows, block, end = np.split(border.reshape(nb, -1), [mq, mq + nb], axis=1)
    vec = np.empty(mq + nb)
    vec[mq:] = np.linalg.solve(block - rows @ y[:, 1:], end[:, 0] - rows @ y[:, 0])
    vec[:mq] = y[:, 0] - y[:, 1:] @ vec[mq:]
    return vec[order]


@functools.lru_cache(maxsize=8)
def _node_layout(p, nodes, n, c):
    """Read-only index arrays of ``_node_thomas`` (reach p, N nodes, n
    times, c multipliers).  Run r (nodes g + r p .. g + r p + p - 1, g = p
    + N mod p) takes rows r q .. r q + q - 1, q = 2 p n, and the border
    (first g nodes, then multipliers) the last nb, time-major within each;
    ``order[i, e]`` is the row of unknown e of time i.  The working array
    holds the runs' lower and diagonal blocks (2, m, q, q), ``cd`` (m, q, q +
    1 + nb) = [upper | rhs | border columns], the border rows [rows | own
    block | rhs] (nb, m q + nb + 1) and a last entry for left-out band terms;
    the rest say where bands, -G^T, G and the rhs (column m q + nb) go."""
    g = p + nodes % p
    m, q = (nodes - g) // p, 2 * p * n
    mq, nb = m * q, (2 * g + c) * n
    i, j, a = np.ogrid[:n, :nodes, :2]
    inner = (j - g) // p * q + (i * p + (j - g) % p) * 2 + a
    points = np.where(j >= g, inner, mq + (i * g + j) * 2 + a).reshape(n, -1)
    order = np.hstack([points, mq + 2 * g * n + i[:, :, 0] * c + np.arange(c)])
    w, start = q + 1 + nb, 2 * mq * q

    def dst(row, col):
        band = (col // q - row // q + 1) * mq * q + row * q + col % q
        cd = start + row * w + np.where(col < mq, col % q, (col - mq + 1) % (nb + 1) + q)
        border = start + mq * w + (row - mq) * (mq + nb + 1) + col
        return np.select([row >= mq, (col >= mq) | (col // q > row // q)], [border, cd], band)

    t, o, j, i, a, b = np.ogrid[:3, : 2 * p + 1, :nodes, :n, :2, :2]
    at = i + t - 1
    band = dst(order[i, 2 * j + a], order[np.clip(at, 0, n - 1), 2 * ((j + o - p) % nodes) + b])
    # offsets from N on repeat a column of a band that wraps onto itself
    left_out = (at < 0) | (at >= n) | (o >= nodes)
    i, k, e = np.ogrid[:n, :c, : 2 * nodes]
    point, multiplier = order[i, e], order[i, 2 * nodes + k]
    layout = [np.where(left_out, -1, band), dst(point, multiplier), dst(multiplier, point), dst(order, mq + nb)]
    layout = [arr.reshape(-1) for arr in layout] + [order]
    for arr in layout:
        arr.setflags(write=False)
    return (*layout, (m, q, nb))
