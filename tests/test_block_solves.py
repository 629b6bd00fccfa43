"""The block linear solves of the Newton steps against dense references.

``thomas._block_thomas`` (block tridiagonal, the path solves) and
``thomas._forward_substitution`` (block lower triangular, the whole exp
and ladder) solve a system of at most ``thomas._DENSE_MAX`` unknowns as
one dense LU.  Larger block tridiagonal systems go through block cyclic
reduction at every block size, one row of any width through the dense LU;
larger lower triangular ones reduce level by level when the block size b
is at most ``thomas._REDUCE_MAX_BLOCK``, whatever the number of bands, and
run the row loop
otherwise.  These tests check both on random block diagonally dominant
systems on all sides of those thresholds (n = 32 rows of 2 is the largest
dense system, n = 33 the smallest reduced one), against a dense solve of
the assembled matrix where it fits in memory and, where it does not,
against the sequential block Thomas elimination (``thomas._thomas_loop``)
or the row loop, plus the block residual.  Both also take off-diagonal
bands p < b wide, zero outside their top left p x p as in the level-set
windows: those are checked against a dense solve below and above
``thomas._DENSE_MAX``, the recurrence seen to run on the first p
components of each unknown.  Every pivot is applied through
its inverse, ``thomas._inv``: stacked 2 x 2 pivots by their adjugate over
their determinant, checked for a zero leading entry, singular and NaN
pivots, determinants out of the normal range and backward error, larger
ones by LAPACK.  On pivots of condition numbers up to 1e8 the reduction
(at 2 x 2 blocks too) and the Thomas loop (on several right-hand-side
columns) are checked against a dense solve within 2 eps cond(A) |x|, and
for their singular and NaN pivots.
``thomas._node_thomas`` (the gauged path system of banded periodic blocks,
solved in node order, its runs by ``thomas._thomas_loop``) is checked
against a dense solve of its assembled matrix, for a singular run pivot and
NaN entries, and for what it allocates beyond its one working array; the
dense LU's matrix, one scatter through the cached index
``thomas._dense_index``, against the same matrix assembled block by block.
"""

import tracemalloc

import numpy as np
import pytest

from geocalc import geodesic, thomas

SIZES = [1, 2, 3, 4, 5, 8, 9, 32, 33, 1023]
BLOCKS = [1, 2, 4, 8, 16, 17, 40]
# (n, b): besides every pair of the above, one row too wide for the dense LU,
# still solved densely (the inverse fold's log2 of a gauged rod of N nodes
# has n = 1, b = 2N + 2), and two rows, which reduce onto it
TRIDIAGONAL = [(n, b) for n in SIZES for b in BLOCKS] + [(n, b) for b in (65, 130) for n in (1, 2)]
# largest assembled system solved densely (32 MB)
DENSE_MAX = 2048


def _blocks(rng, count, b):
    # entries in [-1/b, 1/b]: every off-diagonal block row sums to at most 1
    return rng.uniform(-1.0, 1.0, size=(count, b, b)) / b


def _system(seed, n, b, offsets, p=None):
    """Diagonal blocks, off-diagonal blocks at the given row offsets, and rhs.

    The diagonal entries lie within 1/b of 4 and the other entries of a row
    sum to less than 3 in absolute value, so the system is strictly
    diagonally dominant.  With ``p``, the off-diagonal blocks are the top
    left p x p of the blocks drawn, zero elsewhere.
    """
    rng = np.random.default_rng(seed)
    diag = _blocks(rng, n, b) + 4.0 * np.eye(b)
    bands = {m: _blocks(rng, max(n - abs(m), 0), b)[:, :p, :p] for m in offsets}
    return diag, bands, rng.normal(size=(n, b))


def _block_product(diag, bands, x):
    """A x for the block matrix with ``bands[m][i]`` at the top left of block
    (i + max(m, 0), i - min(m, 0))."""
    out = (diag @ x[..., None])[..., 0]
    for m, band in bands.items():
        p = band.shape[-1]
        if m > 0:
            out[m:, :p] += (band @ x[:-m, :p, None])[..., 0]
        else:
            out[:m, :p] += (band @ x[-m:, :p, None])[..., 0]
    return out


def _dense(diag, bands):
    n, b = diag.shape[:2]
    a = np.zeros((n * b, n * b))
    for i in range(n):
        a[i * b : (i + 1) * b, i * b : (i + 1) * b] = diag[i]
    for m, band in bands.items():
        p = band.shape[-1]
        for i, block in enumerate(band):
            row, col = i + max(m, 0), i - min(m, 0)
            a[row * b : row * b + p, col * b : col * b + p] = block
    return a


def _loop(lower, diag, upper, rhs):
    """``thomas._thomas_loop`` on [upper | rhs], ``rhs`` (n, b, r), in a
    new working array."""
    return thomas._thomas_loop(lower, diag, np.concatenate([upper, rhs], axis=2))


def _padded(bands, b):
    """The lower and upper bands as ``thomas._block_thomas`` takes them: n
    rows each, lower[0] = upper[-1] = 0 (b x b, or the bands' p x p)."""
    p = bands[1].shape[-1]
    zero = np.zeros((1, p, p))
    return np.concatenate([zero, bands[1]]), np.concatenate([bands[-1], zero])


def _check(solve, diag, bands, rhs, reference):
    """``solve()`` against a dense solve where it fits, else against
    ``reference()``, and by its block residual."""
    x = solve()
    n, b = rhs.shape
    scale = np.max(np.abs(x))
    assert x.shape == rhs.shape
    residual = _block_product(diag, bands, x) - rhs
    assert np.max(np.abs(residual)) <= 1e-12 * 8.0 * scale
    if n * b <= DENSE_MAX:
        ref = np.linalg.solve(_dense(diag, bands), rhs.ravel()).reshape(n, b)
    else:
        ref = reference()
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, b", TRIDIAGONAL)
def test_block_tridiagonal_solve_matches_a_dense_solve(n, b):
    diag, bands, rhs = _system(10 * n + b, n, b, (1, -1))
    lower, upper = _padded(bands, b)

    def solve():
        return thomas._block_thomas(lower, diag, upper, rhs)

    def loop():
        return _loop(lower, diag, upper, rhs[..., None])[..., 0]

    _check(solve, diag, bands, rhs, loop)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("b", BLOCKS)
@pytest.mark.parametrize("n", SIZES)
def test_block_lower_triangular_solve_matches_a_dense_solve(n, b, count, monkeypatch):
    offsets = tuple(range(1, count + 1))
    diag, bands, rhs = _system(20 * n + b + count, n, b, offsets)

    def solve():
        return thomas._forward_substitution(diag, [bands[m] for m in offsets], rhs)

    def row_loop():
        with monkeypatch.context() as patch:
            patch.setattr(thomas, "_REDUCE_MAX_BLOCK", 0)
            return solve()

    _check(solve, diag, bands, rhs, row_loop)


# (n, b, p): off-diagonal blocks of width p < b, zero outside their top left
# p x p, as in the level-set windows (b = 4, p = 3); each below and above
# _DENSE_MAX (n b = 64), and at b = 17, past _REDUCE_MAX_BLOCK, where the
# lower triangular solve runs its row loop
POINT_WIDTH = [
    (n, b, p)
    for b, p, sizes in ((4, 3, (1, 2, 16, 17, 33, 255)), (6, 2, (10, 11, 64)), (17, 15, (3, 4, 9)))
    for n in sizes
]


@pytest.mark.parametrize("n, b, p", POINT_WIDTH)
def test_point_width_block_tridiagonal_solve_matches_a_dense_solve(n, b, p):
    diag, bands, rhs = _system(30 * n + b + p, n, b, (1, -1), p)
    lower, upper = _padded(bands, b)
    assert lower.shape == upper.shape == (n, p, p)
    _check(lambda: thomas._block_thomas(lower, diag, upper, rhs), diag, bands, rhs, None)


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("n, b, p", POINT_WIDTH)
def test_point_width_block_lower_triangular_solve_matches_a_dense_solve(n, b, p, count, monkeypatch):
    offsets = tuple(range(1, count + 1))
    diag, bands, rhs = _system(50 * n + b + p + count, n, b, offsets, p)
    calls = []
    recurrence = thomas._affine_recurrence

    def recording(steps):
        calls.append(steps.shape)
        return recurrence(steps)

    monkeypatch.setattr(thomas, "_affine_recurrence", recording)
    _check(lambda: thomas._forward_substitution(diag, [bands[m] for m in offsets], rhs), diag, bands, rhs, None)
    # the recurrence runs on the first p components of each unknown alone
    reduced = n * b > thomas._DENSE_MAX and b <= thomas._REDUCE_MAX_BLOCK
    assert calls[:1] == ([(n, count * p, count * p + 1)] if reduced else [])


def test_two_bands_of_nine_wide_blocks_take_the_recurrence(monkeypatch):
    """The recurrence is chosen by the block width b, not by the regrouped
    width M b: two bands of 9 x 9 blocks (M b = 18) are solved level by
    level, where the row loop is about twice as slow."""
    n, b = 63, 9
    diag, bands, rhs = _system(11, n, b, (1, 2))
    calls = []
    recurrence = thomas._affine_recurrence

    def counting(steps):
        calls.append(steps.shape)
        return recurrence(steps)

    monkeypatch.setattr(thomas, "_affine_recurrence", counting)
    x = thomas._forward_substitution(diag, [bands[1], bands[2]], rhs)
    assert calls[0] == (n, 2 * b, 2 * b + 1)
    ref = np.linalg.solve(_dense(diag, bands), rhs.ravel()).reshape(n, b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def _node_system(seed, nodes, p, c, n=5):
    """A periodic banded path system of n times: bands (3, 2p + 1, N, n, 2,
    2) as ``_node_thomas`` reads them, a dense gauge (c, 2N) and a rhs.

    The diagonal entries lie near 4 and the other band entries of a row sum
    to less than 3 in absolute value.  Where 2p + 1 > N, the offsets from N
    on repeat the entries of the column they name again, as a rod's do.
    """
    rng = np.random.default_rng(seed)
    bands = rng.uniform(-1.0, 1.0, size=(3, 2 * p + 1, nodes, n, 2, 2)) / (3 * (2 * p + 1))
    bands[1, p] += 4.0 * np.eye(2)
    bands[:, nodes:] = bands[:, : max(2 * p + 1 - nodes, 0)]
    return bands, rng.normal(size=(c, 2 * nodes)), rng.normal(size=(n, 2 * nodes + c))


def _node_dense(bands, gauge):
    """The assembled matrix of ``_node_system``, unknowns in time order."""
    _, width, nodes, n = bands.shape[:4]
    p, c = width // 2, gauge.shape[0]
    b = 2 * nodes + c
    a = np.zeros((n, b, n, b))
    for t in range(3):
        for o in range(min(width, nodes)):
            for j in range(nodes):
                col = (j + o - p) % nodes
                for i in range(max(1 - t, 0), min(n + 1 - t, n)):
                    a[i, 2 * j : 2 * j + 2, i + t - 1, 2 * col : 2 * col + 2] = bands[t, o, j, i]
    for i in range(n):
        a[i, : 2 * nodes, i, 2 * nodes :] = -gauge.T
        a[i, 2 * nodes :, i, : 2 * nodes] = gauge
    return a.reshape(n * b, n * b)


# the band offsets the solves pass: _block_thomas's lower and upper band,
# and _forward_substitution's one and two bands
@pytest.mark.parametrize("offsets", [(1, -1), (1,), (1, 2)], ids=str)
@pytest.mark.parametrize("b", [1, 2, 4])
def test_the_dense_solve_scatters_every_block_where_it_belongs(offsets, b):
    for n in range(1, 33):
        diag, bands, rhs = _system(40 * n + b, n, b, offsets)
        x = thomas._dense_solve(diag, [(m, bands[m]) for m in offsets], rhs)
        # the same matrix assembled block by block, so the same LU
        np.testing.assert_array_equal(x, np.linalg.solve(_dense(diag, bands), rhs.ravel()).reshape(n, b))
        index = thomas._dense_index(n, b, (0, *offsets), b)
        assert index is thomas._dense_index(n, b, (0, *offsets), b)
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0
        # a NaN in the last block of the last band, or in the last pivot
        # when that band is empty, still makes the whole solution NaN
        poisoned = bands[offsets[-1]] if n > abs(offsets[-1]) else diag
        poisoned[-1, 0, 0] = np.nan
        x = thomas._dense_solve(diag, [(m, bands[m]) for m in offsets], rhs)
        assert np.isnan(x).all()


# N = 8 with runs of 4 leaves a single interior run; 17 is divisible by
# neither run length
@pytest.mark.parametrize("c", [0, 2, 4])
@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("nodes", [8, 17, 64])
def test_node_ordered_solve_matches_a_dense_solve(nodes, p, c):
    bands, gauge, rhs = _node_system(100 * nodes + 10 * p + c, nodes, p, c)
    x = thomas._node_thomas(bands, gauge, rhs)
    a = _node_dense(bands, gauge)
    assert x.shape == rhs.shape
    assert np.max(np.abs(a @ x.ravel() - rhs.ravel())) <= 1e-12 * 8.0 * np.max(np.abs(x))
    ref = np.linalg.solve(a, rhs.ravel()).reshape(rhs.shape)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


# a single run (N = 8, p = 4), seven and a wider border (17, 2), and the
# 31 runs of the rod morph's system (64, 2)
@pytest.mark.parametrize("c", [0, 2])
@pytest.mark.parametrize("nodes, p", [(8, 4), (17, 2), (64, 2)])
def test_node_ordered_solve_raises_on_an_exactly_singular_run_pivot(nodes, p, c):
    bands, gauge, rhs = _node_system(100 * nodes + 10 * p + c, nodes, p, c)
    # the x of node g = p + N mod p at time 0 is the first unknown of the
    # first run; with its column zero in every band row, the run's first
    # pivot has a zero column
    g, n = p + nodes % p, len(rhs)
    t, o, j, i = np.ogrid[:3, : 2 * p + 1, :nodes, :n]
    bands[((j + o - p) % nodes == g) & (i + t - 1 == 0), :, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        thomas._node_thomas(bands, gauge, rhs)

    # which the Newton loop reports as such
    def step(z, r):
        return thomas._node_thomas(bands, gauge, r)

    with pytest.raises(geodesic.SolverError, match="singular block pivot"):
        geodesic._newton(np.ones_like, step, rhs, None, "path")


@pytest.mark.parametrize("nodes, p, c", [(8, 4, 0), (17, 2, 2), (64, 2, 2)])
def test_a_nan_in_the_node_ordered_system_propagates(nodes, p, c):
    bands, gauge, rhs = _node_system(100 * nodes + 10 * p + c, nodes, p, c)
    g, n = p + nodes % p, len(rhs)
    rng = np.random.default_rng(nodes)
    # the band blocks the solve reads: none past the first or last time,
    # none of a repeated offset
    t, o, _, i = np.ogrid[:3, : 2 * p + 1, :nodes, :n]
    kept = (i + t - 1 >= 0) & (i + t - 1 < n) & (o < nodes)
    read = np.argwhere(np.broadcast_to(kept[..., None, None], bands.shape))
    # band entries the solve reads, a diagonal one of the border's own block
    # among them, and rhs entries
    places = [("band", tuple(k)) for k in read[rng.choice(len(read), 40, replace=False)]]
    places += [("band", (1, p, 0, 0, 0, 0))]
    places += [("rhs", np.unravel_index(k, rhs.shape)) for k in rng.choice(rhs.size, 10, replace=False)]
    for kind, k in places:
        poisoned = {"band": bands.copy(), "rhs": rhs.copy()}
        poisoned[kind][k] = np.nan
        x = thomas._node_thomas(poisoned["band"], gauge, poisoned["rhs"])
        # all of x is NaN, except that a NaN on the diagonal of the border's
        # own block meets LAPACK's pivot search in the border's Schur
        # complement, which leaves part of x finite (at least 46 % NaN on the
        # systems of N = 8 to 17 with every entry tried in turn)
        border_diagonal = kind == "band" and k[:2] == (1, p) and k[2] < g and k[4] == k[5]
        assert np.isnan(x).all() or (border_diagonal and np.isnan(x).any())

        # which the Newton loop reports as a correction that is not finite
        def step(z, r):
            return thomas._node_thomas(poisoned["band"], gauge, poisoned["rhs"])

        with pytest.raises(geodesic.SolverError, match="diverged, the Newton correction of iteration 1 is not finite"):
            geodesic._newton(np.ones_like, step, rhs, None, "path")


def test_the_node_ordered_solve_allocates_little_beyond_its_working_array():
    """The system of a rod morph at N = 64, K = 8 (reach 2, two gauge rows).
    Its matrix and rhs are scattered once into one working array and
    eliminated there: the tracemalloc peak of a solve, after a warm-up call
    that caches the layout, is at most 1.3 times that array's bytes
    (measured 1.06; 1.95 when the elimination copied its right-hand sides
    and its solution)."""
    bands, gauge, rhs = _node_system(7, 64, 2, 2, n=7)
    thomas._node_thomas(bands, gauge, rhs)
    layout = thomas._node_layout(2, 64, 7, 2)
    assert layout is thomas._node_layout(2, 64, 7, 2)
    for index in layout[:-1]:
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0
    m, q, nb = layout[-1]
    working = 8 * (2 * m * q * q + m * q * (q + 1 + nb) + nb * (m * q + nb + 1) + 1)
    tracemalloc.start()
    try:
        thomas._node_thomas(bands, gauge, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * working


def test_the_thomas_loop_carries_further_right_hand_sides_column_by_column():
    diag, bands, rhs = _system(7, 9, 17, (1, -1))
    lower, upper = _padded(bands, 17)
    cols = np.random.default_rng(8).normal(size=(9, 17, 3))
    got = _loop(lower, diag, upper, cols)
    for k in range(3):
        want = _loop(lower, diag, upper, cols[:, :, k : k + 1])[:, :, 0]
        assert np.max(np.abs(got[:, :, k] - want)) <= 1e-12 * np.max(np.abs(want))


def test_2x2_inverse_passes_a_zero_leading_entry():
    a = np.array([[[0.0, 1.0], [2.0, 3.0]], [[1e-300, 1.0], [1.0, 1.0]]])
    want = np.array([[[1.0, -2.0], [3.0, 0.5]], [[1.0, 0.0], [-1.0, 2.0]]])
    x = thomas._inv(a) @ (a @ want)
    np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-15)


def test_2x2_elimination_raises_on_an_exactly_singular_pivot():
    good = np.array([[2.0, 1.0], [1.0, 3.0]])
    # a NaN elsewhere in the stack does not hide the singular pivot
    for other in (good, [[np.nan, 1.0], [1.0, 3.0]]):
        for bad in ([[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 2.0]], np.zeros((2, 2))):
            a = np.stack([good, np.array(bad), np.array(other)])
            with pytest.raises(np.linalg.LinAlgError):
                thomas._inv(a)


def test_2x2_elimination_lets_a_nan_propagate():
    a = np.tile([[2.0, 1.0], [1.0, 3.0]], (3, 1, 1))
    a[1, 0, 1] = np.nan
    x = thomas._inv(a) @ np.ones((3, 2, 2))
    assert np.isnan(x[1]).any()
    # [[2, 1], [1, 3]] x = (1, 1) gives x = (0.4, 0.2)
    np.testing.assert_allclose(x[[0, 2]], np.tile([[0.4], [0.2]], (2, 1, 2)), rtol=1e-15)


@pytest.mark.parametrize(
    "pivot",
    [
        pytest.param(1e-200 * np.eye(2), id="det-underflows-to-0"),
        pytest.param(1e-160 * np.eye(2), id="det-subnormal"),
        pytest.param(1e200 * np.eye(2), id="det-overflows-to-inf"),
        pytest.param(1e200 * np.array([[1.0, 1.0], [1.0, 2.0]]), id="det-overflows-to-nan"),
    ],
)
def test_2x2_inverse_of_a_determinant_out_of_range_is_lapacks(pivot):
    # none of these pivots is singular, but the adjugate over their
    # determinant would be infinite (0), off by up to 1e-5 relative
    # (subnormal), 0 (inf) or NaN (inf - inf), so LAPACK inverts them
    a = np.stack([pivot, [[2.0, 1.0], [1.0, 3.0]]])
    with np.errstate(over="ignore", invalid="ignore"):  # as the Newton loop runs
        inv = thomas._inv(a)
    ref = np.linalg.inv(a)
    eps = np.finfo(float).eps
    assert np.all(np.abs(inv - ref).max(axis=(1, 2)) <= 8.0 * eps * np.abs(ref).max(axis=(1, 2)))


def _conditioned_2x2(rng, n):
    """Random 2 x 2 pivots of condition numbers log-uniform in [1, 1e12]."""
    cond = 10.0 ** rng.uniform(0.0, 12.0, size=n)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    u, _ = np.linalg.qr(rng.normal(size=(n, 2, 2)))
    v, _ = np.linalg.qr(rng.normal(size=(n, 2, 2)))
    sigma = np.zeros((n, 2, 2))
    sigma[:, 0, 0], sigma[:, 1, 1] = scale, scale / cond
    return u @ sigma @ np.swapaxes(v, 1, 2), cond


def test_2x2_elimination_is_backward_stable():
    rng = np.random.default_rng(4)
    a, cond = _conditioned_2x2(rng, 4096)
    rhs = rng.normal(size=(4096, 2, 5))
    x = thomas._inv(a) @ rhs
    eps = np.finfo(float).eps
    bound = 8.0 * eps * np.linalg.norm(a, 2, axis=(1, 2)) * np.linalg.norm(x, axis=(1, 2))
    assert np.all(np.linalg.norm(a @ x - rhs, axis=(1, 2)) <= bound)
    ref = np.linalg.solve(a, rhs)
    assert np.all(np.linalg.norm(x - ref, axis=(1, 2)) <= 8.0 * eps * cond * np.linalg.norm(x, axis=(1, 2)))


def test_2x2_elimination_inverts_a_stack():
    rng = np.random.default_rng(5)
    a, cond = _conditioned_2x2(rng, 1024)
    inv = thomas._inv(a)
    eps = np.finfo(float).eps
    ref = np.linalg.inv(a)
    size = np.linalg.norm(inv, axis=(1, 2))
    assert np.all(np.linalg.norm(inv - ref, axis=(1, 2)) <= 8.0 * eps * cond * size)
    assert np.all(np.linalg.norm(a @ inv - np.eye(2), axis=(1, 2)) <= 8.0 * eps * cond)


# (kernel, b, n): the reduction at blocks of 17 and 40, of 4 at n = 65 (two
# levels of stacked pivot inverses) and of 2 at n = 65 (one level of
# closed-form inverses); the Thomas loop at blocks of 17 and 40 on three
# right-hand-side columns
KERNELS = [
    pytest.param(thomas._block_thomas, 17, 33, id="17-33"),
    pytest.param(thomas._block_thomas, 40, 17, id="40-17"),
    pytest.param(thomas._block_thomas, 4, 65, id="4-65"),
    pytest.param(thomas._block_thomas, 2, 65, id="2-65"),
    pytest.param(_loop, 17, 33, id="loop-17-33"),
    pytest.param(_loop, 40, 17, id="loop-40-17"),
]

def _ill_conditioned_system(seed, n, b, *cols):
    """Block tridiagonal (lower, diag, upper, rhs) whose pivots have
    condition numbers log-uniform in [1, 1e8] and norm 1; rhs has shape
    (n, b, *cols).

    Each off-diagonal block is 0.1 D_i R with D_i the pivot of its row and
    |R|_2 < 1, so every Schur complement of the elimination is D_i (I - E_i)
    with |E_i| of order 0.01: the pivots the kernels invert keep the
    conditioning drawn for them.
    """
    rng = np.random.default_rng(seed)
    cond = 10.0 ** rng.uniform(0.0, 8.0, size=n)
    u, _ = np.linalg.qr(rng.normal(size=(n, b, b)))
    v, _ = np.linalg.qr(rng.normal(size=(n, b, b)))
    sigma = cond[:, None] ** -np.linspace(0.0, 1.0, b)
    diag = (u * sigma[:, None, :]) @ np.swapaxes(v, 1, 2)
    lower, upper = np.zeros((2, n, b, b))
    lower[1:] = 0.1 * diag[1:] @ _blocks(rng, n - 1, b)
    upper[:-1] = 0.1 * diag[:-1] @ _blocks(rng, n - 1, b)
    return lower, diag, upper, rng.normal(size=(n, b, *cols))


def _kernel_system(kernel, b, n):
    return _ill_conditioned_system(b + n, n, b, *((3,) if kernel is _loop else ()))


@pytest.mark.parametrize("kernel, b, n", KERNELS)
def test_inverse_applied_pivots_are_as_accurate_as_a_dense_solve(kernel, b, n):
    lower, diag, upper, rhs = _kernel_system(kernel, b, n)
    x = kernel(lower, diag, upper, rhs)
    a = _dense(diag, {1: lower[1:], -1: upper[:-1]})
    ref = np.linalg.solve(a, rhs.reshape(n * b, -1))
    # each of the two solves is within about eps cond(A) |x| of the exact
    # x (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # 14.1, for the inverse); so their difference is within 2 eps cond(A)
    # |x|, column by column.  Measured: at most 0.21 eps cond(A) |x| over
    # ten seeds, with cond(A) about 8e7
    eps = np.finfo(float).eps
    error = np.linalg.norm(x.reshape(n * b, -1) - ref, axis=0)
    assert np.all(error <= 2.0 * eps * np.linalg.cond(a) * np.linalg.norm(ref, axis=0))


@pytest.mark.parametrize("kernel, b, n", KERNELS)
def test_an_exactly_singular_pivot_raises(kernel, b, n):
    lower, diag, upper, rhs = _kernel_system(kernel, b, n)
    # the first pivot, and an even row whose pivot is its diagonal block:
    # no coupling reaches the loop's row k, and the reduction's first level
    # inverts the even diagonal blocks as they are
    for k in (0, 2 * (n // 4)):
        singular, uncoupled = diag.copy(), lower.copy()
        singular[k, :, 0] = 0.0
        uncoupled[k] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            kernel(uncoupled, singular, upper, rhs)

        # which the Newton loop reports as such
        def step(z, r):
            return kernel(uncoupled, singular, upper, r)

        with pytest.raises(geodesic.SolverError, match="singular block pivot"):
            geodesic._newton(np.ones_like, step, rhs, None, "path")


@pytest.mark.parametrize("kernel, b, n", KERNELS + [pytest.param(thomas._block_thomas, 4, 33, id="4-33")])
def test_a_nan_pivot_propagates(kernel, b, n):
    # in every row: a NaN that reaches the reduction's last, dense level
    # can meet an exact zero of the assembled matrix in LAPACK's pivot
    # search, which skips NaN, so the dense LU returns NaN for a matrix
    # that is not finite instead of raising (as it did at b = 4, n = 33
    # and 65, for rows in the middle)
    lower, diag, upper, rhs = _kernel_system(kernel, b, n)
    for k in range(n):
        poisoned = diag.copy()
        poisoned[k, 0, 0] = np.nan
        x = kernel(lower, poisoned, upper, rhs)
        assert np.isnan(x).any()

        # which the Newton loop reports as a correction that is not finite
        def step(z, r):
            return kernel(lower, poisoned, upper, r)

        with pytest.raises(geodesic.SolverError, match="diverged, the Newton correction of iteration 1 is not finite"):
            geodesic._newton(np.ones_like, step, rhs, None, "path")
