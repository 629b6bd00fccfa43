"""Closed planar rods and their dissipation energies.

A rod is a closed curve sampled at N nodes on the uniform periodic
parameter grid s_i = i/N.  Derivatives along the curve use periodic
central differences (first order: stencil over 2/N, second order: the
standard three-point stencil), integrals the equal-weight trapezoid rule.

Two energies are provided for a pair of rods (x, y), both weighted by a
thickness delta:

* simplified: tangential stretching plus linearized bending,

      int  delta/2 (1 - |y_s|^2/|x_s|^2)^2 |x_s|
         + delta^3 |y_ss - x_ss|^2 |x_s|  ds;

* full: the same tangential density (1 - A)^2 / 2 together with the
  squared curvature difference delta^3 (kappa[y] - kappa[x])^2 |x_s|.

Both have analytic first derivatives (the full rod's by reverse mode
through the curvature) and a closed-form metric.  The simplified rod's
Hessian blocks are closed-form too; the full rod's are complex-step
derivatives of its gradients, exact to rounding, perturbing columns of
far-apart nodes together.  Energies, gradients and Hessians of a whole
stack of segments (``w_stacked``, ``grads_stacked``,
``hess_bands_stacked``) are one array evaluation; the Hessians come as
periodic bands, and ``hess_blocks_stacked`` is their dense view.

Curvature follows kappa = (x_s/|x_s|)_s . (D90 x_s) / |x_s|^2 with D90 the
counterclockwise quarter turn, so a counterclockwise unit circle has
kappa = +1.

Both energies are invariant under translating either rod on its own, so
interior-point Hessians of path solves have a two-dimensional null space
per point; ``rod_gauge(n)`` is the mean-position gauge that removes it,
for any solve or operator on rods of n nodes.  The full rod reads the
nodes only through D1, which at even N vanishes on the sawtooth x_i =
(-1)^i e too, and ``rod_gauge(n, "full")`` pins that component as well.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import _CS_STEP, DomainError, EnergyModel, _as_count, _outer
from .geodesic import LinearGauge

__all__ = [
    "RodCurve",
    "circle_rod",
    "random_smooth_rod",
    "SimplifiedRodEnergy",
    "FullRodEnergy",
    "rod_energy",
    "rod_gauge",
    "load_rod_csv",
    "save_rod_csv",
]

_MIN_LENGTH = 1e-12


def _as_nodes(obj) -> np.ndarray:
    nodes = np.asarray(obj, dtype=float)
    if nodes.ndim == 1:
        if nodes.size % 2:
            raise DomainError("flattened rod coordinates must have even length")
        nodes = nodes.reshape(-1, 2)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise DomainError(f"rod nodes must have shape (N, 2), got {nodes.shape}")
    if nodes.shape[0] < 8:
        raise DomainError("a rod needs at least 8 nodes")
    if not np.all(np.isfinite(nodes)):
        raise DomainError("rod nodes have non-finite entries")
    return nodes


@dataclass(frozen=True)
class RodCurve:
    """Closed curve given by N >= 8 nodes on the uniform periodic grid."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = _as_nodes(self.nodes).copy()
        seg = np.linalg.norm(np.roll(nodes, -1, axis=0) - nodes, axis=1)
        if np.any(seg <= _MIN_LENGTH):
            raise DomainError("degenerate segment: consecutive nodes coincide")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def coord(self) -> np.ndarray:
        """Flattened 2N coordinate vector (x_0, y_0, x_1, y_1, ...)."""
        return self.nodes.reshape(-1).copy()

    @classmethod
    def from_coord(cls, vec) -> "RodCurve":
        return cls(np.asarray(vec, dtype=float).reshape(-1, 2))


def circle_rod(n_nodes: int, radius: float = 1.0, center=(0.0, 0.0)) -> RodCurve:
    """Counterclockwise circle sampled at n_nodes."""
    s = np.linspace(0.0, 2.0 * np.pi, n_nodes, endpoint=False)
    nodes = np.stack([radius * np.cos(s), radius * np.sin(s)], axis=1)
    return RodCurve(nodes + np.asarray(center, dtype=float))


def random_smooth_rod(
    n_nodes: int, rng: np.random.Generator, base_radius: float = 1.0, modes: int = 4, amplitude: float = 0.05
) -> RodCurve:
    """Circle perturbed by a few random low-frequency Fourier modes."""
    s = np.linspace(0.0, 2.0 * np.pi, n_nodes, endpoint=False)
    radius = np.full(n_nodes, float(base_radius))
    for m in range(1, modes + 1):
        radius += (
            amplitude / m**2 * (rng.normal() * np.cos(m * s) + rng.normal() * np.sin(m * s))
        )
    nodes = np.stack([radius * np.cos(s), radius * np.sin(s)], axis=1)
    return RodCurve(nodes)


def _d1(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    out = np.empty_like(arr)
    np.subtract(arr[2:], arr[:-2], out=out[1:-1])
    out[0] = arr[1] - arr[-1]
    out[-1] = arr[0] - arr[-2]
    out *= n / 2.0
    return out


def _d2(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    out = np.empty_like(arr)
    np.subtract(arr[2:] + arr[:-2], 2.0 * arr[1:-1], out=out[1:-1])
    out[0] = arr[1] - 2.0 * arr[0] + arr[-1]
    out[-1] = arr[0] - 2.0 * arr[-1] + arr[-2]
    out *= float(n) ** 2
    return out


def _rot90(arr: np.ndarray) -> np.ndarray:
    out = np.empty_like(arr)
    out[..., 0] = -arr[..., 1]
    out[..., 1] = arr[..., 0]
    return out


def _speeds(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _d1(nodes)
    ell = np.sqrt(np.einsum("...j,...j->...", t, t))
    if np.any(ell.real <= _MIN_LENGTH):
        raise DomainError("degenerate segment: vanishing parametric speed")
    return t, ell


def _curvature_from_speeds(t: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """kappa_i = (D1 u)_i . (R t_i) / ell_i^2 with u = t / ell, for speeds
    of shape (N, 2) or, node axis leading, (N, B, 2)."""
    unit = t / ell[..., None]
    normal = _rot90(t) / ell[..., None]
    return np.einsum("...j,...j->...", _d1(unit), normal) / ell


def _curvature_pullback(t: np.ndarray, ell: np.ndarray, kappa: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Gradient of sum_i c_i kappa_i with respect to the speeds t (reverse
    mode through ``_curvature_from_speeds``; D1^T = -D1 on the periodic
    grid and R^T = -R)."""
    unit = t / ell[..., None]
    scaled = (c / ell**2)[..., None]
    g_unit = -_d1(scaled * _rot90(t))
    tangential = g_unit - np.einsum("...j,...j->...", g_unit, unit)[..., None] * unit
    return tangential / ell[..., None] - scaled * (_rot90(_d1(unit)) + 2.0 * kappa[..., None] * t)


def _rod_stack(xs, n_nodes: int) -> np.ndarray:
    """Validated nodes of a stack (m, 2N) of flattened rods with N = n_nodes
    nodes, node axis leading: shape (N, m, 2)."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 * n_nodes:
        raise DomainError(f"expected rods of {n_nodes} nodes stacked as (m, {2 * n_nodes}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("rod nodes have non-finite entries")
    return arr.reshape(len(arr), n_nodes, 2).transpose(1, 0, 2)


class _RodEnergy(EnergyModel):
    """Energies and derivatives shared by the rod energies.

    A subclass supplies the per-node |y_s|^2/|x_s|^2, |x_s| and squared
    bending difference (``_densities``), the gradient kernel ``_grads``,
    the Jacobian of its bending term for the metric, and its Hessian blocks
    as bands (``hess_bands_stacked``), of which ``hess_blocks_stacked`` is
    the dense view.  Each stacked method evaluates every segment of a stack
    in one array pass.  The attribute ``reach`` is the bands' half-width in
    nodes; ``geodesic`` solves a K-step path in node order only while
    K * reach <= ``n_nodes``.
    """

    def __init__(self, n_nodes: int, delta: float = 0.1):
        self.n_nodes = _as_count("n_nodes", n_nodes, 8)
        if not 0.0 < delta < np.inf:  # NaN compares false
            raise DomainError(f"thickness delta must be finite and positive, got {delta!r}")
        self.delta = float(delta)
        self.dim = 2 * self.n_nodes
        n, r = self.n_nodes, self.reach
        self._near = (np.arange(n)[:, None] + np.arange(-r, r + 1)) % n  # nodes j-r..j+r of row j

    @abstractmethod
    def _grads(self, nx, ny):
        """Both slot gradients as node arrays, for one rod pair (N, 2) or a
        batch (N, ..., 2); the node axis leads so that ``_d1``/``_d2`` serve
        both, and the two arguments broadcast against each other.

        Implementations stay complex-analytic, so that the full rod's
        complex-step sweep differentiates them exactly: no ``abs``, no
        conjugation, no ``np.maximum`` or ``np.minimum``, and any
        comparison is made on ``.real`` only."""

    @abstractmethod
    def hess_bands_stacked(self, xs, ys):
        """(hess11, hess12, hess21, hess22) as periodic bands (4, 2r + 1, N,
        m, 2, 2), r the reach: [block, o, j, i] is the 2 x 2 block of nodes j
        and (j + o - r) mod N of segment i; the dense blocks are zero off the
        band, and where 2r + 1 > N the offsets from N on repeat a column."""

    def hess_blocks_stacked(self, xs, ys):
        """Dense view of ``hess_bands_stacked``: four arrays (m, 2N, 2N)."""
        n = self.n_nodes
        band = self.hess_bands_stacked(xs, ys)[:, :n]  # each column once
        dense = np.zeros((4, band.shape[3], n, 2, n, 2))
        dense[:, :, np.arange(n)[:, None], :, self._near[:, :n], :] = band.transpose(2, 1, 0, 3, 4, 5)
        return tuple(dense.reshape(4, -1, self.dim, self.dim))

    @abstractmethod
    def _bending_jacobian(self, t, ell):
        """Jacobian B of the bending term's per-node quantity w.r.t. the
        flattened nodes, shape (N, rows per node, 2N), from the speeds."""

    def _pair(self, xs, ys):
        return _rod_stack(xs, self.n_nodes), _rod_stack(ys, self.n_nodes)

    def w_stacked(self, xs, ys):
        # segment axis leading, so that each row sums like a lone segment
        ratio, ell, bend = (np.ascontiguousarray(a.T) for a in self._densities(*self._pair(xs, ys)))
        h, d = 1.0 / self.n_nodes, self.delta
        tangential = 0.5 * d * np.sum((1.0 - ratio) ** 2 * ell, axis=-1)
        return h * (tangential + d**3 * np.sum(bend * ell, axis=-1))

    def grads_stacked(self, xs, ys):
        g1, g2 = self._grads(*self._pair(xs, ys))
        m = g1.shape[1]
        return g1.transpose(1, 0, 2).reshape(m, -1), g2.transpose(1, 0, 2).reshape(m, -1)

    def metric(self, x):
        """Closed-form metric h [2 delta A^T diag(1/ell) A + delta^3 B^T
        diag(ell) B], the second-order term of w(x, x + v) in v: A has the
        rows u_i . (D1 v)_i of the tangential density, with u = t / ell the
        unit tangent, and B is the subclass's bending Jacobian."""
        n, d = self.n_nodes, self.dim
        t, ell = _speeds(_rod_stack(np.reshape(x, (1, -1)), n)[:, 0])
        a = np.einsum("ij,ijp->ip", t / ell[:, None], _d1(np.eye(d).reshape(n, 2, d)))
        b = self._bending_jacobian(t, ell)
        bend = b.reshape(-1, d).T @ (ell[:, None, None] * b).reshape(-1, d)
        return (2.0 * self.delta * a.T @ (a / ell[:, None]) + self.delta**3 * bend) / n


class SimplifiedRodEnergy(_RodEnergy):
    """Tangential stretching plus linearized bending, analytic gradients
    and closed-form Hessian blocks.

    With the density f = delta/2 (1 - rho)^2 |t| + delta^3 |c|^2 |t| of a
    node, t = D1 x, s = D1 y, c = D2 y - D2 x and rho = |s|^2/|t|^2, block
    XY is h L_X^T F L_Y: F holds each node's second derivatives of f in
    (t, s, c), L_X the stencils by which slot X enters them.  The blocks
    are banded to +-2 nodes; the metric's bending Jacobian is D2 (x) I_2.
    """

    reach = 2

    def __init__(self, n_nodes: int, delta: float = 0.1):
        super().__init__(n_nodes, delta)
        n = self.n_nodes
        p = np.array([-0.5, 0.0, 0.5]) * n  # D1 at node offsets -1, 0, 1
        q = np.array([1.0, -2.0, 1.0]) * n**2  # D2
        stencils = np.array([[p, 0.0 * p, -q], [0.0 * p, p, q]])  # L_x, L_y
        # h L_X[a]^T L_Y[b] per block (11, 12, 22) and pair of (t, s, c)
        self._coef = np.einsum("xva,ywb->xyvwab", stencils, stencils)[[0, 0, 1], [0, 1, 1]] / n

    def _fields(self, nx, ny):
        """Gradient ingredients of node arrays laid out as in ``_grads``."""
        t, ell = _speeds(nx)
        ty, _ = _speeds(ny)
        ratio = np.einsum("...j,...j->...", ty, ty) / ell**2
        dc = _d2(ny) - _d2(nx)
        return t, ell, ty, ratio, dc

    def _densities(self, nx, ny):
        _, ell, _, ratio, dc = self._fields(nx, ny)
        return ratio, ell, np.einsum("...j,...j->...", dc, dc)

    def hess_bands_stacked(self, xs, ys):
        t, ell, s, rho, c = self._fields(*self._pair(xs, ys))
        d, eye = self.delta, np.eye(2)
        u, l, r = t / ell[..., None], ell[..., None, None], rho[..., None, None]
        phi = 0.5 * d * (1.0 - r) ** 2 + 2.0 * d * r * (1.0 - r) + d**3 * np.sum(c * c, axis=-1)[..., None, None]
        tt = (phi * eye - (phi + 2.0 * d * r * (1.0 - 3.0 * r)) * _outer(u, u)) / l
        ts = 2.0 * d * (1.0 - 3.0 * r) / l**2 * _outer(u, s)
        tc = 2.0 * d**3 * _outer(u, c)
        ss = -2.0 * d * (1.0 - r) / l * eye + 4.0 * d / l**3 * _outer(s, s)
        zero = np.zeros_like(tt)
        f = np.array([[tt, ts, tc], [ts.swapaxes(-1, -2), ss, zero], [tc.swapaxes(-1, -2), zero, 2.0 * d**3 * l * eye]])
        # (block, a, b, node, segment, 2, 2): node j - a of each product
        # feeds entry (j, j + b - a), at offset b - a of the band
        prods = np.tensordot(self._coef, f, axes=([1, 2], [0, 1]))
        band = np.zeros((4, 5) + prods.shape[3:])
        for a in range(3):
            band[(0, 1, 3), 2 - a : 5 - a] += np.roll(prods[:, a], a - 1, axis=2)
        # h21 = h12^T: entry (j, j + o - 2) is h12's (j + o - 2, j), transposed
        for o in range(5):
            band[2, o] = np.roll(band[1, 4 - o], 2 - o, axis=0).swapaxes(-1, -2)
        return band

    def _grads(self, nx, ny):
        """Both gradients; complex-analytic, as ``_RodEnergy._grads`` says."""
        t, ell, ty, ratio, dc = self._fields(nx, ny)
        h = 1.0 / self.n_nodes
        d = self.delta
        dc_sq = np.einsum("...j,...j->...", dc, dc)

        # first-slot gradient through t = D1 x and c = D2 x
        phi = 0.5 * d * (1.0 - ratio) ** 2 + 2.0 * d * (1.0 - ratio) * ratio + d**3 * dc_sq
        p = (h * phi)[..., None] * (t / ell[..., None])
        q = -2.0 * h * d**3 * ell[..., None] * dc
        g1 = -_d1(p) + _d2(q)

        # second-slot gradient through ty = D1 y and cy = D2 y
        a = (-2.0 * h * d * (1.0 - ratio) / ell)[..., None] * ty
        b = 2.0 * h * d**3 * ell[..., None] * dc
        g2 = -_d1(a) + _d2(b)
        return g1, g2

    def _bending_jacobian(self, t, ell):
        # D2 of the identity, node axis leading: D2 (x) I_2 as (N, 2, 2N)
        n = self.n_nodes
        return _d2(np.eye(2 * n).reshape(n, 2, 2 * n))


class FullRodEnergy(_RodEnergy):
    """Tangential stretching plus the squared curvature difference,
    analytic gradients.

    Hessians are complex-step derivatives of the gradients: the imaginary
    part of ``_grads`` at a rod moved by i h along a coordinate is h times
    that coordinate's Jacobian column, with no subtraction, so the blocks
    are exact to rounding for any tiny h (Squire & Trapp, SIAM Review
    40(1), 1998).  Curvature at node i reads nodes i-2..i+2, so the gradient
    at node m reads nodes m-r..m+r, r = 4: the column of a coordinate of
    node k is zero outside the rows of nodes k-r..k+r, and columns of nodes
    at least 2r+1 apart (periodic distance) are perturbed together.  The N
    nodes are split into floor(N/(2r+1)) contiguous arcs, at least one; a
    node's color is its position in its arc, and a group is one color and
    one coordinate: 2N groups up to N = 17, at most 26 from N = 18 on (20
    for N = 64, 128).  The metric's bending Jacobian is the curvature's,
    D kappa, from one reverse sweep per node.
    """

    reach = 4

    def __init__(self, n_nodes: int, delta: float = 0.1):
        super().__init__(n_nodes, delta)
        n = self.n_nodes

        # color of node k: its position in its arc; group of column 2k + a:
        # (color, a)
        r = self.reach
        span = 2 * r + 1
        node = np.arange(n)
        arcs = max(n // span, 1)
        starts = node[:arcs] * n // arcs
        color = node - starts[np.searchsorted(starts, node, side="right") - 1]
        group = 2 * color[:, None] + np.arange(2)  # (node, coordinate)
        n_groups = 2 * (int(color.max()) + 1)
        # unit perturbation of each group, laid out like the sweep's batch
        # of rods: (node, group, coordinate)
        self._groups = np.zeros((n, n_groups, 2))
        self._groups[node[:, None], group, np.arange(2)] = 1.0
        # group of each band entry's column, (node, offset, coordinate)
        self._band_groups = group[self._near]

    def _sweep(self, nx, ny, first: bool, out):
        """Complex-step Jacobians of both gradients w.r.t. one slot, for the
        node arrays (N, m, 2) of m segments, written to ``out`` as two real
        bands (2r + 1, N, m, 2, 2), laid out as ``hess_bands_stacked``.

        Each color group is moved by i h at once, and the groups' perturbed
        rods of every segment go through ``_grads`` as one batch (node,
        segment, group, 2), with the other slot broadcast as (node,
        segment, 1, 2) so that its fields are computed once per segment.
        A row within r nodes of a column's node reads only nodes within 2r
        of it, where no other column of its group is perturbed, so that
        row's imaginary part is h times exactly that column's entry: the
        banded entries are the per-column derivatives."""
        h = _CS_STEP
        batch = (nx if first else ny)[:, :, None] + 1j * h * self._groups[:, None]
        grads = self._grads(batch, ny[:, :, None]) if first else self._grads(nx[:, :, None], batch)
        # g is (node, segment, group, coordinate); entry [j, o, b] of the
        # index reads the group of column node near[j, o], coordinate b
        node = np.arange(self.n_nodes)[:, None, None]
        for g, band in zip(grads, out):
            np.divide(g.imag[node, :, self._band_groups].transpose(1, 0, 3, 4, 2), h, out=band)

    def hess_bands_stacked(self, xs, ys):
        nx, ny = self._pair(xs, ys)
        band = np.empty((4, 2 * self.reach + 1, self.n_nodes, nx.shape[1], 2, 2))
        self._sweep(nx, ny, True, band[::2])  # hess11, hess21
        self._sweep(nx, ny, False, band[1::2])  # hess12, hess22
        return band

    def _fields(self, nx, ny):
        t, ell = _speeds(nx)
        ty, elly = _speeds(ny)
        ratio = np.einsum("...j,...j->...", ty, ty) / ell**2
        kx = _curvature_from_speeds(t, ell)
        ky = _curvature_from_speeds(ty, elly)
        return t, ell, ty, elly, ratio, kx, ky

    def _densities(self, nx, ny):
        _, ell, _, _, ratio, kx, ky = self._fields(nx, ny)
        return ratio, ell, (ky - kx) ** 2

    def _grads(self, nx, ny):
        """Both gradients; complex-analytic, as ``_RodEnergy._grads`` says."""
        t, ell, ty, elly, ratio, kx, ky = self._fields(nx, ny)
        h = 1.0 / self.n_nodes
        d = self.delta
        dk = ky - kx

        # first slot: the densities' dependence on ell = |t| as in the
        # simplified rod, then kx's on t; g = D1^T (dW/dt) = -D1 (dW/dt)
        phi = 0.5 * d * (1.0 - ratio) ** 2 + 2.0 * d * (1.0 - ratio) * ratio + d**3 * dk**2
        p = (h * phi)[..., None] * (t / ell[..., None])
        c = 2.0 * h * d**3 * dk * ell  # dW/dky = -dW/dkx
        g1 = -_d1(p - _curvature_pullback(t, ell, kx, c))

        # second slot: the tangential density through ty, then ky's on ty
        a = (-2.0 * h * d * (1.0 - ratio) / ell)[..., None] * ty
        g2 = -_d1(a + _curvature_pullback(ty, elly, ky, c))
        return g1, g2

    def _bending_jacobian(self, t, ell):
        # c = I: batch column j pulls kappa_j back to the speeds, and
        # D1^T = -D1 carries that on to the nodes
        n = self.n_nodes
        kappa = _curvature_from_speeds(t, ell)
        dk = -_d1(_curvature_pullback(t[:, None], ell[:, None], kappa[:, None], np.eye(n)))
        return dk.transpose(1, 0, 2).reshape(n, 1, 2 * n)


def rod_energy(kind: str, n_nodes: int, delta: float = 0.1) -> EnergyModel:
    """Build a rod energy model; ``kind`` is 'simplified' or 'full'."""
    if kind == "simplified":
        return SimplifiedRodEnergy(n_nodes, delta)
    if kind == "full":
        return FullRodEnergy(n_nodes, delta)
    raise DomainError(f"unknown rod energy kind {kind!r}")


def rod_gauge(n_nodes: int, kind: str = "simplified") -> LinearGauge:
    """Gauge of rods of ``n_nodes`` nodes under the energy ``kind``: G x,
    which each solve pins where flat space puts it, is the node average of
    the rod x, and for the full rod at even N also that of (-1)^i x_i."""
    n = _as_count("n_nodes", n_nodes, 1)
    if kind not in ("simplified", "full"):
        raise DomainError(f"unknown rod energy kind {kind!r}")
    rows = [np.ones(n)] + [(-1.0) ** np.arange(n)] * (kind == "full" and n % 2 == 0)
    return LinearGauge(matrix=np.kron(np.array(rows) / n, np.eye(2)))


def save_rod_csv(curve: RodCurve, path) -> None:
    """One row per node, columns x, y."""
    lines = ["x,y"] + [f"{repr(float(p[0]))},{repr(float(p[1]))}" for p in curve.nodes]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_rod_csv(path) -> RodCurve:
    """Read a rod; the first nonblank row, if non-numeric, is a header, and
    every other row must have exactly two numeric fields, x and y."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    for i, line in enumerate(lines):
        try:
            values = [float(part) for part in line.split(",")]
        except ValueError:
            if i:
                raise DomainError(f"malformed rod row: {line!r}") from None
            continue  # header
        if len(values) != 2:
            raise DomainError(f"rod row needs 2 fields, got {len(values)}: {line!r}")
        rows.append(values)
    if not rows:
        raise DomainError("rod file contains no nodes")
    return RodCurve(np.asarray(rows))
