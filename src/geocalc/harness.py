"""Experiment runner: convergence studies, consistency audits, rod morphs.

The convergence study solves the boundary-value geodesic at K = 2^k for a
range of exponents and measures four errors per K against a reference:

* err_geo: max over nodes of |x_k - x_ref(k/K)|,
* err_log: |K * (x_1 - x_0) - log_ref|,
* err_exp: |EXP^K(v/K) - exp_ref| for v = log_ref,
* err_pt:  |K * P(w/K) - transport_ref| along the solved path,

all in the Euclidean norm of the coordinates.  Each K starts from the
K/2 solution prolonged (old nodes kept, midpoints inserted) when K/2 is
a level too: nested iteration.  The sphere chart and flat space have
closed-form references, which their backends carry; the others (level
sets and gauged rods alike) are measured against the 2K level
(successive differences, self-convergence), with v the discrete log of
the finest level, 2 K_max.  Fitted orders are least-squares slopes of
log(err) against log(1/K) over the errors above ``FLOOR_FACTOR`` times
the Newton tolerance; with fewer than three the order is undefined
(None).

``build_backend`` is the one place that knows what a model name means: a
model, its constraint (a level set, a rod's gauge, or None), a point
sampler and the closed-form references, if any.  The study, the CLI and
the rod morph all take their backend from it; a rod of a study config
has len(xa) / 2 nodes (``_study_backend``).
"""

from __future__ import annotations

import json
import numbers
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import DiscretePath, DomainError, _labelled, _write_csv, as_point, check_consistency
from .geodesic import SolverConfig, _require, solve_geodesic
from .models import (
    CircleSdf,
    SphereSdf,
    flat_energy,
    sdf_spring_model,
    sphere_chart_energy,
    sphere_oracles,
)
from .operators import _shoot, _transport, discrete_exp_path
from .rods import RodCurve, load_rod_csv, random_smooth_rod, rod_energy, rod_gauge, save_rod_csv

__all__ = [
    "ConfigError",
    "StudyConfig",
    "ConvergenceReport",
    "MODEL_NAMES",
    "build_backend",
    "fit_order",
    "run_convergence_study",
    "run_consistency_audit",
    "AuditReport",
    "run_rod_morph",
    "write_report_csv",
    "read_report_csv",
    "write_orders_json",
]

MODEL_NAMES = (
    "flat",
    "sphere-chart",
    "sdf-sphere",
    "sdf-circle",
    "rod-simplified",
    "rod-full",
)


class ConfigError(Exception):
    """Invalid study or CLI configuration."""


def _is_number(v, types) -> bool:
    """Whether v is an instance of ``types``; a bool, an int subclass, never is."""
    return isinstance(v, types) and not isinstance(v, bool)


def _list_of(value, types) -> bool:
    """Whether a value is a list, tuple, range or 1-d array of ``types``."""
    return isinstance(value, (list, tuple, range, np.ndarray)) and all(_is_number(v, types) for v in value)


@dataclass(frozen=True)
class StudyConfig:
    """Settings of one convergence study; mirrors the JSON config keys.

    Every field is checked on construction, also through
    ``dataclasses.replace``: an invalid one is a ConfigError.
    """

    model: str = "sphere-chart"
    xa: tuple = (0.5, 0.0)
    xb: tuple = (-0.5, 2.0)
    w: tuple = (-0.4, 0.0)
    k_exponents: tuple = tuple(range(1, 11))
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_dir: str | None = None

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODEL_NAMES}")
        ks = self.k_exponents
        if not (_list_of(ks, numbers.Integral) and len(ks) and min(ks) >= 0):
            raise ConfigError(f"k_exponents must be a nonempty range of nonnegative ints, got {ks!r}")
        object.__setattr__(self, "k_exponents", tuple(sorted({int(e) for e in ks})))
        for key in ("xa", "xb", "w"):
            value = getattr(self, key)
            if not (_list_of(value, numbers.Real) and len(value)):
                raise ConfigError(f"{key} must be a nonempty list of numbers, got {value!r}")
            object.__setattr__(self, key, tuple(float(v) for v in value))
        if len(self.xa) != len(self.xb):
            raise ConfigError(f"xa and xb differ in dimension: {len(self.xa)} and {len(self.xb)}")
        if not isinstance(self.solver, SolverConfig):
            raise ConfigError(f"solver must be a SolverConfig, got {self.solver!r}")
        if not (self.output_dir is None or isinstance(self.output_dir, str)):
            raise ConfigError(f"output_dir must be a path or None, got {self.output_dir!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        known = {"model", "xa", "xb", "w", "k_exponents", "solver", "output_dir"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "k_exponents" in kwargs:
            pair = kwargs["k_exponents"]
            if not (_list_of(pair, int) and len(pair) == 2):
                raise ConfigError(f"k_exponents must be a pair of integers [lo, hi], got {pair!r}")
            kwargs["k_exponents"] = tuple(range(pair[0], pair[1] + 1))
        if isinstance(kwargs.get("solver"), dict):
            try:
                kwargs["solver"] = SolverConfig(**kwargs["solver"])
            except TypeError as err:
                raise ConfigError(str(err)) from err
        return cls(**kwargs)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-K error table plus fitted convergence orders."""

    ks: tuple
    err_geo: tuple
    err_log: tuple
    err_exp: tuple
    err_pt: tuple
    orders: dict
    reference: str

    def column(self, name: str):
        return {"geo": self.err_geo, "log": self.err_log, "exp": self.err_exp, "pt": self.err_pt}[name]


@dataclass(frozen=True)
class _Backend:
    model: object
    constraint: object  # None, a level set or a LinearGauge
    sample: object  # rng -> admissible point
    default_tol: float
    # (xa, xb, w) -> (geo, log, exp, pt, description) closed-form references:
    # geo(ts) maps n times in [0, 1] to the (n, d) reference points, exp is
    # the exact exp of log; None for a backend without them
    oracle: object = None


def _chart_oracle(xa, xb, w):
    orc = sphere_oracles()
    log_ref = orc.log(xa, xb)
    refs = log_ref, orc.exp(xa, log_ref), orc.transport(xa, xb, w), "analytic great-circle oracle"
    return (lambda ts: orc.geodesic(xa, xb, ts), *refs)


def _flat_oracle(xa, xb, w):
    return lambda ts: xa + ts[:, None] * (xb - xa), xb - xa, xb, w, "closed flat-space forms"


def build_backend(name: str, n_nodes: int = 64, delta: float = 0.1) -> _Backend:
    """Construct a named backend: its model, constraint, point sampler,
    audit tolerance and study references.

    The sdf backends are held on their level set, the rod backends (of
    ``n_nodes`` nodes and thickness ``delta``; the others ignore both)
    by ``rod_gauge(n_nodes, kind)``.
    """
    if name == "flat":
        return _Backend(flat_energy(), None, lambda rng: rng.normal(size=2), 1e-6, _flat_oracle)
    if name == "sphere-chart":
        return _Backend(sphere_chart_energy(), None, lambda rng: 0.8 * rng.normal(size=2), 1e-6, _chart_oracle)
    if name in ("sdf-circle", "sdf-sphere"):
        surface, dim = (CircleSdf(), 2) if name == "sdf-circle" else (SphereSdf(), 3)

        def sample_unit(rng):
            v = rng.normal(size=dim)
            return v / np.linalg.norm(v)

        return _Backend(*sdf_spring_model(surface), sample_unit, 1e-6)
    if name in ("rod-simplified", "rod-full"):
        kind = name.split("-", 1)[1]
        model = rod_energy(kind, n_nodes, delta)
        return _Backend(model, rod_gauge(n_nodes, kind), lambda rng: random_smooth_rod(n_nodes, rng).coord, 1e-4)
    raise ConfigError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def _study_backend(cfg: StudyConfig) -> _Backend:
    """The backend of a study config, whose rod has len(xa) / 2 nodes.

    For a rod, a point dimension below 16 is a DomainError here, and an
    odd one at the first solve, where the gauge meets the points.
    """
    dim = len(cfg.xa)
    try:
        return build_backend(cfg.model, dim // 2)
    except DomainError as err:
        raise DomainError(f"model {cfg.model} cannot take points of dimension {dim} ({err})") from err


# errors at most FLOOR_FACTOR * newton_tol are at the solver's floor: a solve
# stops once its residual is under newton_tol, and the exact discrete
# geodesic of sdf-circle and sdf-sphere then still differs from its
# reference by 1.3e-10 at K = 4 and 8 with newton_tol 1e-10
FLOOR_FACTOR = 10.0


def fit_order(errors, ks, floor: float = 0.0) -> float:
    """Least-squares slope of log(err) versus log(1/K).

    Errors at or below ``floor`` (nonpositive ones, by default) are
    excluded with a warning; at least three must remain, otherwise the
    order is undefined and ConfigError is raised.
    """
    errors = np.asarray(errors, dtype=float)
    ks = np.asarray(ks, dtype=float)
    if errors.shape != ks.shape:
        raise ConfigError("errors and Ks must have equal length")
    mask = errors > max(floor, 0.0)
    if not np.all(mask):
        warnings.warn(
            f"excluding {int(np.sum(~mask))} nonpositive or floor-level (<= {floor:g}) error(s)"
            " from the order fit",
            stacklevel=2,
        )
    if int(np.sum(mask)) < 3:
        raise ConfigError(f"need at least 3 errors above {floor:g} to fit an order")
    slope = np.polyfit(np.log(1.0 / ks[mask]), np.log(errors[mask]), 1)[0]
    return float(slope)


def _prolong(rows) -> np.ndarray:
    """Rows (n + 1, ...) of a level refined to 2n + 1: the old rows at the
    even indices and the midpoints of neighbours at the odd ones.

    The solves the prolonged rows start project them onto the level set,
    if there is one.
    """
    out = np.empty((2 * len(rows) - 1,) + rows.shape[1:])
    out[::2] = rows
    out[1::2] = (rows[:-1] + rows[1:]) / 2.0
    return out


def _cascade(Ks, solve) -> dict:
    """``solve(K, coarse)`` for each K in turn, as a dict K -> result.

    ``coarse`` is the result at K / 2 when that is one of the Ks (they
    increase), else None.  A SolverError names the K it failed at.
    """
    out = {}
    for K in Ks:
        with _labelled(f"study failed at K={K}: "):
            out[K] = solve(K, out.get(K // 2))
    return out


def run_convergence_study(cfg: StudyConfig) -> ConvergenceReport:
    """Measure the four operator errors over K = 2^k and fit their orders.

    Every backend runs the same study under its own constraint, a rod's
    gauge included (``_study_backend``).  The levels are solved in
    increasing K, each started from the prolonged K/2 solution when K/2
    is a level too.
    """
    backend = _study_backend(cfg)
    model, constraint, solver = backend.model, backend.constraint, cfg.solver
    xa = as_point(cfg.xa)
    xb = as_point(cfg.xb)
    w = as_point(cfg.w)
    oracle = backend.oracle(xa, xb, w) if backend.oracle else None
    ks = [2**e for e in cfg.k_exponents]
    # without an oracle each K is measured against 2K, so every 2K is solved
    levels = ks if oracle else sorted(set(ks) | {2 * K for K in ks})

    def geodesic(K, coarse):
        init = None if coarse is None else _prolong(coarse)
        res = solve_geodesic(xa, xb, K, model, solver, constraint=constraint, init_path=init)
        _require(res.converged, res.residual, "geodesic solve")
        return res.path.points

    paths = _cascade(levels, geodesic)
    # the reference log: the closed form, or the finest level's discrete log
    v = oracle[1] if oracle else levels[-1] * (paths[levels[-1]][1] - xa)

    def shoot(K, coarse):
        if coarse is None:
            return discrete_exp_path(xa, v / K, K, model, solver, constraint).points
        start = _prolong(coarse)
        start[1] = xa + v / K
        return _shoot(xa, v / K, start, model, solver, constraint).points

    def transport(K, coarse):
        # transported displacements at nodes 0..K; the coarse ones, for the
        # doubled step, are halved
        zetas = None if coarse is None else _prolong(coarse)[1:] / 2.0
        return np.vstack([w / K, _transport(DiscretePath(paths[K]), w / K, zetas, model, solver, constraint)[3]])

    exps = _cascade(levels, shoot)
    zetas = _cascade(levels, transport)

    def measured(K):
        """(nodes, log, exp endpoint, transported w) at level K."""
        return paths[K], K * (paths[K][1] - xa), exps[K][-1], K * zetas[K][-1]

    def reference(K):
        """What level K is measured against, in the order of ``measured``."""
        if oracle:
            return (oracle[0](np.arange(K + 1) / K),) + oracle[1:4]
        nodes, *rest = measured(2 * K)
        return (nodes[::2], *rest)

    # the node error is the max over nodes; the other three are one vector
    cols = {"geo": [], "log": [], "exp": [], "pt": []}
    for K in ks:
        for col, got, ref in zip(cols.values(), measured(K), reference(K)):
            col.append(float(np.max(np.linalg.norm(got - ref, axis=-1))))

    floor = FLOOR_FACTOR * solver.newton_tol
    orders = {}
    for name, col in cols.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                orders[name] = fit_order(col, ks, floor)
        except ConfigError:
            orders[name] = None
    return ConvergenceReport(
        ks=tuple(ks),
        err_geo=tuple(cols["geo"]),
        err_log=tuple(cols["log"]),
        err_exp=tuple(cols["exp"]),
        err_pt=tuple(cols["pt"]),
        orders=orders,
        reference=oracle[4] if oracle else "successive differences against the 2K level (self-convergence)",
    )


def write_report_csv(report: ConvergenceReport, path) -> None:
    cols = (report.err_geo, report.err_log, report.err_exp, report.err_pt)
    _write_csv(path, ["K", "err_geo", "err_log", "err_exp", "err_pt"], zip(report.ks, zip(*cols)))


def read_report_csv(path):
    """Read back a convergence table; returns (ks, columns dict).  A row that
    is not an integer K and four reals is a ConfigError naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    header = lines[0][1] if lines else ""
    if header != "K,err_geo,err_log,err_exp,err_pt":
        raise ConfigError(f"unexpected convergence header: {header!r}")
    ks, cols = [], {"geo": [], "log": [], "exp": [], "pt": []}
    for i, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != 5:
                raise ValueError(f"{len(parts)} fields, expected 5")
            ks.append(int(parts[0]))
            for col, val in zip(cols.values(), parts[1:]):
                col.append(float(val))
        except ValueError as err:
            raise ConfigError(f"malformed convergence row at line {i}: {ln!r} ({err})") from None
    return ks, cols


def write_orders_json(report: ConvergenceReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.orders, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class AuditReport:
    """Consistency-audit outcome: one row (index, ok, max residual) per point."""

    model: str
    tol: float
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r[1] for r in self.rows)

    @property
    def failures(self):
        return [r for r in self.rows if not r[1]]


def run_consistency_audit(
    model_name: str,
    samples: int,
    tol: float | None = None,
    seed: int = 0,
    n_nodes: int = 32,
    delta: float = 0.1,
) -> AuditReport:
    """check_consistency at random admissible points of a named backend."""
    if samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    backend = build_backend(model_name, n_nodes=n_nodes, delta=delta)
    if tol is None:
        tol = backend.default_tol
    elif not tol >= 0:
        raise ConfigError(f"tol must be nonnegative, got {tol}")
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(int(samples)):
        point = backend.sample(rng)
        report = check_consistency(backend.model, point, tol)
        rows.append((i, report.ok, report.max_residual))
    return AuditReport(model=model_name, tol=float(tol), rows=tuple(rows))


def run_rod_morph(
    curve_a,
    curve_b,
    K: int,
    kind: str = "simplified",
    out_dir: str | None = None,
    delta: float = 0.1,
    cfg: SolverConfig | None = None,
):
    """Solve a rod-to-rod geodesic and optionally write the curve files.

    The model and its gauge are those of ``build_backend(f"rod-{kind}")``.
    Returns (result, written_paths); writes one CSV per path curve plus a
    summary with the per-segment energies K * w(x_{k-1}, x_k).
    """
    a = curve_a if isinstance(curve_a, RodCurve) else load_rod_csv(curve_a)
    b = curve_b if isinstance(curve_b, RodCurve) else load_rod_csv(curve_b)
    if a.n_nodes != b.n_nodes:
        raise DomainError("rod endpoints must share the node count")
    backend = build_backend(f"rod-{kind}", a.n_nodes, delta)
    model = backend.model
    result = solve_geodesic(a.coord, b.coord, K, model, cfg, constraint=backend.constraint)
    _require(result.converged, result.residual, f"rod morph (K={K})")
    written = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for k in range(K + 1):
            path = os.path.join(out_dir, f"curve_{k:03d}.csv")
            save_rod_csv(RodCurve.from_coord(result.path[k]), path)
            written.append(path)
        summary = os.path.join(out_dir, "morph_summary.csv")
        energies = K * model.w_stacked(result.path.points[:-1], result.path.points[1:])
        _write_csv(summary, ["k", "energy"], enumerate(energies[:, None], start=1))
        written.append(summary)
    return result, written
