"""Experiment runner: convergence studies, consistency audits, rod morphs.

The convergence study solves the boundary-value geodesic at K = 2^k for a
range of exponents and measures four errors per K against a reference:

* err_geo: max over nodes of |x_k - x_ref(k/K)|,
* err_log: |K * (x_1 - x_0) - log_ref|,
* err_exp: |EXP^K(v/K) - exp_ref| for v = log_ref,
* err_pt:  |K * P(w/K) - transport_ref| along the solved path,

all in the Euclidean norm of the coordinates.  The sphere chart and flat
space have closed-form references; other backends fall back to a
Richardson-style self-reference, the discrete solution at 4 times the
largest K (self-convergence, not true error).  Fitted orders are
least-squares slopes of log(err) against log(1/K).
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, SolverError, _write_csv, as_point, check_consistency
from .geodesic import SolverConfig, solve_geodesic, solve_geodesic_constrained
from .models import (
    CircleSdf,
    SphereSdf,
    flat_energy,
    sdf_spring_model,
    sphere_chart_energy,
    sphere_oracles,
)
from .operators import discrete_exp, parallel_transport
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


def _list_of(value, types) -> bool:
    """Whether a JSON value is a list (or tuple) of ``types``; a bool, an int
    subclass, never counts."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, types) and not isinstance(v, bool) for v in value
    )


@dataclass(frozen=True)
class StudyConfig:
    """Settings of one convergence study; mirrors the JSON config keys."""

    model: str = "sphere-chart"
    xa: tuple = (0.5, 0.0)
    xb: tuple = (-0.5, 2.0)
    w: tuple = (-0.4, 0.0)
    k_exponents: tuple = tuple(range(1, 11))
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODEL_NAMES}")
        ks = tuple(int(e) for e in self.k_exponents)
        if not ks or any(e < 0 for e in ks):
            raise ConfigError("k_exponents must be a nonempty range of nonnegative ints")
        object.__setattr__(self, "k_exponents", tuple(sorted(set(ks))))

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        known = {
            "model",
            "xa",
            "xb",
            "w",
            "k_exponents",
            "solver",
            "output_dir",
            "seed",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "k_exponents" in kwargs:
            pair = kwargs["k_exponents"]
            if not (_list_of(pair, int) and len(pair) == 2):
                raise ConfigError(f"k_exponents must be a pair of integers [lo, hi], got {pair!r}")
            kwargs["k_exponents"] = tuple(range(pair[0], pair[1] + 1))
        for key in ("xa", "xb", "w"):
            if key in kwargs:
                if not _list_of(kwargs[key], (int, float)):
                    raise ConfigError(f"{key} must be a list of numbers, got {kwargs[key]!r}")
                kwargs[key] = tuple(float(v) for v in kwargs[key])
        try:
            if "solver" in kwargs:
                kwargs["solver"] = SolverConfig(**kwargs["solver"])
            return cls(**kwargs)
        except TypeError as err:
            raise ConfigError(str(err)) from err


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
    name: str
    model: object
    constraint: object
    sample: object  # rng -> admissible point
    default_tol: float


def build_backend(name: str, n_nodes: int = 64, delta: float = 0.1) -> _Backend:
    """Construct a named backend with its constraint and point sampler."""
    if name == "flat":
        return _Backend(name, flat_energy(), None, lambda rng: rng.normal(size=2), 1e-6)
    if name == "sphere-chart":
        return _Backend(
            name, sphere_chart_energy(), None, lambda rng: 0.8 * rng.normal(size=2), 1e-6
        )
    if name == "sdf-circle":
        model, constraint = sdf_spring_model(CircleSdf())

        def sample_circle(rng):
            v = rng.normal(size=2)
            return v / np.linalg.norm(v)

        return _Backend(name, model, constraint, sample_circle, 1e-6)
    if name == "sdf-sphere":
        model, constraint = sdf_spring_model(SphereSdf())

        def sample_sphere(rng):
            v = rng.normal(size=3)
            return v / np.linalg.norm(v)

        return _Backend(name, model, constraint, sample_sphere, 1e-6)
    if name in ("rod-simplified", "rod-full"):
        kind = name.split("-", 1)[1]
        model = rod_energy(kind, n_nodes, delta)
        return _Backend(
            name,
            model,
            None,
            lambda rng: random_smooth_rod(n_nodes, rng).coord,
            1e-4,
        )
    raise ConfigError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def fit_order(errors, ks) -> float:
    """Least-squares slope of log(err) versus log(1/K).

    Nonpositive errors are excluded with a warning; at least three
    positive entries must remain.
    """
    errors = np.asarray(errors, dtype=float)
    ks = np.asarray(ks, dtype=float)
    if errors.shape != ks.shape:
        raise ConfigError("errors and Ks must have equal length")
    mask = errors > 0
    if not np.all(mask):
        warnings.warn(
            f"excluding {int(np.sum(~mask))} nonpositive error(s) from the order fit",
            stacklevel=2,
        )
    if int(np.sum(mask)) < 3:
        raise ConfigError("need at least 3 positive errors to fit an order")
    slope = np.polyfit(np.log(1.0 / ks[mask]), np.log(errors[mask]), 1)[0]
    return float(slope)


def _solve(backend, xa, xb, K, solver_cfg):
    res = solve_geodesic_constrained(xa, xb, K, backend.model, backend.constraint, solver_cfg)
    if not res.converged:
        raise SolverError(
            f"geodesic solve did not converge (K={K})", residual=res.residual
        )
    return res


def _references(cfg: StudyConfig, backend: _Backend, xa, xb, w):
    """Reference values: (geo, log_ref, exp_ref, pt_ref, description).

    ``geo(ts)`` maps an array of n times in [0, 1] to the (n, d) reference
    points.
    """
    if cfg.model == "sphere-chart":
        orc = sphere_oracles()
        log_ref = orc.log(xa, xb)
        return (
            lambda ts: orc.geodesic(xa, xb, ts),
            log_ref,
            orc.exp(xa, log_ref),
            orc.transport(xa, xb, w),
            "analytic great-circle oracle",
        )
    if cfg.model == "flat":
        return (
            lambda ts: xa + ts[:, None] * (xb - xa),
            xb - xa,
            xb,
            w.copy(),
            "closed flat-space forms",
        )
    k_ref = 4 * (2 ** cfg.k_exponents[-1])
    ref = _solve(backend, xa, xb, k_ref, cfg.solver)
    log_ref = k_ref * (ref.path[1] - ref.path[0])
    exp_ref = discrete_exp(
        xa, log_ref / k_ref, k_ref, backend.model, cfg.solver, backend.constraint
    )
    zt, _ = parallel_transport(
        ref.path, w / k_ref, backend.model, cfg.solver, backend.constraint
    )
    pt_ref = k_ref * zt

    def geo_ref(ts):
        return ref.path.points[np.rint(ts * k_ref).astype(int)]

    return geo_ref, log_ref, exp_ref, pt_ref, f"discrete self-reference at K={k_ref}"


def run_convergence_study(cfg: StudyConfig) -> ConvergenceReport:
    """Measure the four operator errors over K = 2^k and fit their orders."""
    if cfg.model.startswith("rod"):
        raise ConfigError("rod models use the rod-morph runner, not the study")
    backend = build_backend(cfg.model)
    xa = as_point(cfg.xa)
    xb = as_point(cfg.xb)
    w = as_point(cfg.w)
    geo_ref, log_ref, exp_ref, pt_ref, reference = _references(cfg, backend, xa, xb, w)

    ks, e_geo, e_log, e_exp, e_pt = [], [], [], [], []
    for exponent in cfg.k_exponents:
        K = 2**exponent
        try:
            res = _solve(backend, xa, xb, K, cfg.solver)
            nodes = geo_ref(np.arange(K + 1) / K)
            err_geo = float(np.max(np.linalg.norm(res.path.points - nodes, axis=1)))
            err_log = float(np.linalg.norm(K * (res.path[1] - res.path[0]) - log_ref))
            endpoint = discrete_exp(
                xa, log_ref / K, K, backend.model, cfg.solver, backend.constraint
            )
            err_exp = float(np.linalg.norm(endpoint - exp_ref))
            zt, _ = parallel_transport(
                res.path, w / K, backend.model, cfg.solver, backend.constraint
            )
            err_pt = float(np.linalg.norm(K * zt - pt_ref))
        except SolverError as err:
            raise SolverError(f"study failed at K={K}: {err}", residual=err.residual) from err
        ks.append(K)
        e_geo.append(err_geo)
        e_log.append(err_log)
        e_exp.append(err_exp)
        e_pt.append(err_pt)

    orders = {}
    for name, col in (("geo", e_geo), ("log", e_log), ("exp", e_exp), ("pt", e_pt)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                orders[name] = fit_order(col, ks)
        except ConfigError:
            orders[name] = None
    return ConvergenceReport(
        ks=tuple(ks),
        err_geo=tuple(e_geo),
        err_log=tuple(e_log),
        err_exp=tuple(e_exp),
        err_pt=tuple(e_pt),
        orders=orders,
        reference=reference,
    )


def write_report_csv(report: ConvergenceReport, path) -> None:
    cols = (report.err_geo, report.err_log, report.err_exp, report.err_pt)
    _write_csv(path, ["K", "err_geo", "err_log", "err_exp", "err_pt"], zip(report.ks, zip(*cols)))


def read_report_csv(path):
    """Read back a convergence table; returns (ks, columns dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    if header != ["K", "err_geo", "err_log", "err_exp", "err_pt"]:
        raise ConfigError(f"unexpected convergence header: {lines[0]!r}")
    ks, cols = [], {"geo": [], "log": [], "exp": [], "pt": []}
    for ln in lines[1:]:
        parts = ln.split(",")
        ks.append(int(parts[0]))
        for name, val in zip(("geo", "log", "exp", "pt"), parts[1:]):
            cols[name].append(float(val))
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

    Returns (result, written_paths); writes one CSV per path curve plus a
    summary with the per-segment energies K * w(x_{k-1}, x_k).
    """
    a = curve_a if isinstance(curve_a, RodCurve) else load_rod_csv(curve_a)
    b = curve_b if isinstance(curve_b, RodCurve) else load_rod_csv(curve_b)
    if a.n_nodes != b.n_nodes:
        raise DomainError("rod endpoints must share the node count")
    model = rod_energy(kind, a.n_nodes, delta)
    gauge = rod_gauge(a.coord, b.coord, K)
    result = solve_geodesic(a.coord, b.coord, K, model, cfg, gauge=gauge)
    if not result.converged:
        raise SolverError(
            f"rod morph did not converge (K={K}, residual {result.residual:.3e})",
            residual=result.residual,
        )
    written = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for k in range(K + 1):
            path = os.path.join(out_dir, f"curve_{k:03d}.csv")
            save_rod_csv(RodCurve.from_coord(result.path[k]), path)
            written.append(path)
        summary = os.path.join(out_dir, "morph_summary.csv")
        rows = ((k, [K * model.w(result.path[k - 1], result.path[k])]) for k in range(1, K + 1))
        _write_csv(summary, ["k", "energy"], rows)
        written.append(summary)
    return result, written
