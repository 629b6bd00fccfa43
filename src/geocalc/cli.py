"""Command-line interface.

Subcommands: geodesic, log, exp, transport, converge, consistency,
rod-morph.  Exit codes: 0 success, 1 failed consistency audit, 2 solver
failure, 3 invalid configuration or input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .core import DomainError, EvaluationError, InvariantViolation, SolverError
from .geodesic import SolverConfig, solve_geodesic, write_result_csv
from .harness import (
    MODEL_NAMES,
    ConfigError,
    StudyConfig,
    _study_backend,
    run_consistency_audit,
    run_convergence_study,
    run_rod_morph,
    write_orders_json,
    write_report_csv,
)
from .operators import discrete_exp, discrete_log, parallel_transport, write_traces_csv

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-0.5,2" pass as vector arguments
        self._negative_number_matcher = re.compile(r"^-\d[\d.,eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _vector(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from err


def _add_common(sub):
    sub.add_argument("--model", default=None, choices=MODEL_NAMES)
    sub.add_argument("--xa", type=_vector, default=None, help="start point a,b[,...]")
    sub.add_argument("--xb", type=_vector, default=None, help="end point")
    sub.add_argument("--K", type=int, default=None, help="number of time steps")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--config", default=None, help="JSON config mirroring the study fields")
    sub.add_argument("--tol", type=float, default=None, help="Newton / audit tolerance")


def _build_parser():
    parser = _Parser(prog="geocalc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("geodesic", "log", "exp", "transport"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "exp":
            sub.add_argument("--zeta", type=_vector, default=None, help="displacement a,b[,...]")
        if name == "transport":
            sub.add_argument("--w", type=_vector, default=None, help="transport seed vector")

    conv = subs.add_parser("converge")
    _add_common(conv)
    conv.add_argument("--w", type=_vector, default=None)
    conv.add_argument("--k-min", type=int, default=None)
    conv.add_argument("--k-max", type=int, default=None)

    cons = subs.add_parser("consistency")
    _add_common(cons)
    cons.add_argument("--samples", type=int, default=100)
    cons.add_argument("--seed", type=int, default=0)
    cons.add_argument("--n-nodes", type=int, default=32)
    cons.add_argument("--delta", type=float, default=0.1)

    morph = subs.add_parser("rod-morph")
    morph.add_argument("--curve-a", required=True)
    morph.add_argument("--curve-b", required=True)
    morph.add_argument("--K", type=int, default=8)
    morph.add_argument("--kind", default="simplified", choices=("simplified", "full"))
    morph.add_argument("--delta", type=float, default=0.1)
    morph.add_argument("--out", default=None)
    morph.add_argument("--tol", type=float, default=None)
    return parser


def _study_config(args) -> StudyConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file is not valid JSON: {err}") from err
    cfg = StudyConfig.from_dict(data)
    updates = {}
    if getattr(args, "model", None):
        updates["model"] = args.model
    if getattr(args, "xa", None):
        updates["xa"] = args.xa
    if getattr(args, "xb", None):
        updates["xb"] = args.xb
    if getattr(args, "w", None):
        updates["w"] = args.w
    if getattr(args, "out", None):
        updates["output_dir"] = args.out
    if getattr(args, "k_min", None) is not None or getattr(args, "k_max", None) is not None:
        lo = args.k_min if args.k_min is not None else min(cfg.k_exponents)
        hi = args.k_max if args.k_max is not None else max(cfg.k_exponents)
        updates["k_exponents"] = tuple(range(lo, hi + 1))
    if getattr(args, "tol", None) is not None:
        # override the tolerance alone; the config's other settings stand
        updates["solver"] = replace(cfg.solver, newton_tol=args.tol)
    if updates:
        cfg = replace(cfg, **updates)
    return cfg


def _steps(args) -> int:
    """The --K step count, 16 when it is not given; below 1 is invalid input."""
    K = 16 if args.K is None else args.K
    if K < 1:
        raise DomainError(f"K must be at least 1, got {K}")
    return K


def _setup(args):
    """The study config, its backend, the step count and the endpoints that
    geodesic, log, exp and transport share."""
    cfg = _study_config(args)
    backend = _study_backend(cfg)
    return cfg, backend, _steps(args), np.asarray(cfg.xa, dtype=float), np.asarray(cfg.xb, dtype=float)


def _cmd_geodesic(args) -> int:
    cfg, backend, K, xa, xb = _setup(args)
    res = solve_geodesic(xa, xb, K, backend.model, cfg.solver, constraint=backend.constraint)
    print(
        f"geodesic model={cfg.model} K={K} converged={res.converged} "
        f"iterations={res.iterations} residual={res.residual:.3e} "
        f"energy={res.energy!r} length={res.length!r}"
    )
    if not res.converged:
        raise SolverError("geodesic solve did not converge", residual=res.residual)
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        target = os.path.join(cfg.output_dir, "path.csv")
        write_result_csv(res, target)
        print(f"wrote {target}")
    return 0


def _cmd_log(args) -> int:
    cfg, backend, K, xa, xb = _setup(args)
    zeta = discrete_log(xa, xb, K, backend.model, cfg.solver, backend.constraint)
    print(f"log model={cfg.model} K={K}")
    print("zeta      = " + ",".join(repr(float(v)) for v in zeta))
    print("K * zeta  = " + ",".join(repr(float(v)) for v in K * zeta))
    return 0


def _cmd_exp(args) -> int:
    if args.zeta is None:
        raise ConfigError("exp requires --zeta")
    cfg, backend, K, xa, _ = _setup(args)
    endpoint = discrete_exp(xa, np.asarray(args.zeta, float), K, backend.model, cfg.solver, backend.constraint)
    print(f"exp model={cfg.model} K={K}")
    print("endpoint = " + ",".join(repr(float(v)) for v in endpoint))
    return 0


def _cmd_transport(args) -> int:
    cfg, backend, K, xa, xb = _setup(args)
    res = solve_geodesic(xa, xb, K, backend.model, cfg.solver, constraint=backend.constraint)
    if not res.converged:
        raise SolverError("geodesic solve did not converge", residual=res.residual)
    w = np.asarray(cfg.w, dtype=float)
    zeta, traces = parallel_transport(res.path, w / K, backend.model, cfg.solver, backend.constraint)
    print(f"transport model={cfg.model} K={K}")
    print("zeta_K     = " + ",".join(repr(float(v)) for v in zeta))
    print("K * zeta_K = " + ",".join(repr(float(v)) for v in K * zeta))
    if cfg.output_dir:
        os.makedirs(cfg.output_dir, exist_ok=True)
        target = os.path.join(cfg.output_dir, "transport_traces.csv")
        write_traces_csv(traces, target)
        print(f"wrote {target}")
    return 0


def _cmd_converge(args) -> int:
    cfg = _study_config(args)
    report = run_convergence_study(cfg)
    print(f"convergence study model={cfg.model} reference: {report.reference}")
    print("K,err_geo,err_log,err_exp,err_pt")
    for i, K in enumerate(report.ks):
        print(
            f"{K},{report.err_geo[i]:.6e},{report.err_log[i]:.6e},"
            f"{report.err_exp[i]:.6e},{report.err_pt[i]:.6e}"
        )
    print("fitted orders: " + json.dumps(report.orders, sort_keys=True))
    out = cfg.output_dir or "."
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "convergence.csv")
    write_report_csv(report, csv_path)
    write_orders_json(report, os.path.join(out, "orders.json"))
    print(f"wrote {csv_path} and orders.json")
    return 0


def _cmd_consistency(args) -> int:
    model = args.model or "flat"
    report = run_consistency_audit(
        model,
        samples=args.samples,
        tol=args.tol,
        seed=args.seed,
        n_nodes=args.n_nodes,
        delta=args.delta,
    )
    worst = max(r[2] for r in report.rows)
    print(
        f"consistency model={model} samples={len(report.rows)} tol={report.tol:g} "
        f"worst residual={worst:.3e} failures={len(report.failures)}"
    )
    for idx, ok, residual in report.failures:
        print(f"  point {idx}: FAIL (max residual {residual:.3e})")
    return 0 if report.ok else 1


def _cmd_rod_morph(args) -> int:
    cfg = SolverConfig(newton_tol=args.tol) if args.tol is not None else None
    K = _steps(args)
    result, written = run_rod_morph(
        args.curve_a,
        args.curve_b,
        K=K,
        kind=args.kind,
        out_dir=args.out,
        delta=args.delta,
        cfg=cfg,
    )
    print(
        f"rod-morph K={K} kind={args.kind} converged={result.converged} "
        f"iterations={result.iterations} energy={result.energy!r}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "geodesic": _cmd_geodesic,
    "log": _cmd_log,
    "exp": _cmd_exp,
    "transport": _cmd_transport,
    "converge": _cmd_converge,
    "consistency": _cmd_consistency,
    "rod-morph": _cmd_rod_morph,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (SolverError, InvariantViolation, EvaluationError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
