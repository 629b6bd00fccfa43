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

import numpy as np

from .core import DomainError, EvaluationError, InvariantViolation, SolverError
from .geodesic import SolverConfig, solve_geodesic, write_result_csv
from .harness import (
    MODEL_NAMES,
    ConfigError,
    StudyConfig,
    _list_of,
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


# every option a command may take; each command offers only the ones it
# reads (_COMMANDS)
_OPTIONS = {
    "--model": dict(choices=MODEL_NAMES),
    "--xa": dict(type=_vector, help="start point a,b[,...]"),
    "--xb": dict(type=_vector, help="end point"),
    "--zeta": dict(type=_vector, help="displacement a,b[,...]"),
    "--w": dict(type=_vector, help="transport seed vector"),
    "--K": dict(type=int, help="number of time steps"),
    "--k-min": dict(type=int),
    "--k-max": dict(type=int),
    "--out": dict(help="output directory"),
    "--config": dict(help="JSON config mirroring the study fields"),
    "--tol": dict(type=float, help="Newton / audit tolerance"),
    "--samples": dict(type=int, default=100),
    "--seed": dict(type=int, default=0),
    "--n-nodes": dict(type=int, default=32),
    "--delta": dict(type=float, default=0.1),
    "--curve-a": dict(required=True),
    "--curve-b": dict(required=True),
    "--kind": dict(default="simplified", choices=("simplified", "full")),
}


def _build_parser():
    parser = _Parser(prog="geocalc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        sub = subs.add_parser(name)
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
    return parser


def _study_config(args) -> StudyConfig:
    """The --config file with the command's options merged in, validated
    once by ``StudyConfig.from_dict``: an option overrides its field, and a
    field a command reads no option for keeps the file's value."""
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(data, dict):
            raise ConfigError(f"config file must hold a JSON object, got {data!r}")
    opts = vars(args)
    for option, key in (("model", "model"), ("xa", "xa"), ("xb", "xb"), ("w", "w"), ("out", "output_dir")):
        if opts.get(option):
            data[key] = opts[option]
    if "xb" not in opts and "xa" in data:
        data.setdefault("xb", data["xa"])  # exp reads no end point
    # --k-min, --k-max and --tol override one part of a field; a field of the
    # file that is malformed stays, for from_dict to reject
    if opts.get("k_min") is not None or opts.get("k_max") is not None:
        default = StudyConfig.k_exponents
        pair = data.get("k_exponents", (default[0], default[-1]))
        if _list_of(pair, int) and len(pair) == 2:
            lo, hi = pair
            data["k_exponents"] = [lo if args.k_min is None else args.k_min, hi if args.k_max is None else args.k_max]
    solver = data.get("solver", {})
    if opts.get("tol") is not None and isinstance(solver, dict):
        data["solver"] = {**solver, "newton_tol": args.tol}
    return StudyConfig.from_dict(data)


def _steps(args, default: int = 16) -> int:
    """The --K step count, ``default`` when it is not given; below 1 is
    invalid input."""
    K = default if args.K is None else args.K
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
    K = _steps(args, 8)
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


_STUDY = ("--model", "--xa", "--config", "--tol")
# command -> (handler, the options it reads)
_COMMANDS = {
    "geodesic": (_cmd_geodesic, (*_STUDY, "--xb", "--K", "--out")),
    "log": (_cmd_log, (*_STUDY, "--xb", "--K")),
    "exp": (_cmd_exp, (*_STUDY, "--zeta", "--K")),
    "transport": (_cmd_transport, (*_STUDY, "--xb", "--w", "--K", "--out")),
    "converge": (_cmd_converge, (*_STUDY, "--xb", "--w", "--k-min", "--k-max", "--out")),
    "consistency": (_cmd_consistency, ("--model", "--tol", "--samples", "--seed", "--n-nodes", "--delta")),
    "rod-morph": (_cmd_rod_morph, ("--curve-a", "--curve-b", "--K", "--kind", "--delta", "--out", "--tol")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
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
