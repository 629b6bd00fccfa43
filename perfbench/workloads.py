"""The four benchmark workloads: seeded inputs, the timed pass, output checks.

Each workload is a ``Workload`` of three functions:

* ``make(gc, seed, tiny)`` builds the models and draws every input from
  ``seed``; it is timed as part of set-up.  ``tiny`` shrinks the sizes for
  the self-test.
* ``run(gc, inputs)`` is one timed pass.  It calls geocalc only through
  attributes of the freshly imported package (``gc.solve_geodesic``,
  ``gc.harness.run_rod_morph``, ...), looked up at call time, so that the
  tracer's wrappers are seen.  Solver failures are caught per operation
  and returned as part of the outputs.
* ``check(gc, inputs, outputs)`` runs after the pass, untimed, and returns
  an ``Outcome``: operations attempted and failed, the error against an
  analytic reference where one exists, and the messages of failures.

An operation is a solve, transport, exp or audit point.  A raised
``SolverError``/``DomainError``, ``converged=False`` or a failed output check
counts the operation as failed.  Why each workload was chosen is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

STUDY_XA = (0.5, 0.0)
STUDY_XB = (-0.5, 2.0)
STUDY_W_NORM = 0.4
ORDER_RANGE = (0.8, 2.2)

MORPH_RADIUS = 1.2
MORPH_AMPLITUDE = 0.15
# stream of the morph target's shape; the benchmark's seed only rotates the
# pair (see _morph_make)
MORPH_SHAPE_SEED = 5
SPREAD_MAX = 1.1

AUDIT_TOL = 1e-4
EXP_TOL = 1e-7


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    ref_err: float | None = None
    messages: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.messages.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    run: object
    check: object


def _solver_errors(gc):
    return (gc.SolverError, gc.DomainError)


# --- sphere_study: the paper's convergence figure on the sphere chart ---


def _study_make(gc, seed, tiny):
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    w = STUDY_W_NORM * np.array([np.cos(theta), np.sin(theta)])
    # tiny: K = 16..256, already past the pre-asymptotic range of the order fits
    exponents = range(4, 9) if tiny else range(1, 11)
    return gc.harness.StudyConfig(
        model="sphere-chart",
        xa=STUDY_XA,
        xb=STUDY_XB,
        w=tuple(w),
        k_exponents=tuple(exponents),
    )


def _study_run(gc, cfg):
    try:
        return gc.harness.run_convergence_study(cfg)
    except _solver_errors(gc) as err:
        return err


def _study_check(gc, cfg, report):
    n = len(cfg.k_exponents)
    # per K: one solve (err_geo, err_log), one exp, one transport
    out = Outcome(attempted=3 * n)
    if isinstance(report, Exception):
        out.fail(3 * n, f"study raised {type(report).__name__}: {report}")
        return out
    lo, hi = ORDER_RANGE
    bad = set()
    for col, ops in (("geo", "solve"), ("log", "solve"), ("exp", "exp"), ("pt", "transport")):
        vals = report.column(col)
        decreasing = all(vals[i + 2] < vals[i] for i in range(len(vals) - 2))
        order = report.orders[col]
        if not decreasing or order is None or not lo <= order <= hi:
            bad.add(ops)
            out.messages.append(f"err_{col}: order {order}, decreasing={decreasing}")
    out.failed = n * len(bad)
    out.ref_err = max(report.column(col)[-1] for col in ("geo", "log", "exp", "pt"))
    return out


# --- rod_morph: simplified-rod geodesic from a circle to a seeded rod ---


def _morph_make(gc, seed, tiny):
    """Circle to a fixed random smooth rod, both rotated by a seeded angle.

    The Newton iteration count depends on the target's shape: over seeded
    shapes the second iterate's residual ranges from 3e-11 to 4e-6, across
    the 1e-10 tolerance, so seeds took 2, 3 or 4 iterations.  A rigid
    rotation leaves the problem the same: with this shape every seed takes
    3 (second residual ~5e-9, third ~2e-11).
    """
    n, K = (16, 4) if tiny else (64, 8)
    shape = gc.random_smooth_rod(
        n, np.random.default_rng(MORPH_SHAPE_SEED), base_radius=MORPH_RADIUS, amplitude=MORPH_AMPLITUDE
    )
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return SimpleNamespace(
        a=gc.RodCurve(gc.circle_rod(n).nodes @ rot.T),
        b=gc.RodCurve(shape.nodes @ rot.T),
        K=K,
        model=gc.rod_energy("simplified", n, 0.1),
    )


def _morph_run(gc, inp):
    try:
        result, _ = gc.harness.run_rod_morph(inp.a, inp.b, inp.K)
    except _solver_errors(gc) as err:
        return err
    return result


def _morph_check(gc, inp, result):
    out = Outcome(attempted=1)
    if isinstance(result, Exception):
        out.fail(1, f"morph raised {type(result).__name__}: {result}")
        return out
    path, K = result.path, inp.K
    segments = [K * inp.model.w(path[k - 1], path[k]) for k in range(1, K + 1)]
    if not result.converged or max(segments) > SPREAD_MAX * min(segments):
        out.fail(1, f"converged={result.converged}, segment energies {min(segments):.4g}..{max(segments):.4g}")
    return out


# --- surface_ladder: constrained solve, transport and exp on the unit sphere ---


def _unit(v):
    return v / np.linalg.norm(v)


def _rotate(axis, angle, v):
    """Rodrigues rotation of v by ``angle`` about ``axis``."""
    k = _unit(axis)
    return v * np.cos(angle) + np.cross(k, v) * np.sin(angle) + k * (k @ v) * (1.0 - np.cos(angle))


def _ladder_make(gc, seed, tiny):
    n_pairs, K = (2, 8) if tiny else (16, 128)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        a = _unit(rng.normal(size=3))
        along = _unit(np.cross(a, rng.normal(size=3)))
        angle = rng.uniform(0.4, 1.6)
        b = a * np.cos(angle) + along * np.sin(angle)
        w = STUDY_W_NORM * _unit(np.cross(a, rng.normal(size=3)))
        pairs.append((a, b, angle, w))
    model, sphere = gc.sdf_spring_model(gc.models.SphereSdf())
    return SimpleNamespace(pairs=pairs, K=K, model=model, sphere=sphere)


def _ladder_run(gc, inp):
    K, model, sphere = inp.K, inp.model, inp.sphere
    outputs = []
    for a, b, _, w in inp.pairs:
        try:
            res = gc.solve_geodesic_constrained(a, b, K, model, sphere)
            if not res.converged:
                outputs.append(res)
                continue
            zt, _ = gc.parallel_transport(res.path, w / K, model, constraint=sphere)
            back = gc.inverse_transport(res.path, zt, model, constraint=sphere)
            end = gc.discrete_exp(a, res.path[1] - res.path[0], K, model, constraint=sphere)
        except _solver_errors(gc) as err:
            outputs.append(err)
            continue
        outputs.append((res, zt, back, end))
    return outputs


def _ladder_check(gc, inp, outputs):
    K = inp.K
    out = Outcome(attempted=4 * len(inp.pairs))
    errs = []
    for i, ((a, b, angle, w), got) in enumerate(zip(inp.pairs, outputs)):
        if isinstance(got, Exception):
            out.fail(4, f"pair {i}: {type(got).__name__}: {got}")
            continue
        if not isinstance(got, tuple):
            out.fail(4, f"pair {i}: solve did not converge, residual {got.residual:.3e}")
            continue
        res, zt, back, end = got
        wn = float(np.linalg.norm(w))
        pt_err = float(np.linalg.norm(K * zt - _rotate(np.cross(a, b), angle, w))) / wn
        rt_err = float(np.linalg.norm(K * back - w)) / wn
        exp_err = float(np.linalg.norm(end - b))
        errs.append(pt_err)
        # first-order operators: transport and its round trip are O(1/K)
        if pt_err > 2.0 / K:
            out.fail(1, f"pair {i}: transport error {pt_err:.3e} > 2/K")
        if rt_err > 1.0 / K:
            out.fail(1, f"pair {i}: inverse-transport round trip {rt_err:.3e} > 1/K")
        if exp_err > EXP_TOL:
            out.fail(1, f"pair {i}: exp of the first increment misses the endpoint by {exp_err:.3e}")
    out.ref_err = max(errs) if errs else None
    return out


# --- rod_audit: consistency audit of the finite-difference full rod ---


def _audit_make(gc, seed, tiny):
    n, points = (8, 1) if tiny else (16, 3)
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        model=gc.rod_energy("full", n, 0.1),
        points=[gc.random_smooth_rod(n, rng).coord for _ in range(points)],
    )


def _audit_run(gc, inp):
    reports = []
    for p in inp.points:
        try:
            reports.append(gc.check_consistency(inp.model, p, AUDIT_TOL))
        except (gc.EvaluationError, *_solver_errors(gc)) as err:
            reports.append(err)
    return reports


def _audit_check(gc, inp, reports):
    out = Outcome(attempted=len(inp.points))
    for i, rep in enumerate(reports):
        if isinstance(rep, Exception):
            out.fail(1, f"point {i}: {type(rep).__name__}: {rep}")
        elif not rep.ok:
            out.fail(1, f"point {i}: failed {rep.failed()}, max residual {rep.max_residual:.3e}")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere_study", _study_make, _study_run, _study_check),
        Workload("rod_morph", _morph_make, _morph_run, _morph_check),
        Workload("surface_ladder", _ladder_make, _ladder_run, _ladder_check),
        Workload("rod_audit", _audit_make, _audit_run, _audit_check),
    )
}
