"""Self-test of the benchmark at tiny sizes; exits 0 when every check holds.

    python3 perfbench/selftest.py

For each workload it checks that
* every metric named in BENCHMARK.json is reported, and printed, with its
  unit (tracing off: end-to-end metrics; tracing on: per-layer metrics),
  and the speed probe ticked during the untraced run;
* a deliberately corrupted output fails the workload's check;
* the counts of two traced runs are identical, three of them equal their
  closed-form values, and the self times plus trace.unattributed_s add up
  to trace.wall_s.
"""

import dataclasses
import json
import os
import sys

import run
from tracing import SELF_TIME_PARTS
from workloads import WORKLOADS

SEED = 0


def _corrupt_study(gc, report):
    return dataclasses.replace(report, err_pt=tuple(reversed(report.err_pt)))


def _corrupt_morph(gc, result):
    pts = result.path.points.copy()
    pts[1] = pts[0]  # a zero-energy segment
    return dataclasses.replace(result, path=gc.DiscretePath(pts))


def _corrupt_ladder(gc, outputs):
    res, zt, back, end = outputs[0]
    return [(res, zt, back, end + 1e-3)] + outputs[1:]


def _corrupt_audit(gc, reports):
    bad = dataclasses.replace(reports[0], residuals={**reports[0].residuals, "hess12_vs_hess22": 1.0})
    return [bad] + reports[1:]


# counts known in closed form at the tiny sizes: one solve per K of the
# study (K = 16..256); 4 gradient calls per column over 2 slots of 2N
# columns (rod_morph, N = 16); per FD Hessian, 4 energy calls per entry of
# the two symmetric d x d blocks' lower triangles and of the full mixed
# block (rod_audit, d = 2N = 16)
KNOWN_COUNTS = {
    ("sphere_study", "geodesic.solves"): 5,
    ("rod_morph", "rods.grads_per_hess"): 4 * 2 * 32,
    ("rod_audit", "core.fd.w_per_hess"): 2 * 4 * (16 * 17 // 2) + 4 * 16 * 16,
}

CORRUPT = {
    "sphere_study": _corrupt_study,
    "rod_morph": _corrupt_morph,
    "surface_ladder": _corrupt_ladder,
    "rod_audit": _corrupt_audit,
}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def check_metrics(rec, expected, problems):
    got = {m: e["unit"] for m, e in rec["metrics"].items()}
    if got != expected:
        problems.append(f"{rec['workload']} trace={rec['trace']}: metrics {got} != {expected}")
    printed = "\n".join(run.report_lines(rec))
    for m, unit in expected.items():
        if not any(ln.split()[:1] == [m] and ln.split()[2:3] == [unit] for ln in printed.splitlines()):
            problems.append(f"{rec['workload']}: {m} not printed with unit {unit}")
    if not rec["correct"]:
        problems.append(f"{rec['workload']}: tiny run failed its checks: {rec['messages']}")
    if not rec["trace"] and not rec["probe_s_samples"]:
        problems.append(f"{rec['workload']}: the speed probe never ticked")


def check_corruption(name, problems):
    workload = WORKLOADS[name]
    gc = run.load_geocalc()
    inputs = workload.make(gc, SEED, True)
    outputs = workload.run(gc, inputs)
    if workload.check(gc, inputs, outputs).failed:
        problems.append(f"{name}: clean output fails its check")
    if not workload.check(gc, inputs, CORRUPT[name](gc, outputs)).failed:
        problems.append(f"{name}: corrupted output passes its check")


def check_traced(recs, per_layer, problems):
    first, second = recs
    name = first["workload"]
    for m, unit in per_layer.items():
        a, b = first["metrics"][m]["value"], second["metrics"][m]["value"]
        if unit == "count" and a != b:
            problems.append(f"{name}: count {m} differs between runs: {a} != {b}")
    for (workload, m), value in KNOWN_COUNTS.items():
        if workload == name and first["metrics"][m]["value"] != value:
            problems.append(f"{name}: {m} is {first['metrics'][m]['value']}, expected {value}")
    for rec in recs:
        tracer = rec["tracer"]
        for i in range(len(tracer.passes)):
            values = tracer.pass_metrics(i)
            total = sum(values[p] for p in SELF_TIME_PARTS) + values["trace.unattributed_s"]
            if abs(total - values["trace.wall_s"]) > 1e-9 or values["trace.unattributed_s"] < 0:
                problems.append(f"{name}: self times do not add up to the traced wall time")


def main():
    end_to_end, per_layer = _spec()
    problems = []
    for name in WORKLOADS:
        check_metrics(run.measure(name, SEED, 0, False, tiny=True), end_to_end, problems)
        traced = [run.measure(name, SEED, 0, True, tiny=True) for _ in range(2)]
        check_metrics(traced[0], per_layer, problems)
        check_traced(traced, per_layer, problems)
        check_corruption(name, problems)
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
