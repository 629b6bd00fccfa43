"""geocalc benchmark: one seeded workload per process, tracing off or on.

    python3 perfbench/run.py --workload sphere_study --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; geocalc is imported from its ``src``.
The run sets the workload up ten times (fresh import of geocalc, model
construction, input generation from the seed), makes one untimed warm-up
pass on the last set-up's inputs, then repeats the pass until
``--seconds`` have passed; every pass's outputs are checked.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds
per pass), ``setup_s`` (median set-up) and ``peak_rss_mb``.  Both times are
corrected for the drift of the host CPU's speed by ``speedprobe``; the
uncorrected medians are printed beside them.  ``--trace 1``
alternates untraced and traced passes, without the speed probe, and
reports the per-layer metrics of the median traced pass, plus
``trace.overhead`` (traced over untraced median wall).  Each metric is
printed on its own line with its unit, together with ``fail_frac`` and,
where an analytic reference exists, ``ref_err``; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (samples, failure messages, environment)
and, when tracing, the spans go to ``perfbench/out/``.

``--workload all`` runs the four workloads in turn, each in its own child
process, and prints a summary table.
"""

import os

# One BLAS thread: geocalc's linear algebra is many small solves, which
# gain nothing from OpenBLAS workers, and idle workers spin on shared cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc as garbage  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from speedprobe import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUPS = 10
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class SourceMissing(RuntimeError):
    """The checkout has no geocalc sources to benchmark."""


def load_geocalc():
    """Import geocalc afresh from the checkout, with harness and cli."""
    if not os.path.isfile(os.path.join(SRC, "geocalc", "__init__.py")):
        raise SourceMissing(f"no geocalc package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "geocalc" or n.startswith("geocalc.")]:
        del sys.modules[name]
    gc = importlib.import_module("geocalc")
    if not os.path.abspath(gc.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"geocalc was imported from {gc.__file__}, not {SRC}")
    importlib.import_module("geocalc.harness")
    importlib.import_module("geocalc.cli")
    return gc


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, if above the median."""
    n = len(samples)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    return p, float(np.percentile(samples, p))


def measure(name, seed, seconds, trace, tiny=False):
    """Run one workload as set out in the module docstring; returns the full record."""
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    # the speed probe is off in a traced run: its handler would land in
    # whatever span it interrupts
    probe = None if trace else SpeedProbe()
    setup_times, raw_setup_times, plain, raw_plain, traced = [], [], [], [], []
    total = Outcome(attempted=0)
    ref_errs = []

    def timed(fn, *args):
        if probe is not None:
            return probe.time(fn, *args)
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        return result, wall, wall

    def set_up():
        gc = load_geocalc()
        return gc, workload.make(gc, seed, tiny)

    def one_pass(gc, inputs, with_trace, record=True):
        if with_trace:
            with tracer.installed(gc):
                outputs = tracer.run_pass(len(traced), workload.run, gc, inputs)
            traced.append(tracer.passes[-1][3])
        else:
            outputs, raw, corrected = timed(workload.run, gc, inputs)
            if record:
                raw_plain.append(raw)
                plain.append(corrected)
        outcome = workload.check(gc, inputs, outputs)
        total.attempted += outcome.attempted
        total.failed += outcome.failed
        total.messages.extend(outcome.messages)
        if outcome.ref_err is not None:
            ref_errs.append(outcome.ref_err)

    with probe.running() if probe is not None else contextlib.nullcontext():
        for _ in range(SETUPS):
            (gc, inputs), raw, corrected = timed(set_up)
            raw_setup_times.append(raw)
            setup_times.append(corrected)
        # free the earlier set-ups' module copies now, so that peak RSS does
        # not depend on when the collector happens to run
        garbage.collect()
        # warm-up: the first pass pays for first-call costs and cold caches
        one_pass(gc, inputs, False, record=False)
        start = last = time.perf_counter()
        while True:
            one_pass(gc, inputs, False)
            if trace:
                one_pass(gc, inputs, True)
            now = time.perf_counter()
            # stop unless another round as long as the last one still fits
            if 2 * now - last - start > seconds:
                break
            last = now

    if trace:
        # every time metric comes from one pass, so that the self times and
        # trace.unattributed_s add up to that pass's trace.wall_s
        median_pass = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
        values = tracer.pass_metrics(median_pass)
        values["trace.overhead"] = traced[median_pass] / statistics.median(plain)
        units = PER_LAYER
    else:
        values = {
            # corrected for the host CPU's speed drift: see speedprobe.py
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units},
        "fail_frac": total.failed / total.attempted,
        "ref_err": max(ref_errs) if ref_errs else None,
        "wall_s_samples": plain,
        "raw_wall_s_samples": raw_plain,
        "traced_wall_s_samples": traced,
        "wall_s_tail": tail_percentile(plain),
        "setup_s_samples": setup_times,
        "raw_setup_s_samples": raw_setup_times,
        "probe_s_samples": probe.samples if probe is not None else [],
        "messages": total.messages[:20],
        "untraced_entry_points": sorted(tracer.missing) if trace else [],
        "environment": environment(),
        "tracer": tracer,
    }


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def report_lines(rec):
    """Human-readable lines: every metric with its unit, then the context."""
    lines = [f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']}"]
    for m, entry in rec["metrics"].items():
        lines.append(f"{m:<26} {entry['value']:.6g} {entry['unit']}")
    lines.append(f"{'fail_frac':<26} {rec['fail_frac']:.6g} ratio ({rec['failed']}/{rec['attempted']} operations)")
    if rec["ref_err"] is not None:
        lines.append(f"{'ref_err':<26} {rec['ref_err']:.6g} 1")
    samples = rec["wall_s_samples"]
    tail = rec["wall_s_tail"]
    tail_text = f", p{tail[0]} {tail[1]:.6g} s" if tail else ", too few for a tail percentile"
    lines.append(
        f"# untraced passes: {len(samples)}, median {statistics.median(samples):.6g} s{tail_text}; "
        f"set-ups: {len(rec['setup_s_samples'])}"
    )
    if rec["probe_s_samples"]:
        lines.append(
            f"# uncorrected medians: pass {statistics.median(rec['raw_wall_s_samples']):.6g} s, "
            f"set-up {statistics.median(rec['raw_setup_s_samples']):.6g} s; "
            f"speed probe: {len(rec['probe_s_samples'])} ticks, "
            f"median {statistics.median(rec['probe_s_samples']) * 1e3:.4g} ms (reference {REFERENCE_S * 1e3:.4g} ms)"
        )
    env = rec["environment"]
    lines.append("# " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if rec["untraced_entry_points"]:
        lines.append("# not traced, missing from geocalc: " + ", ".join(rec["untraced_entry_points"]))
    for msg in rec["messages"]:
        lines.append(f"# failed: {msg}")
    return lines


def write_record(rec):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}")
    tracer = rec["tracer"]
    body = {k: v for k, v in rec.items() if k != "tracer"}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1)
    if tracer is not None:
        np.savez_compressed(stem + "-spans.npz", **tracer.spans_table())


def run_all(args):
    """Each workload in its own child process; prints their lines and a table."""
    results = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    if not args.trace:
        print(f"{'workload':<16}" + "".join(f"{m + ' (' + u + ')':>18}" for m, u in END_TO_END) + f"{'fail_frac':>12}")
        for name, res in results.items():
            vals = "".join(f"{res['metrics'][m]['value']:>18.6g}" for m, _ in END_TO_END)
            print(f"{name:<16}{vals}{res['failed'] / res['attempted']:>12.3g}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(rec)))
    write_record(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
