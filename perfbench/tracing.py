"""Spans around calls into geocalc's public functions, recorded from outside.

``Tracer.installed()`` wraps, at class level or module level, the public
entry points of each layer (the repo's modules ``models``, ``rods``,
``core``, ``geodesic``, ``operators`` and ``harness``) plus
``numpy.linalg.solve``, and restores the originals on exit.  Patching the
class means nested calls are seen too (``hess_blocks`` -> ``_sweep`` ->
``self.grads``).  Every function is wrapped once, and that one wrapper is
installed under every geocalc module name bound to the original, because
``operators`` and ``harness`` import ``solve_geodesic`` by name.

A span is (group, parent span, start, end) and lives in flat arrays until
the run ends.  ``pass_metrics`` turns the spans of one pass into the
per-layer metrics: counts, inclusive seconds (outermost span of a group or
layer), and self seconds (span duration minus its children).  A
``numpy.linalg.solve`` span is attributed to the layer of its parent span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (module, class or None, attribute names, group); the layer is the group's
# first dotted component.
SPECS = (
    ("models", "FlatEnergy", ("w", "grad1", "grad2", "hess11", "hess12", "hess21", "hess22", "metric"), "models.energy"),
    ("models", "SphereChartEnergy", ("w", "grad1", "grad2", "hess11", "hess12", "hess21", "hess22", "metric"), "models.energy"),
    ("models", "CircleSdf", ("d", "grad_d", "hess_d"), "models.sdf"),
    ("rods", "SimplifiedRodEnergy", ("grads",), "rods.grads"),
    ("rods", "SimplifiedRodEnergy", ("hess_blocks",), "rods.hess"),
    ("rods", "SimplifiedRodEnergy", ("w", "grad1", "grad2", "hess11", "hess12", "hess21", "hess22", "metric"), "rods.other"),
    ("rods", None, ("rod_energy", "rod_gauge"), "rods.other"),
    # the full rod's density is only ever evaluated by core's FD wrapper
    ("rods", "_FullRodDensity", ("w",), "core.fd.w"),
    ("core", "_FiniteDifferenceModel", ("w", "grad1", "grad2", "hess11", "hess12", "hess21", "hess22", "hess_blocks"), "core.fd"),
    ("core", None, ("check_consistency", "metric_from_energy", "fd_derivatives"), "core.other"),
    ("geodesic", None, ("solve_geodesic", "solve_geodesic_constrained"), "geodesic.solve"),
    ("geodesic", None, ("project_onto_level_set",), "geodesic.project"),
    ("geodesic", None, ("discrete_energy", "discrete_length", "el_residual"), "geodesic.other"),
    ("operators", None, ("log2",), "operators.log2"),
    ("operators", None, ("exp2",), "operators.exp2"),
    (
        "operators",
        None,
        (
            "exp2_hypersurface", "discrete_log", "discrete_exp_path", "discrete_exp",
            "transport_step", "parallel_transport", "inverse_transport", "discrete_connection",
        ),
        "operators.other",
    ),
    ("harness", None, ("run_convergence_study", "run_rod_morph", "run_consistency_audit", "build_backend", "fit_order"), "harness"),
)

LINALG = "linalg"
# layers whose np.linalg.solve time is reported apart from their self time;
# elsewhere it is folded into the parent layer's self time
LINALG_LAYERS = ("geodesic", "operators")

PER_LAYER = (
    ("rods.grads.calls", "count"),
    ("rods.grads.s", "s"),
    ("rods.hess.calls", "count"),
    ("rods.hess.s", "s"),
    ("rods.grads_per_hess", "count"),
    ("rods.self_s", "s"),
    ("core.fd.w_calls", "count"),
    ("core.fd.s", "s"),
    ("core.fd.w_per_hess", "count"),
    ("core.self_s", "s"),
    ("models.energy.calls", "count"),
    ("models.energy.s", "s"),
    ("models.sdf.calls", "count"),
    ("models.sdf.s", "s"),
    ("geodesic.solves", "count"),
    ("geodesic.newton_iters", "count"),
    ("geodesic.unconverged", "count"),
    ("geodesic.s", "s"),
    ("geodesic.self_s", "s"),
    ("geodesic.project.calls", "count"),
    ("geodesic.linalg.calls", "count"),
    ("geodesic.linalg.s", "s"),
    ("operators.log2.calls", "count"),
    ("operators.exp2.calls", "count"),
    ("operators.s", "s"),
    ("operators.self_s", "s"),
    ("operators.linalg.calls", "count"),
    ("operators.linalg.s", "s"),
    ("operators.errors", "count"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
)

# self-time buckets that add up, with trace.unattributed_s, to trace.wall_s
SELF_TIME_PARTS = (
    "models.energy.s", "models.sdf.s", "rods.self_s", "core.self_s",
    "geodesic.self_s", "geodesic.linalg.s", "operators.self_s",
    "operators.linalg.s", "harness.self_s",
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.span_names = []  # span name id -> "module.Class.method"
        self.span_group = []  # span name id -> group
        self._group_ids = {}
        self._layer_ids = {}
        self._g_active = []  # open spans per group
        self._l_active = []  # open spans per layer
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # bit 0: outermost in its group, bit 1: in its layer
        self.current = -1
        self.passes = []  # (pass id, first span, end span, wall seconds)
        self.counts = {}  # per pass: geodesic.newton_iters, geodesic.unconverged, operators.errors
        self.missing = set()  # SPECS entries geocalc no longer has
        self._pass_counts = None

    # --- recording ---

    def _span_id(self, label, group):
        layer = group.split(".", 1)[0]
        gid = self._group_ids.setdefault(group, len(self._group_ids))
        lid = self._layer_ids.setdefault(layer, len(self._layer_ids))
        for active, i in ((self._g_active, gid), (self._l_active, lid)):
            while len(active) <= i:
                active.append(0)
        if label not in self.span_names:
            self.span_names.append(label)
            self.span_group.append(group)
        return self.span_names.index(label), gid, lid, layer

    def _wrap(self, fn, label, group):
        sid, gid, lid, layer = self._span_id(label, group)
        tracer = self
        name, parent, start, end, outer = self.name, self.parent, self.start, self.end, self.outer
        g_active, l_active = self._g_active, self._l_active
        clock = time.perf_counter
        is_solve = group == "geodesic.solve"
        is_operator = layer == "operators"

        def wrapper(*args, **kwargs):
            idx = len(start)
            up = tracer.current
            name.append(sid)
            parent.append(up)
            outer.append((g_active[gid] == 0) | ((l_active[lid] == 0) << 1))
            start.append(0.0)
            end.append(0.0)
            top_operator = is_operator and l_active[lid] == 0
            g_active[gid] += 1
            l_active[lid] += 1
            tracer.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if top_operator:
                    tracer._count("operators.errors", 1)
                raise
            finally:
                start[idx] = t0
                end[idx] = clock()
                g_active[gid] -= 1
                l_active[lid] -= 1
                tracer.current = up
            if is_solve:
                tracer._count("geodesic.newton_iters", result.iterations)
                tracer._count("geodesic.unconverged", int(not result.converged))
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count(self, key, value):
        if self._pass_counts is not None:
            self._pass_counts[key] = self._pass_counts.get(key, 0) + value

    @contextlib.contextmanager
    def installed(self, gc):
        """Patch geocalc (the freshly imported package ``gc``) and np.linalg.solve."""
        modules = [m for n, m in list(sys.modules.items()) if n == "geocalc" or n.startswith("geocalc.")]
        undo = []
        try:
            for mod_name, cls_name, attrs, group in SPECS:
                mod = getattr(gc, mod_name)
                owner = getattr(mod, cls_name, None) if cls_name else mod
                prefix = f"{mod_name}.{cls_name}" if cls_name else mod_name
                for attr in attrs:
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is None:
                        # renamed or removed since the benchmark was written
                        self.missing.add(f"{prefix}.{attr}")
                        continue
                    wrapper = self._wrap(original, f"{prefix}.{attr}", group)
                    if cls_name:
                        setattr(owner, attr, wrapper)
                        undo.append((owner, attr, original))
                        continue
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, key, wrapper)
                                undo.append((m, key, original))
            solve = np.linalg.solve
            np.linalg.solve = self._wrap(solve, "numpy.linalg.solve", LINALG)
            undo.append((np.linalg, "solve", solve))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def run_pass(self, pass_id, fn, *args):
        """Time fn(*args) as one traced pass; spans must already be installed."""
        first = len(self.start)
        self._pass_counts = self.counts.setdefault(pass_id, {})
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            self._pass_counts = None
            self.passes.append((pass_id, first, len(self.start), wall))

    # --- analysis ---

    def pass_metrics(self, index):
        """Per-layer metrics of the index-th recorded pass, except trace.overhead."""
        pass_id, lo, hi, wall = self.passes[index]
        names = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.int64)[lo:hi].copy()
        parents[parents >= 0] -= lo
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        outer = np.frombuffer(self.outer, dtype=np.int8)[lo:hi]
        groups = np.array(self.span_group, dtype=object)[names]
        layers = np.array([g.split(".", 1)[0] for g in groups], dtype=object)

        has_parent = parents >= 0
        child = np.zeros(hi - lo)
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_t = dur - child

        # self-time buckets: models split by group, other layers whole; a
        # linalg span goes to its parent's layer
        bucket = np.where(layers == "models", groups, layers)
        is_linalg = groups == LINALG
        for i in np.flatnonzero(is_linalg):
            p = parents[i]
            if p < 0:
                bucket[i] = "unattributed"
            elif layers[p] in LINALG_LAYERS:
                bucket[i] = f"{layers[p]}.linalg"
            else:
                bucket[i] = bucket[p]

        def count(group):
            return int(np.sum(groups == group))

        def outermost_s(mask, bit):
            return float(np.sum(dur[mask & ((outer & bit) != 0)]))

        def self_of(name):
            return float(np.sum(self_t[bucket == name]))

        def per_call(child_group, parent_label):
            """Calls of child_group made under a parent_label span, per such span."""
            if parent_label not in self.span_names:
                return 0.0
            pid = self.span_names.index(parent_label)
            n_parent = int(np.sum(names == pid))
            if n_parent == 0:
                return 0.0
            under = 0
            for i in np.flatnonzero(groups == child_group):
                p = parents[i]
                while p >= 0 and names[p] != pid:
                    p = parents[p]
                under += p >= 0
            return under / n_parent

        counts = self.counts.get(pass_id, {})
        metrics = {
            "rods.grads.calls": count("rods.grads"),
            "rods.grads.s": outermost_s(groups == "rods.grads", 1),
            "rods.hess.calls": count("rods.hess"),
            "rods.hess.s": outermost_s(groups == "rods.hess", 1),
            "rods.grads_per_hess": per_call("rods.grads", "rods.SimplifiedRodEnergy.hess_blocks"),
            "rods.self_s": self_of("rods"),
            "core.fd.w_calls": count("core.fd.w"),
            # core.fd.w spans always sit inside a core.fd span
            "core.fd.s": outermost_s(groups == "core.fd", 1),
            "core.fd.w_per_hess": per_call("core.fd.w", "core._FiniteDifferenceModel.hess_blocks"),
            "core.self_s": self_of("core"),
            "models.energy.calls": count("models.energy"),
            "models.energy.s": self_of("models.energy"),
            "models.sdf.calls": count("models.sdf"),
            "models.sdf.s": self_of("models.sdf"),
            "geodesic.solves": count("geodesic.solve"),
            "geodesic.newton_iters": counts.get("geodesic.newton_iters", 0),
            "geodesic.unconverged": counts.get("geodesic.unconverged", 0),
            "geodesic.s": outermost_s(layers == "geodesic", 2),
            "geodesic.self_s": self_of("geodesic"),
            "geodesic.project.calls": count("geodesic.project"),
            "geodesic.linalg.calls": int(np.sum(bucket == "geodesic.linalg")),
            "geodesic.linalg.s": self_of("geodesic.linalg"),
            "operators.log2.calls": count("operators.log2"),
            "operators.exp2.calls": count("operators.exp2"),
            "operators.s": outermost_s(layers == "operators", 2),
            "operators.self_s": self_of("operators"),
            "operators.linalg.calls": int(np.sum(bucket == "operators.linalg")),
            "operators.linalg.s": self_of("operators.linalg"),
            "operators.errors": counts.get("operators.errors", 0),
            "harness.self_s": self_of("harness"),
            "trace.wall_s": wall,
        }
        metrics["trace.unattributed_s"] = wall - sum(metrics[p] for p in SELF_TIME_PARTS)
        return metrics

    def spans_table(self):
        """All recorded spans as arrays, for writing out at the end."""
        return {
            "span_names": np.array(self.span_names),
            "span_group": np.array(self.span_group),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "passes": np.array([p[:3] for p in self.passes], dtype=np.int64).reshape(-1, 3),
            "pass_wall": np.array([p[3] for p in self.passes]),
        }
