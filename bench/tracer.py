"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``orthocusp`` layer from
outside the program: it replaces module attributes (and every alias another
module bound by name at import), and patches methods on their class.  Each
wrapped call records one span (name, start, end, parent span, case id) in
memory; ``write_spans`` saves them once the pass is over.  Work counts
are computed from the call's arguments and result only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from math import comb

# (module, attribute path).  A dotted path names a method patched on its class.
TARGETS = (
    ("cli", "build_parser"), ("cli", "_read_json"),
    ("reportio", "make_report"), ("reportio", "emit_report"),
    ("qform", "QuadraticLattice.bilinear"), ("qform", "hasse_invariant"),
    ("_linalg", "dot"), ("_linalg", "mat_vec"), ("_linalg", "mat_mul"),
    ("_linalg", "mat_eq"), ("_linalg", "transpose"), ("_linalg", "rref"),
    ("_linalg", "rank"), ("_linalg", "solve"), ("_linalg", "nullspace"),
    ("_linalg", "inverse"), ("_linalg", "determinant"), ("_linalg", "kernel_int"),
    ("_linalg", "primitive"),
    ("fan", "_nonneg_solve"), ("fan", "_extreme_rays_of_halfspaces"),
    ("fan", "intersect_cones"), ("fan", "validate_fan"), ("fan", "faces"),
    ("fan", "RationalCone.__init__"), ("fan", "barycentric_subdivide"),
    ("fan", "fan_from_maximal"),
    ("corecone", "_reducible"), ("corecone", "cone_lattice_points"),
    ("corecone", "boundary_rays"), ("corecone", "core_extremes"),
    ("corecone", "support_fan"), ("corecone", "gamma_check"),
    ("cycles", "enumerate_isometries"), ("cycles", "matrix_order"),
    ("cycles", "classify_ramification"),
    ("dimform", "_count_gram_preservers"), ("dimform", "local_density"),
    ("chern", "todd_from_chern"), ("chern", "universal_Q"),
    ("parab", "boundary_data"),
)


def label_of(module, path):
    return f"{module}.{path.replace('.__init__', '.init')}"


# Counters: label -> fn(counters, bound arguments, result, raised).
def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


COUNTS = {
    "cycles.enumerate_isometries":
        lambda c, a, r, exc: exc or _add(c, "found", len(r)),
    "cycles.matrix_order":
        lambda c, a, r, exc: _add(c, "infinite", int(not exc and r is None)),
    "cycles.classify_ramification":
        lambda c, a, r, exc: _add(c, "refused", int(exc)),
    "fan._nonneg_solve":
        lambda c, a, r, exc: _add(c, "feasible", int(not exc and bool(r))),
    "corecone._reducible":
        lambda c, a, r, exc: _add(c, "reduced", int(not exc and bool(r))),
    "corecone.cone_lattice_points":
        lambda c, a, r, exc: (_add(c, "scanned", (2 * a["height"] + 1) ** a["cone"].dim),
                              exc or _add(c, "kept", len(r))),
    "fan._extreme_rays_of_halfspaces":
        lambda c, a, r, exc: _add(c, "subsets", comb(
            len(a["normals"]) + 2 * len(a["equations"]), a["dim"] - 1)),
    "corecone.support_fan":
        lambda c, a, r, exc: (_add(c, "subsets", comb(len(a["E"].points), a["cone"].dim)),
                              exc or _add(c, "functionals", len(r[1].functionals))),
    "dimform._count_gram_preservers":
        lambda c, a, r, exc: (_add(c, "scanned", a["mod"] ** (a["m"] ** 2)),
                              exc or _add(c, "hits", r)),
    "reportio.emit_report":
        lambda c, a, r, exc: exc or _add(c, "bytes", len(r)),
}

# Per-layer metrics: (name, unit, kind, label, counter key).  Metric names
# start with a letter, so the _linalg layer reports as "linalg.".  kind is one of
# calls, s (inclusive, outermost spans only), self_s, count (a counter), share
# (counter / calls) or ratio (counter / counter named in the last field).
LAYER_METRICS = (
    ("cycles.enumerate_isometries.s", "s", "s", "cycles.enumerate_isometries", None),
    ("cycles.enumerate_isometries.found", "count", "count", "cycles.enumerate_isometries", "found"),
    ("cycles.matrix_order.calls", "count", "calls", "cycles.matrix_order", None),
    ("cycles.matrix_order.s", "s", "s", "cycles.matrix_order", None),
    ("cycles.matrix_order.self_s", "s", "self_s", "cycles.matrix_order", None),
    ("cycles.matrix_order.infinite_share", "share", "share", "cycles.matrix_order", "infinite"),
    ("cycles.classify_ramification.s", "s", "s", "cycles.classify_ramification", None),
    ("cycles.classify_ramification.refused_share", "share", "share",
     "cycles.classify_ramification", "refused"),
    ("qform.QuadraticLattice.bilinear.calls", "count", "calls", "qform.QuadraticLattice.bilinear", None),
    ("qform.QuadraticLattice.bilinear.self_s", "s", "self_s", "qform.QuadraticLattice.bilinear", None),
    ("linalg.mat_mul.calls", "count", "calls", "_linalg.mat_mul", None),
    ("linalg.mat_mul.self_s", "s", "self_s", "_linalg.mat_mul", None),
    ("fan._nonneg_solve.calls", "count", "calls", "fan._nonneg_solve", None),
    ("fan._nonneg_solve.self_s", "s", "self_s", "fan._nonneg_solve", None),
    ("fan._nonneg_solve.feasible_share", "share", "share", "fan._nonneg_solve", "feasible"),
    ("corecone._reducible.calls", "count", "calls", "corecone._reducible", None),
    ("corecone._reducible.reduced_share", "share", "share", "corecone._reducible", "reduced"),
    ("corecone.cone_lattice_points.self_s", "s", "self_s", "corecone.cone_lattice_points", None),
    ("corecone.cone_lattice_points.scanned", "count", "count", "corecone.cone_lattice_points", "scanned"),
    ("corecone.cone_lattice_points.kept", "count", "count", "corecone.cone_lattice_points", "kept"),
    ("corecone.boundary_rays.self_s", "s", "self_s", "corecone.boundary_rays", None),
    ("corecone.core_extremes.s", "s", "s", "corecone.core_extremes", None),
    ("fan._extreme_rays_of_halfspaces.calls", "count", "calls", "fan._extreme_rays_of_halfspaces", None),
    ("fan._extreme_rays_of_halfspaces.self_s", "s", "self_s", "fan._extreme_rays_of_halfspaces", None),
    ("fan._extreme_rays_of_halfspaces.subsets", "count", "count",
     "fan._extreme_rays_of_halfspaces", "subsets"),
    ("fan.intersect_cones.calls", "count", "calls", "fan.intersect_cones", None),
    ("fan.validate_fan.s", "s", "s", "fan.validate_fan", None),
    ("fan.faces.calls", "count", "calls", "fan.faces", None),
    ("fan.RationalCone.init.self_s", "s", "self_s", "fan.RationalCone.init", None),
    ("fan.barycentric_subdivide.s", "s", "s", "fan.barycentric_subdivide", None),
    ("corecone.support_fan.s", "s", "s", "corecone.support_fan", None),
    ("corecone.support_fan.subsets", "count", "count", "corecone.support_fan", "subsets"),
    ("corecone.support_fan.functionals", "count", "count", "corecone.support_fan", "functionals"),
    ("corecone.gamma_check.s", "s", "s", "corecone.gamma_check", None),
    ("dimform._count_gram_preservers.calls", "count", "calls", "dimform._count_gram_preservers", None),
    ("dimform._count_gram_preservers.self_s", "s", "self_s", "dimform._count_gram_preservers", None),
    ("dimform._count_gram_preservers.scanned", "count", "count",
     "dimform._count_gram_preservers", "scanned"),
    ("dimform._count_gram_preservers.hit_share", "share", "ratio",
     "dimform._count_gram_preservers", "hits/scanned"),
    ("dimform.local_density.s", "s", "s", "dimform.local_density", None),
    ("cli.build_parser.self_s", "s", "self_s", "cli.build_parser", None),
    ("cli._read_json.self_s", "s", "self_s", "cli._read_json", None),
    ("reportio.make_report.self_s", "s", "self_s", "reportio.make_report", None),
    ("reportio.emit_report.self_s", "s", "self_s", "reportio.emit_report", None),
    ("reportio.emit_report.bytes", "bytes", "count", "reportio.emit_report", "bytes"),
    ("chern.todd_from_chern.s", "s", "s", "chern.todd_from_chern", None),
    ("chern.universal_Q.s", "s", "s", "chern.universal_Q", None),
    ("parab.boundary_data.s", "s", "s", "parab.boundary_data", None),
    ("qform.hasse_invariant.self_s", "s", "self_s", "qform.hasse_invariant", None),
    ("linalg.dot.calls", "count", "calls", "_linalg.dot", None),
    ("linalg.rref.calls", "count", "calls", "_linalg.rref", None),
    ("linalg.solve.calls", "count", "calls", "_linalg.solve", None),
    ("linalg.nullspace.calls", "count", "calls", "_linalg.nullspace", None),
    ("linalg.self_s", "s", "self_s", "_linalg.*", None),
)


class Tracer:
    """In-memory span recorder.  ``current_case`` is stamped on new spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels = []
        self.name = []      # label index of each span
        self.start = []
        self.end = []
        self.parent = []    # span id of the enclosing span, -1 at the root
        self.case = []
        self.nested = []    # True when an enclosing span has the same label
        self.counters = {}  # label -> {counter: value}
        self.notes = []
        self.current_case = -1
        self.import_s = 0.0  # importing modules the CLI would import lazily
        self._stack = [-1]
        self._active = []

    def wrap(self, label, fn, count=None):
        """Return fn wrapped to record one span per call under ``label``."""
        lid = len(self.labels)
        self.labels.append(label)
        self._active.append(0)
        counters = self.counters.setdefault(label, {})
        sig = inspect.signature(fn) if count else None
        clock, stack, active, notes = self.clock, self._stack, self._active, self.notes
        name, start, end, parent, case, nested = (
            self.name, self.start, self.end, self.parent, self.case, self.nested)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(lid)
            parent.append(stack[-1])
            case.append(self.current_case)
            nested.append(active[lid] > 0)
            start.append(0.0)
            end.append(0.0)
            active[lid] += 1
            stack.append(sid)
            raised = True
            result = None
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end[sid] = clock()
                stack.pop()
                active[lid] -= 1
                if count is not None:
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        count(counters, bound.arguments, result, raised)
                    except (TypeError, KeyError, AttributeError) as e:
                        # the function's signature or result changed shape
                        note = f"{label}: counts skipped ({type(e).__name__}: {e})"
                        if note not in notes:
                            notes.append(note)
            return result

        return traced

    def install(self, package="orthocusp", targets=TARGETS):
        """Wrap every target; a target that no longer exists gets a note."""
        modules = {}
        t0 = time.perf_counter()
        for module_name, _ in targets:
            try:
                modules[module_name] = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                modules[module_name] = None
        self.import_s = time.perf_counter() - t0
        for module_name, path in targets:
            label = label_of(module_name, path)
            module = modules[module_name]
            owner, attr = module, path
            if module is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.labels.append(label)
                self._active.append(0)
                self.notes.append(f"{label}: not found, reported as zero calls")
                continue
            wrapped = self.wrap(label, original, COUNTS.get(label))
            setattr(owner, attr, wrapped)
            if owner is module:
                # aliases bound by ``from .x import name`` in other modules
                for other_name, other in list(sys.modules.items()):
                    if other is module or not other_name.startswith(package + "."):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)

    def aggregate(self):
        """label -> {calls, s, self_s}; s sums outermost spans only."""
        child = [0.0] * len(self.start)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {label: {"calls": 0, "s": 0.0, "self_s": 0.0} for label in self.labels}
        for sid, lid in enumerate(self.name):
            dur = self.end[sid] - self.start[sid]
            rec = out[self.labels[lid]]
            rec["calls"] += 1
            rec["self_s"] += dur - child[sid]
            if not self.nested[sid]:
                rec["s"] += dur
        return out

    def case_attribution(self, top=3):
        """case id -> [(label, inclusive s)] for the largest labels in that case."""
        per_case = {}
        for sid, lid in enumerate(self.name):
            if self.nested[sid]:
                continue
            d = per_case.setdefault(self.case[sid], {})
            label = self.labels[lid]
            d[label] = d.get(label, 0.0) + self.end[sid] - self.start[sid]
        return {c: sorted(d.items(), key=lambda kv: -kv[1])[:top]
                for c, d in per_case.items()}

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write(json.dumps({"labels": self.labels}) + "\n")
            for sid, lid in enumerate(self.name):
                fh.write(f"{sid},{lid},{self.start[sid]!r},{self.end[sid]!r},"
                         f"{self.parent[sid]},{self.case[sid]}\n")


def layer_metrics(agg, counters):
    """Values of LAYER_METRICS from aggregated spans and counters."""
    linalg_self = sum(r["self_s"] for label, r in agg.items() if label.startswith("_linalg."))
    out = {}
    for name, _unit, kind, label, key in LAYER_METRICS:
        rec = agg.get(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
        cnt = counters.get(label, {})
        if label == "_linalg.*":
            value = linalg_self
        elif kind in ("calls", "s", "self_s"):
            value = rec[kind]
        elif kind == "count":
            value = cnt.get(key, 0)
        elif kind == "share":
            value = cnt.get(key, 0) / rec["calls"] if rec["calls"] else 0.0
        else:  # ratio
            num, den = key.split("/")
            value = cnt.get(num, 0) / cnt[den] if cnt.get(den) else 0.0
        out[name] = value
    return out
