"""In-memory spans around the public functions of the beamwkb modules.

The tracer replaces module attributes with timing wrappers from outside
the package.  Every caller inside beamwkb resolves a cross-module or
module-global function through the module at call time, so a wrapped
attribute sees every call.  Each span records its layer key, its parent
and its start and end; a layer's self time is its spans' durations minus
the time their direct children cover.

Layer keys follow LAYER_KEYS.  A public function that is not listed there
inherits its caller's key when the caller is in the same module (a helper
of that layer) and is otherwise charged to ``<module>.other``.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter

# (module, function) -> layer key
LAYER_KEYS = {
    ("outer", "solve_three_point_eigen"): "outer.three_point",
    ("outer", "compute_lambda1"): "outer.three_point",
    ("outer", "solve_v1"): "outer.correction",
    ("outer", "solve_correction"): "outer.correction",
    ("outer", "boundary_data"): "outer.boundary_data",
    ("inner", "compute_phase"): "inner.phase",
    ("inner", "quantize"): "inner.phase",
    ("inner", "solve_f0"): "inner.transport",
    ("inner", "transport_sigma"): "inner.transport",
    ("inner", "make_w_stack"): "inner.transport",
    ("inner", "transport_solve"): "inner.transport",
    ("inner", "evaluate_inner"): "inner.evaluate",
    ("hermite", "assemble"): "hermite.assemble",
    ("hermite", "eigs_near"): "hermite.eigs_near",
    ("oracle", "assemble"): "oracle.assemble",
    ("oracle", "solve_near"): "oracle.solve_near",
    ("oracle", "normalize_weighted"): "oracle.normalize",
    ("harness", "build_expansion"): "harness.build",
    ("harness", "run_convergence"): "harness.sweep",
    ("harness", "compare_eigenfunction"): "harness.compare",
    ("harness", "fit_rate"): "harness.fits",
    ("harness", "drop_one_spread"): "harness.fits",
    ("harness", "save_artifact"): "harness.artifact_io",
    ("harness", "load_artifact"): "harness.artifact_io",
    ("harness", "artifact_to_dict"): "harness.artifact_io",
    ("harness", "artifact_from_dict"): "harness.artifact_io",
    ("harness", "emit_report"): "harness.emit",
}

# modules whose public functions get spans; `model` is left out because its
# coefficient evaluation only ever runs inside hermite.assemble
TRACED_MODULES = ("outer", "inner", "hermite", "oracle", "harness", "cli")

SELF_TIME_KEYS = (
    "outer.three_point", "outer.correction", "outer.boundary_data",
    "outer.other",
    "inner.phase", "inner.transport", "inner.evaluate", "inner.other",
    "hermite.assemble", "hermite.eigs_near", "hermite.other",
    "oracle.assemble", "oracle.solve_near", "oracle.normalize", "oracle.other",
    "harness.build", "harness.sweep", "harness.compare", "harness.fits",
    "harness.artifact_io", "harness.emit", "harness.other",
    "cli",
)


def _count_elements(args, kwargs, result):
    return len(kwargs.get("nodes", args[0] if args else ())) - 1


def _count_ndof(args, kwargs, result):
    return result.asm.ndof


def _count_points(args, kwargs, result):
    xi = kwargs["xi"] if "xi" in kwargs else args[3]
    return getattr(xi, "size", 1)


# layer key -> [(counter name, amount(args, kwargs, result))]; counted once
# per outermost span of the key, so solve_correction under solve_v1 is one
COUNTERS = {
    "outer.correction": [("outer.correction.calls", None)],
    "inner.evaluate": [("inner.evaluate.calls", None),
                       ("inner.evaluate.points", _count_points)],
    "hermite.assemble": [("hermite.assemble.elements", _count_elements)],
    "hermite.eigs_near": [("hermite.eigs_near.calls", None)],
    "oracle.assemble": [("oracle.ndof.sum", _count_ndof)],
}

# counted at the scipy.sparse.linalg boundary, whichever layer calls them
SCIPY_COUNTERS = {"splu": "hermite.lu.count", "eigsh": "hermite.arpack.count"}
COUNTER_NAMES = tuple(name for specs in COUNTERS.values()
                      for name, _ in specs) + tuple(SCIPY_COUNTERS.values())


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []        # [key, qualified name, parent index, t0, t1]
        self.counts = Counter()
        self._stack = []

    def _wrap(self, mod_name, name, fn):
        fixed_key = LAYER_KEYS.get((mod_name, name))
        counters = COUNTERS.get(fixed_key, ())
        qualname = f"{mod_name}.{name}"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            parent_key = None if parent is None else self.spans[parent][0]
            if fixed_key is not None:
                key = fixed_key
            elif mod_name == "cli":
                key = "cli"
            elif parent is not None and \
                    self.spans[parent][1].startswith(mod_name + "."):
                key = parent_key
            else:
                key = mod_name + ".other"
            idx = len(self.spans)
            rec = [key, qualname, parent, 0.0, 0.0]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if parent_key != key:
                for counter, amount in counters:
                    self.counts[counter] += \
                        1 if amount is None else amount(args, kwargs, result)
            return result
        return span

    def _count(self, counter, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap the public functions; returns a callable that restores them."""
        import importlib
        import scipy.sparse.linalg as spla

        saved = []
        for mod_name in TRACED_MODULES:
            mod = importlib.import_module(f"beamwkb.{mod_name}")
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(mod_name, name, fn))
        for name, counter in SCIPY_COUNTERS.items():
            fn = getattr(spla, name)
            saved.append((spla, name, fn))
            setattr(spla, name, self._count(counter, fn))

        def restore():
            for mod, name, fn in reversed(saved):
                setattr(mod, name, fn)
        return restore

    def span_self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [t1 - t0 for _, _, _, t0, t1 in self.spans]
        for _, _, parent, t0, t1 in self.spans:
            if parent is not None:
                own[parent] -= t1 - t0
        return own

    def self_times(self):
        """Self time per layer key, in seconds."""
        out = dict.fromkeys(SELF_TIME_KEYS, 0.0)
        for rec, own in zip(self.spans, self.span_self_times()):
            out[rec[0]] = out.get(rec[0], 0.0) + own
        return out

    def root_time(self):
        """Total duration of the spans that have no parent."""
        return sum(t1 - t0 for _, _, parent, t0, t1 in self.spans
                   if parent is None)
