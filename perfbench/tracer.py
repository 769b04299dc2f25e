"""In-memory span tracing of vordiff's layers, installed from outside the package.

A traced function is replaced by a wrapper under every name it is bound to
in the vordiff modules.  ``from .fracops import l1_weights`` gives
``forward`` and ``inverse`` bindings of their own, and ``solve_forward`` is
bound in ``inverse`` and ``cli``; a wrapper installed only where a function
is defined would miss those calls.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "vordiff"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_terms(counts, args, kwargs, _result):
    counts["fracops.l1_weights.terms"] += _arg(args, kwargs, 1, "n")


def _count_steps(counts, args, kwargs, _result):
    counts["forward.mode_steps"] += _arg(args, kwargs, 3, "mesh").M


def _count_gn_iters(counts, _args, _kwargs, result):
    counts["inverse.recover_order.gn_iters"] += result.iterations


def _count_bytes(counts, args, kwargs, _result):
    counts["csvio.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


SPAN, COUNT = "span", "count"

# (module, attribute, metric prefix, kind, hook).  COUNT only counts calls:
# the order and k(t) evaluations are too small to time without the wrapper
# dominating them.  Every csvio writer is traced so that bytes_written
# covers all output files.
TARGETS = [
    ("fracops", "l1_weights", "fracops.l1_weights", SPAN, _count_terms),
    ("fracops", "caputo_order_sensitivity", "fracops.caputo_order_sensitivity", SPAN, None),
    ("fracops", "OrderFunction.__post_init__", "fracops.OrderFunction.init", SPAN, None),
    ("fracops", "OrderFunction.__call__", "fracops.OrderFunction.call", COUNT, None),
    ("forward", "ModelSpec.k_at", "forward.ModelSpec.k_at", COUNT, None),
    ("forward", "solve_mode", "forward.solve_mode", SPAN, _count_steps),
    ("forward", "solve_forward", "forward.solve_forward", SPAN, None),
    ("spectral", "analyze_function", "spectral.analyze_function", SPAN, None),
    ("spectral", "SpectralBasis.design_matrix", "spectral.SpectralBasis.design_matrix", SPAN, None),
    ("diagnostics", "regularity_report", "diagnostics.regularity_report", SPAN, None),
    ("inverse", "residual", "inverse.residual", SPAN, None),
    ("inverse", "jacobian", "inverse.jacobian", SPAN, None),
    ("inverse", "recover_order", "inverse.recover_order", SPAN, _count_gn_iters),
    ("inverse", "synthesize_observations", "inverse.synthesize_observations", SPAN, None),
    ("csvio", "read_observations_csv", "csvio.read_observations_csv", SPAN, None),
    ("config", "RunConfig.load", "config.RunConfig.load", SPAN, None),
    ("cli", "main", "cli.main", SPAN, None),
]

# Per-layer metrics in report order: (name, unit, better).
PER_LAYER = [
    ("fracops.l1_weights.calls", "count", "lower"),
    ("fracops.l1_weights.terms", "count", "lower"),
    ("fracops.l1_weights.self_s", "s", "lower"),
    ("fracops.caputo_order_sensitivity.calls", "count", "lower"),
    ("fracops.caputo_order_sensitivity.self_s", "s", "lower"),
    ("fracops.OrderFunction.call.calls", "count", "lower"),
    ("fracops.OrderFunction.init.calls", "count", "lower"),
    ("fracops.OrderFunction.init.self_s", "s", "lower"),
    ("forward.ModelSpec.k_at.calls", "count", "lower"),
    ("forward.solve_mode.calls", "count", "lower"),
    ("forward.solve_mode.self_s", "s", "lower"),
    ("forward.mode_steps", "count", "lower"),
    ("forward.solve_forward.calls", "count", "lower"),
    ("forward.solve_forward.total_s", "s", "lower"),
    ("spectral.analyze_function.calls", "count", "lower"),
    ("spectral.analyze_function.self_s", "s", "lower"),
    ("spectral.SpectralBasis.design_matrix.calls", "count", "lower"),
    ("spectral.SpectralBasis.design_matrix.self_s", "s", "lower"),
    ("diagnostics.regularity_report.total_s", "s", "lower"),
    ("inverse.residual.calls", "count", "lower"),
    ("inverse.residual.total_s", "s", "lower"),
    ("inverse.jacobian.calls", "count", "lower"),
    ("inverse.jacobian.total_s", "s", "lower"),
    ("inverse.jacobian.self_s", "s", "lower"),
    ("inverse.recover_order.gn_iters", "count", "lower"),
    ("inverse.recover_order.forward_solves", "count", "lower"),
    ("inverse.recover_order.accept_ratio", "ratio", "higher"),
    ("inverse.synthesize_observations.total_s", "s", "lower"),
    ("csvio.write_solution_csv.self_s", "s", "lower"),
    ("csvio.write_modes_csv.self_s", "s", "lower"),
    ("csvio.bytes_written", "bytes", "lower"),
    ("csvio.read_observations_csv.self_s", "s", "lower"),
    ("config.RunConfig.load.self_s", "s", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
]


class Tracer:
    """Wrappers for the TARGETS, installed and removed as a whole.

    ``begin(op)`` tags what follows with an op index; -1 is set-up.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}  # op index -> Counter of call counts and hook counters
        self._stack = []
        self.begin(-1)
        self.bindings = self._collect()

    def begin(self, op):
        self._op = op
        self._current = self.counts.setdefault(op, Counter())

    def install(self):
        for owner, attr, _original, wrapper, _name in self.bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper, _name in self.bindings:
            setattr(owner, attr, original)

    def binding_counts(self):
        """Number of names each traced function is bound to."""
        return Counter(name for *_, name in self.bindings)

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, hook):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            self.start.append(0.0)
            stack.append(idx)
            self.start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self._current, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._current[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _collect(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        csvio = sys.modules[f"{PACKAGE}.csvio"]
        writers = [("csvio", n, f"csvio.{n}", SPAN, _count_bytes)
                   for n in sorted(vars(csvio)) if n.startswith("write_")]
        bindings = []
        for module, attr, name, kind, hook in TARGETS + writers:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            owner_name, _, attr = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
            else:
                fn = getattr(mod, attr)
            wrapper = self._span(name, fn, hook) if kind == SPAN else self._count(name, fn)
            if owner_name:
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                bindings.append((owner, attr, raw, wrapper, name))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        bindings.append((m, key, fn, wrapper, name))
        return bindings

    # -- results --------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "op": np.frombuffer(self.op, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez(path, **self.arrays())

    def summary(self, ops):
        """Per-op layer metrics over the traced ops.

        Counts are means over the ops and times are medians of per-op sums.
        synthesize_observations is timed in set-up (op -1), where the
        inversion workload makes its observations.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child

        ops = sorted(ops)
        in_ops = np.isin(a["op"], ops)
        row = np.searchsorted(ops, a["op"][in_ops])
        key = row * n_names + a["name_id"][in_ops]
        shape = (len(ops), n_names)
        size = len(ops) * n_names

        def table(weights):
            return np.bincount(key, weights=weights, minlength=size).reshape(shape)

        calls = table(None)
        total = table(dur[in_ops])
        self_s = table(self_time[in_ops])

        out = {}
        for name, nid in self._ids.items():
            out[f"{name}.calls"] = float(calls[:, nid].mean())
            out[f"{name}.total_s"] = float(np.median(total[:, nid]))
            out[f"{name}.self_s"] = float(np.median(self_s[:, nid]))
        counters = Counter()
        for op in ops:
            counters.update(self.counts.get(op, {}))
        for name, value in counters.items():
            out[name] = value / len(ops)

        # Forward solves and residuals made inside recover_order, by interval.
        rec = self._ids["inverse.recover_order"]
        spans = in_ops & (a["name_id"] == rec)
        nested = Counter()
        for name in ("forward.solve_forward", "inverse.residual"):
            starts = np.sort(a["start"][in_ops & (a["name_id"] == self._ids[name])])
            lo = np.searchsorted(starts, a["start"][spans])
            hi = np.searchsorted(starts, a["end"][spans])
            nested[name] = int((hi - lo).sum())
        out["inverse.recover_order.forward_solves"] = nested["forward.solve_forward"] / len(ops)
        trials = nested["inverse.residual"] - int(spans.sum())
        gn = counters["inverse.recover_order.gn_iters"]
        out["inverse.recover_order.accept_ratio"] = gn / trials if trials > 0 else 0.0

        setup = a["op"] == -1
        syn = setup & (a["name_id"] == self._ids["inverse.synthesize_observations"])
        out["inverse.synthesize_observations.total_s"] = float(dur[syn].sum())
        return out
