"""Span tracer and timing shims for the traced benchmark run.

The shims wrap public names of the v2vaoi modules from outside the program.
A function is rebound to its shim under every module attribute that holds
it (``cli.greedy_pa``, ``metrics.genetic_pa``, ``allocator.project_to_feasible``
and so on), so a call is traced whichever binding it goes through.  A value
class keeps its identity, so ``isinstance`` still works; its ``__init__``
is wrapped instead.  Everything is restored when the ``shims`` block exits.

Each span stores its name, its parent span, start, end and whether it
raised, in flat arrays.  Self time is derived after the run: a span's
duration minus the durations of its direct children.
"""

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (module, name) of every traced call.  Functions are shimmed at each
# binding inside the package; classes through their __init__.  A name the
# program no longer has is skipped and reports zero calls.  The offdiag_*
# helpers are left out: they run several times per greedy epoch, and their
# spans cost more than the work they would attribute.
SPAN_TARGETS = (
    ("cli", "main"),
    ("metrics", "run_comparison"),
    ("metrics", "delay_rmse"),
    ("metrics", "delay_variance"),
    ("metrics", "delay_mean"),
    ("allocator", "default_pa"),
    ("allocator", "greedy_pa"),
    ("allocator", "genetic_pa"),
    ("allocator", "check_feasible"),
    ("allocator", "project_to_feasible"),
    ("channel", "PowerMatrix"),
    ("channel", "DistanceMatrix"),
    ("channel", "LinkMetrics"),
    ("channel", "compute_snr_matrix"),
    ("channel", "compute_snr_batch"),
    ("channel", "compute_delay_matrix"),
    ("channel", "link_metrics"),
    ("scenario", "generate_scene"),
    ("aoi", "build_aoi_records"),
    ("aoi", "aoi_summary"),
    ("proxy", "estimate_scene_ap"),
    ("proxy", "estimate_ap"),
)

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, name in SPAN_TARGETS)


def _solver_steps(args, kwargs, result):
    return result.epochs_used, result.history


# Cheap facts kept from a call's arguments or result; counted after the run
# so that no per-call work lands in the caller's self time.
PAYLOADS = {
    "allocator.greedy_pa": _solver_steps,
    "allocator.genetic_pa": _solver_steps,
    "channel.compute_snr_batch": lambda args, kwargs, result: result.shape[0],
    "aoi.build_aoi_records": lambda args, kwargs, result: len(result),
}


class Tracer:
    """Collects spans from the shims it creates; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids = {}
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self.payloads = {}

    def wrap(self, name, fn, payload=None):
        """A callable that runs ``fn`` inside a span called ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock, stack = self._clock, self._stack
        name_id, parent, start, end, raised = (
            self.name_id, self.parent, self.start, self.end, self.raised
        )
        kept = self.payloads.setdefault(name, []) if payload else None

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            raised.append(1)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            raised[idx] = 0
            if kept is not None:
                kept.append(payload(args, kwargs, result))
            return result

        return shim

    def stats(self):
        """Per span name: calls, errors, self seconds and inclusive seconds."""
        return span_stats(
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.raised, dtype=np.int8),
            self.names,
        )


def span_stats(name_id, parent, start, end, raised, names):
    """Aggregate a span table by name.

    ``self_s`` is each span's duration minus its direct children's,
    summed.  ``total_s`` counts only spans with no ancestor of the same
    name, so a function nested in itself is not counted twice.
    """
    count = len(names)
    if len(start) == 0:
        zero = {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0}
        return {name: dict(zero) for name in names}
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    nested = np.zeros(len(dur), dtype=bool)
    ancestor = parent.astype(np.int64)
    live = ancestor >= 0
    while live.any():
        up = ancestor[live]
        nested[live] |= name_id[up] == name_id[live]
        ancestor[live] = parent[up]
        live = ancestor >= 0
    calls = np.bincount(name_id, minlength=count)
    errors = np.bincount(name_id, weights=raised, minlength=count)
    self_s = np.bincount(name_id, weights=own, minlength=count)
    total_s = np.bincount(name_id[~nested], weights=dur[~nested], minlength=count)
    return {
        name: {
            "calls": int(calls[i]),
            "errors": int(errors[i]),
            "self_s": float(self_s[i]),
            "total_s": float(total_s[i]),
        }
        for i, name in enumerate(names)
    }


@contextlib.contextmanager
def shims(tracer):
    """Trace every target in SPAN_TARGETS while the block runs."""
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "v2vaoi" or name.startswith("v2vaoi."))
    ]
    undo = []
    try:
        for mod_name, attr in SPAN_TARGETS:
            span = f"{mod_name}.{attr}"
            home = sys.modules.get(f"v2vaoi.{mod_name}")
            target = getattr(home, attr, None)
            if target is None:
                continue
            if isinstance(target, type):
                init = target.__dict__.get("__init__")
                if init is None:
                    continue
                undo.append((target, "__init__", init))
                setattr(target, "__init__", tracer.wrap(span, init))
                continue
            shim = tracer.wrap(span, target, PAYLOADS.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        undo.append((mod, key, value))
                        setattr(mod, key, shim)
        yield tracer
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)


def last_improvement(history, first_step):
    """Step of the last strict increase in a best-so-far history.

    ``history[k]`` is the value after step ``first_step + k``; 0 when the
    history never rises.
    """
    h = np.asarray(history, dtype=np.float64)
    rises = np.flatnonzero(h[1:] > h[:-1])
    return int(rises[-1]) + 1 + first_step if rises.size else 0


def _per_unit(seconds, units):
    return seconds / units * 1e6 if units else 0.0


# Layer metrics beyond calls/self_s/errors, in output order:
# (metric, unit, better).
EXTRA_LAYER_METRICS = (
    ("allocator.genetic_pa.generations", "count", "lower"),
    ("allocator.genetic_pa.us_per_generation", "us", "lower"),
    ("allocator.genetic_pa.useful_generation_ratio", "ratio", "higher"),
    ("channel.compute_snr_batch.matrices", "count", "lower"),
    ("channel.compute_snr_batch.us_per_matrix", "us", "lower"),
    ("allocator.greedy_pa.epochs", "count", "lower"),
    ("allocator.greedy_pa.us_per_epoch", "us", "lower"),
    ("allocator.greedy_pa.useful_epoch_ratio", "ratio", "higher"),
    ("allocator.project_to_feasible.us_per_call", "us", "lower"),
    ("channel.compute_snr_matrix.us_per_call", "us", "lower"),
    ("aoi.build_aoi_records.records", "count", "lower"),
    ("aoi.build_aoi_records.us_per_record", "us", "lower"),
    ("cli.main.out_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metric_spec():
    """Every per-layer metric the traced run reports: (metric, unit, better)."""
    spec = []
    for span in SPAN_NAMES:
        spec += [
            (f"{span}.calls", "count", "lower"),
            (f"{span}.self_s", "s", "lower"),
            (f"{span}.errors", "count", "lower"),
        ]
    return spec + list(EXTRA_LAYER_METRICS)


def layer_metrics(tracer, out_bytes, overhead_ratio):
    """Per-layer metric values, keyed as in layer_metric_spec."""
    stats = tracer.stats()
    zero = {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0}
    per = {span: stats.get(span, zero) for span in SPAN_NAMES}
    values = {}
    for span, s in per.items():
        values[f"{span}.calls"] = s["calls"]
        values[f"{span}.self_s"] = s["self_s"]
        values[f"{span}.errors"] = s["errors"]

    def solver(span, first_step):
        runs = tracer.payloads.get(span, [])
        steps = sum(used for used, _ in runs)
        useful = sum(last_improvement(h, first_step) for _, h in runs)
        return steps, (useful / steps if steps else 0.0), per[span]["total_s"]

    generations, useful, total = solver("allocator.genetic_pa", 0)
    values["allocator.genetic_pa.generations"] = generations
    values["allocator.genetic_pa.us_per_generation"] = _per_unit(total, generations)
    values["allocator.genetic_pa.useful_generation_ratio"] = useful
    matrices = sum(tracer.payloads.get("channel.compute_snr_batch", []))
    values["channel.compute_snr_batch.matrices"] = matrices
    values["channel.compute_snr_batch.us_per_matrix"] = _per_unit(
        per["channel.compute_snr_batch"]["total_s"], matrices
    )
    epochs, useful, total = solver("allocator.greedy_pa", 1)
    values["allocator.greedy_pa.epochs"] = epochs
    values["allocator.greedy_pa.us_per_epoch"] = _per_unit(total, epochs)
    values["allocator.greedy_pa.useful_epoch_ratio"] = useful
    for span in ("allocator.project_to_feasible", "channel.compute_snr_matrix"):
        values[f"{span}.us_per_call"] = _per_unit(per[span]["total_s"], per[span]["calls"])
    records = sum(tracer.payloads.get("aoi.build_aoi_records", []))
    values["aoi.build_aoi_records.records"] = records
    values["aoi.build_aoi_records.us_per_record"] = _per_unit(
        per["aoi.build_aoi_records"]["total_s"], records
    )
    values["cli.main.out_bytes"] = out_bytes
    values["trace.overhead_ratio"] = overhead_ratio
    return values
