"""Span tracer that wraps tadlab's public functions from outside the package.

Each traced function is replaced, in every ``tadlab`` module namespace that
binds it, by a wrapper that records one span (label, start, end, parent,
raised) per call. Spans stay in memory; per-layer metrics are computed from
them when the traced pass ends, and the originals are put back on exit.

The tracer only sees calls that go through a module attribute, so a
function's calls to itself or to untraced helpers are part of its self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: traced functions, by the tadlab module that defines them
TRACED = {
    "core": ("optimal_values", "episode_positions", "brute_force_optimal",
             "require_valid", "evaluate_policy"),
    "transform": ("sequential_transform", "lower_policy", "greedy_distill",
                  "kl_distill", "value_relation_check"),
    "learners": ("run_mapg", "mapg_loss_and_grad", "run_vd", "gd_run",
                 "vd_loss_and_grad", "value_iteration", "q_learning",
                 "softmax_pg", "tad_run"),
    "analysis": ("local_min_certificate", "stationarity_certificate"),
    "constructions": ("random_mmdp", "random_matrix_game",
                      "construct_local_minima", "builtin_game"),
    "cli": ("main",),
}

#: run_vd spans are labelled by mixer; monotonic runs in no workload
VD_VARIANTS = ("vdn", "duplex")

#: descent loops: `steps` is the last step of the returned trace, and
#: `step_us` the inclusive span time per step
STEP_LOOPS = ("learners.run_mapg", "learners.run_vd.vdn",
              "learners.run_vd.duplex", "learners.gd_run")

#: metrics the workloads add themselves, outside any span
HARNESS_COUNTS = {"cli.outputs.bytes": "bytes"}


def _count_sweeps(counts, label, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    sweeps = len(result[1])
    counts[label + ".sweeps"] += sweeps
    # computed, not moved: the tensor may stay cache-resident across sweeps
    counts[label + ".bytes_computed"] += sweeps * model.transition.nbytes


def _count_transform_bytes(counts, label, args, kwargs, result):
    counts[label + ".bytes"] += (result.transition.nbytes + result.reward.nbytes
                                 + result.initial_dist.nbytes)


def _count_steps(counts, label, args, kwargs, result):
    counts[label + ".steps"] += result[1].step[-1]


#: label -> (extra count metrics with units, function that adds them)
COUNTERS = {
    "core.optimal_values": ({"sweeps": "count", "bytes_computed": "bytes"},
                            _count_sweeps),
    "transform.sequential_transform": ({"bytes": "bytes"}, _count_transform_bytes),
    **{label: ({"steps": "count"}, _count_steps) for label in STEP_LOOPS},
}


def _labels():
    for module, names in TRACED.items():
        for name in names:
            base = f"{module}.{name}"
            if base == "learners.run_vd":
                yield from (f"{base}.{v}" for v in VD_VARIANTS)
            else:
                yield base


LABELS = tuple(_labels())


def layer_metric_units():
    """Every per-layer metric name a traced pass reports, with its unit."""
    units = {}
    for label in LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
        units[f"{label}.errors"] = "count"
        extra, _ = COUNTERS.get(label, ({}, None))
        for stat, unit in extra.items():
            units[f"{label}.{stat}"] = unit
        if label in STEP_LOOPS:
            units[f"{label}.step_us"] = "us"
    units.update(HARNESS_COUNTS)
    return units


def _run_vd_label(args, kwargs):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return f"learners.run_vd.{params.variant}"


class Tracer:
    """Context manager: wraps the traced functions on entry, restores on exit."""

    def __init__(self):
        self.spans = []  # [label, start, end, parent index or -1, raised]
        self.counts = defaultdict(float)
        self._open = []
        self._patched = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tadlab" or n.startswith("tadlab.")]
        for module, names in TRACED.items():
            home = sys.modules[f"tadlab.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for m in modules:
                    if m.__dict__.get(name) is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        return False

    def _wrap(self, label, fn):
        spans, open_spans, counts = self.spans, self._open, self.counts
        name_of = _run_vd_label if label == "learners.run_vd" else None

        def traced(*args, **kwargs):
            span_label = name_of(args, kwargs) if name_of else label
            span = [span_label, 0.0, 0.0, open_spans[-1] if open_spans else -1, False]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
            counter = COUNTERS.get(span_label)
            if counter is not None:
                counter[1](counts, span_label, args, kwargs, result)
            return result

        return traced

    def add(self, name, value):
        """Add a count the caller measured itself (see HARNESS_COUNTS)."""
        self.counts[name] += value

    def metrics(self):
        """Per-layer metrics of every span recorded so far."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(layer_metric_units(), 0.0)
        inclusive = defaultdict(float)
        for i, (label, start, end, _, raised) in enumerate(self.spans):
            out[f"{label}.calls"] += 1
            out[f"{label}.self_s"] += end - start - child_time[i]
            out[f"{label}.errors"] += raised
            inclusive[label] += end - start
        out.update(self.counts)
        for label in STEP_LOOPS:
            steps = out[f"{label}.steps"]
            out[f"{label}.step_us"] = 1e6 * inclusive[label] / steps if steps else 0.0
        return out

    def write(self, path):
        """Write the recorded spans as CSV (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,label,start_s,end_s,parent,raised\n")
            for i, (label, start, end, parent, raised) in enumerate(self.spans):
                fh.write(f"{i},{label},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{int(raised)}\n")
