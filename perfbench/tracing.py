"""Spans around the public functions of every wormsim module.

``install`` wraps each public function defined in a package module and
rebinds every name in the package that refers to it, so calls between
modules (``cli`` calling ``integrate``) pass through the wrappers.
Nothing under ``src/`` changes.  A span is (name, start, end, parent,
item, counts); spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

LAYERS = (
    "cli", "scenarios", "core", "fluid", "integrate", "metrics", "stochastic", "monitoring",
)

NAME, START, END, PARENT, ITEM, COUNTS = range(6)


def _integrate_counts(args, kwargs, out):
    config = args[1] if len(args) > 1 else kwargs["config"]
    requested = max(1, int(math.ceil(config.t_end_itu / config.dt_itu - 1e-9)))
    taken = requested if out.halt_itu is None else int(round(out.halt_itu / config.dt_itu))
    return {"steps": taken, "steps_requested": requested}


def _ensemble_counts(args, kwargs, out):
    """Patch events are exact from outside: each one adds a host to P."""
    params, config = args[0], args[1]
    events = 0
    if params.defense.value != "no_patching":
        events = int(round(float(out.mean.p[-1]) * config.runs)) - config.runs * params.p_bar
    return {"runs": config.runs, "patch_events": events}


def _detection_counts(args, kwargs, out):
    return {"runs": len(out), "hits": int(sum(1 for t in out if math.isfinite(t)))}


def _scan_counts(args, kwargs, out):
    return {"runs": int(out[1].shape[0])}


def _csv_counts(args, kwargs, out):
    return {"rows": len(args[1].t_itu), "bytes": os.path.getsize(args[0])}


# Counts recorded at the boundary, after the span has ended.
COUNTERS = {
    "integrate.integrate": _integrate_counts,
    "stochastic.ensemble": _ensemble_counts,
    "stochastic.detection_sim": _detection_counts,
    "stochastic.monitor_scan_counts": _scan_counts,
    "cli.write_trajectory_csv": _csv_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None

    def wrap(self, name, fn):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every public function of every layer module."""
        modules = [importlib.import_module(f"wormsim.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for module in [sys.modules["wormsim"]] + modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def load_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_nesting(spans) -> None:
    """Raise ValueError unless every span lies inside its parent's interval."""
    for k, s in enumerate(spans):
        if s[END] < s[START]:
            raise ValueError(f"span {k} {s[NAME]} ends before it starts")
        if s[PARENT] >= 0:
            if s[PARENT] >= k:
                raise ValueError(f"span {k} {s[NAME]} has a later parent")
            p = spans[s[PARENT]]
            if not (p[START] <= s[START] and s[END] <= p[END]) or p[ITEM] != s[ITEM]:
                raise ValueError(f"span {k} {s[NAME]} escapes its parent {p[NAME]}")


def _module(name):
    return name.split(".", 1)[0]


def _inside(spans, k, ancestor_name):
    while k >= 0:
        if spans[k][NAME] == ancestor_name:
            return True
        k = spans[k][PARENT]
    return False


def layer_metrics(spans, n_items: int, import_s: float, overhead_s: float) -> dict:
    """Per-layer metrics; times and counts are means per traced item."""
    own = self_times(spans)
    per = max(n_items, 1)
    busy = dict.fromkeys(LAYERS, 0.0)
    total = {}
    counts = {}
    build_report = 0.0
    for k, s in enumerate(spans):
        name = s[NAME]
        busy[_module(name)] = busy.get(_module(name), 0.0) + own[k]
        # Inclusive time, counting only the outermost call of each name.
        if not (s[PARENT] >= 0 and _inside(spans, s[PARENT], name)):
            total[name] = total.get(name, 0.0) + s[END] - s[START]
        for key, value in (s[COUNTS] or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
        if _module(name) == "cli" and _inside(spans, k, "cli.build_report"):
            build_report += own[k]

    def t(name):
        return total.get(name, 0.0)

    def c(name, key):
        return counts.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = c("integrate.integrate", "steps")
    events = c("stochastic.ensemble", "patch_events")
    det_runs = c("stochastic.detection_sim", "runs")
    values = {
        "wormsim.import_s": (import_s, "s"),
        "cli.resolve_s": (
            (t("cli.load_config") + t("cli.apply_override") + t("cli.resolve_scenario")) / per, "s"),
        "fluid.closed_form_s": (t("fluid.closed_form_trajectory") / per, "s"),
        "integrate.busy_s": (busy["integrate"] / per, "s"),
        "integrate.steps": (steps / per, "count"),
        "integrate.steps_per_s": (ratio(steps, t("integrate.integrate")), "1/s"),
        "integrate.step_use_frac": (
            ratio(steps, c("integrate.integrate", "steps_requested")), "fraction"),
        "stochastic.busy_s": (busy["stochastic"] / per, "s"),
        "stochastic.runs": (c("stochastic.ensemble", "runs") / per, "count"),
        "stochastic.patch_events": (events / per, "count"),
        "stochastic.patch_events_per_s": (ratio(events, t("stochastic.ensemble")), "1/s"),
        "stochastic.detection_s": (t("stochastic.detection_sim") / per, "s"),
        "stochastic.detection_runs_per_s": (ratio(det_runs, t("stochastic.detection_sim")), "1/s"),
        "stochastic.detect_frac": (ratio(c("stochastic.detection_sim", "hits"), det_runs), "fraction"),
        "stochastic.scan_counts_s": (t("stochastic.monitor_scan_counts") / per, "s"),
        "metrics.busy_s": (busy["metrics"] / per, "s"),
        "monitoring.busy_s": (busy["monitoring"] / per, "s"),
        "core.busy_s": (busy["core"] / per, "s"),
        "scenarios.busy_s": (busy["scenarios"] / per, "s"),
        "cli.build_report_s": (build_report / per, "s"),
        "cli.write_csv_s": (t("cli.write_trajectory_csv") / per, "s"),
        "cli.csv_rows": (c("cli.write_trajectory_csv", "rows") / per, "count"),
        "cli.csv_bytes": (c("cli.write_trajectory_csv", "bytes") / per, "bytes"),
        "cli.write_json_s": (t("cli.write_report_json") / per, "s"),
        "trace.overhead_s": (overhead_s / per, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
