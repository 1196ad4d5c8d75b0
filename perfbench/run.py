"""wormsim benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --trace 1     # all four, both modes

Run from any directory; the package is imported from ``src/`` of the
checkout this file sits in.  Workloads run as a closed loop with one
client and at most one child process alive at a time.  With --trace 0
the last output line carries the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run (see README.md).  Full results,
and the spans of traced runs, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, SRC)
try:
    import workloads
except ModuleNotFoundError as exc:  # no src/wormsim here: main() reports it
    if exc.name != "wormsim":
        raise

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 5
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
NOISE_NOTE = "results are noisy: two shared cores, other tenants' load moves every timing"

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "peak_rss_mb": "MB",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _reap(proc):
    """Wait for a child; return (exit code, its own peak RSS in KB)."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Tally:
    """Attempted and failed items, the failures' messages, children's peak RSS."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rss_kb = 0

    def item(self, label, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {error}")

    def fault(self, message):
        """A run-level check failed: count it as one failed item."""
        self.item("run", message)


def machine_facts() -> dict:
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "numba": has_numba,
        "loadavg_at_start": list(os.getloadavg()),
        "note": NOISE_NOTE,
    }


def tail(times):
    """(percentile, value): the highest ladder percentile with 10 samples beyond it."""
    n = len(times)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(times, pct))
    return 100.0, max(times)


def import_time(module: str) -> float:
    """Fresh-interpreter ``import module`` minus ``python -c pass``, median of pairs."""
    diffs = []
    for _ in range(IMPORT_SAMPLES):
        pair = []
        for code in ("pass", f"import {module}"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), check=True)
            pair.append(time.perf_counter() - t0)
        diffs.append(pair[1] - pair[0])
    return statistics.median(diffs)


# ---------------------------------------------------------------------------
# CLI workloads: one ``wormsim run`` subprocess per item
# ---------------------------------------------------------------------------

class CliItems:
    """Runs, times and checks the ``wormsim run`` calls of one CLI workload."""

    def __init__(self, workload, seed, reference, work, tally):
        self.workload, self.seed, self.reference = workload, seed, reference
        self.work, self.tally = work, tally
        self.validated = {}  # CSV digests that already passed validate_trajectory
        self.first = {}  # scenario -> digests of its first call in this run

    def run(self, name, spans_path=None, item_id=None) -> float:
        """Run one call, traced when spans_path is given; return its wall time."""
        out_dir = os.path.join(self.work, "out")
        err_path = os.path.join(self.work, "stderr.txt")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        argv = workloads.cli_argv(self.workload, name, out_dir, self.seed)
        if spans_path is None:
            argv = ["-m", "wormsim.cli"] + argv
        else:
            argv = [os.path.join(HERE, "tracecli.py"), spans_path, item_id] + argv
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=_env(),
                                    stdout=subprocess.DEVNULL, stderr=err)
            code, rss_kb = _reap(proc)
            elapsed = time.perf_counter() - t0
        self.tally.rss_kb = max(self.tally.rss_kb, rss_kb)
        if code != 0:
            with open(err_path, "r", encoding="utf-8") as fh:
                self.tally.item(name, f"exit {code}: {fh.read()[-300:]}")
        else:
            self.tally.item(name, self._check(name, out_dir))
        return elapsed

    def _check(self, name, out_dir):
        """None when the outputs pass every check, else the first failure."""
        try:
            digests = workloads.check_cli_outputs(name, out_dir, self.validated)
        except (OSError, ValueError, KeyError) as exc:
            return f"{type(exc).__name__}: {exc}"
        expected = workloads.cli_reference(self.reference, self.workload, self.seed, name)
        for what, files in (("reference", expected),
                            ("earlier pass", self.first.setdefault(name, digests))):
            bad = sorted(f for f, d in files.items() if digests.get(f) != d)
            if bad:
                return f"digest differs from {what}: {bad}"
        return None


def run_cli(workload, seed, seconds, trace, reference, setup_samples):
    tally = Tally()
    work = os.path.join(OUT, f"work-{os.getpid()}")
    items = CliItems(workload, seed, reference, work, tally)
    orders = workloads.cli_pass_orders(workload, seed)
    setup, passes, spans = [], [], []
    traced_s = untraced_s = 0.0
    try:
        for _ in range(1 if trace else setup_samples):
            t0 = time.perf_counter()
            os.makedirs(work, exist_ok=True)
            next(orders)
            items.run(workloads.CLI_WARMUP[workload])
            setup.append(time.perf_counter() - t0)
        budget = seconds / 2.0 if trace else seconds
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < budget:
            order = next(orders)
            passes.append((order, [items.run(name) for name in order]))
        if trace:
            spans_path = os.path.join(work, "spans.json")
            for k, (order, times) in enumerate(passes):
                for name, untraced in zip(order, times):
                    traced_s += items.run(name, spans_path, f"{k}:{name}")
                    untraced_s += untraced
                    if os.path.exists(spans_path):
                        merge_spans(spans, tracing.load_spans(spans_path))
                        os.remove(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "tally": tally, "setup": setup, "spans": spans,
        "times": [t for _order, pass_times in passes for t in pass_times],
        "names": [name for order, _times in passes for name in order],
        "traced_s": traced_s, "overhead_s": traced_s - untraced_s,
        "import_module": "wormsim.cli",
    }


# ---------------------------------------------------------------------------
# In-process workloads: fresh worker interpreters, one at a time
# ---------------------------------------------------------------------------

def run_inprocess(workload, seed, seconds, trace, reference, setup_samples):
    tally = Tally()
    workers = 1 if trace else setup_samples
    share = seconds / 2.0 if trace else seconds / workers
    ref = reference[workload] if seed == reference["seed"] else []
    setup, times, names, spans = [], [], [], []
    warmups = set()
    traced_s = untraced_s = 0.0
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{os.getpid()}.json")
    for w in range(workers):
        argv = [os.path.join(HERE, "worker.py"), workload, str(seed), str(1 + w),
                str(workers), repr(share), "1" if trace else "0", spans_path]
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=_env(),
                                stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline().strip() == "ready"
        setup.append(time.perf_counter() - t0)
        lines = proc.stdout.read().splitlines()
        proc.stdout.close()
        code, rss_kb = _reap(proc)
        tally.rss_kb = max(tally.rss_kb, rss_kb)
        if not (ready and code == 0 and lines):
            tally.fault(f"worker {w} exited {code} (ready: {ready})")
            continue
        result = json.loads(lines[-1])

        digest, error = result["warmup"]
        if error is None and ref and digest != ref[0]:
            error = "digest differs from reference"
        warmups.add(digest)
        tally.item("warm-up item 0", error)

        first = {}
        for j, elapsed, digest, error in result["items"]:
            first[j] = digest
            if error is None and j < len(ref) and digest != ref[j]:
                error = "digest differs from reference"
            tally.item(f"item {j}", error)
            times.append(elapsed)
            names.append(j)

        for j, elapsed, digest, error in result["reruns"]:
            if error is None and digest != first[j]:
                error = "re-run output differs from the first run"
            tally.item(f"re-run of item {j}", error)
        if trace:
            traced_s = sum(item[1] for item in result["reruns"])
            untraced_s = sum(item[1] for item in result["items"])
            merge_spans(spans, tracing.load_spans(spans_path))
            os.remove(spans_path)
    if len(warmups) > 1:
        tally.fault("warm-up output differs between worker processes")
    return {
        "tally": tally, "setup": setup, "times": times, "spans": spans, "names": names,
        "traced_s": traced_s, "overhead_s": traced_s - untraced_s,
        "import_module": "wormsim",
    }


def merge_spans(spans, new):
    """Append one process's spans, shifting parent indices past the ones held."""
    offset = len(spans)
    for span in new:
        span = list(span)
        if span[tracing.PARENT] >= 0:
            span[tracing.PARENT] += offset
        spans.append(span)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def end_to_end(run) -> tuple:
    """(metrics for the result line, notes giving each one's sample count)."""
    times, tally = run["times"], run["tally"]
    pct, tail_s = tail(times)
    beyond = len(times) - int(len(times) * pct / 100.0)
    values = {
        "setup_s": (statistics.median(run["setup"]), f"median of {len(run['setup'])} set-ups"),
        "items_per_s": (len(times) / sum(times), f"{len(times)} items / their summed time"),
        "item_s_p50": (statistics.median(times), f"{len(times)} items"),
        "item_s_tail": (tail_s, f"p{pct:g} of {len(times)} items, {beyond} beyond"),
        "peak_rss_mb": (tally.rss_kb / 1024.0, "max over child processes"),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _n) in values.items()}
    notes = {k: n for k, (_v, n) in values.items()}
    notes["item_s_tail_percentile"] = pct
    return metrics, notes


def print_metrics(metrics, notes=None):
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<9}{note}")


def baseline_table(spans, import_s) -> list:
    """Rows of the ROADMAP's baseline table that these spans cover."""

    def durations(name):
        return [s[tracing.END] - s[tracing.START] for s in spans if s[tracing.NAME] == name]

    def ms(values):
        return f"{1000 * statistics.median(values):.2f} ms"

    rows = [(f"import ({', '.join(sorted(import_s))})",
             ", ".join(f"{1000 * v:.0f} ms" for _k, v in sorted(import_s.items())))]
    per_builtin = {}
    for s in spans:
        if s[tracing.NAME] == "integrate.integrate" and isinstance(s[tracing.ITEM], str):
            scenario = s[tracing.ITEM].split(":", 1)[1]
            per_builtin.setdefault(scenario, []).append(s[tracing.END] - s[tracing.START])
    if per_builtin:
        rows.append(("`integrate`, per built-in (median)",
                     "; ".join(f"{n} {ms(v)}" for n, v in sorted(per_builtin.items()))))
    for desk in ("codered-p2p-g2-desk", "codered-fixed-desk"):
        ens = [s for s in spans if s[tracing.NAME] == "stochastic.ensemble"
               and str(s[tracing.ITEM]).endswith(":" + desk)]
        if ens:
            runs = ens[0][tracing.COUNTS]["runs"]
            med = statistics.median(s[tracing.END] - s[tracing.START] for s in ens)
            rows.append((f"`stochastic`, `{desk}` ({runs} runs, median)",
                         f"{med:.2f} s, {1000 * med / runs:.0f} ms/run"))
    closed = durations("fluid.closed_form_trajectory")
    if closed:
        rows.append(("`closed_form`, any built-in", f"{1000 * max(closed):.2f} ms max"))
    csv = durations("cli.write_trajectory_csv")
    if csv:
        rows.append(("CSV write, per file", f"{1000 * min(csv):.0f}–{1000 * max(csv):.0f} ms, "
                     f"median {ms(csv)}"))
    report, json_w = durations("cli.build_report"), durations("cli.write_report_json")
    if report:
        rows.append(("report build and JSON write (median)", f"{ms(report)} and {ms(json_w)}"))
    det = [(s[tracing.END] - s[tracing.START]) / s[tracing.COUNTS]["runs"]
           for s in spans if s[tracing.NAME] == "stochastic.detection_sim"]
    if det:
        rows.append(("`detection_sim`, N=85k (median)", f"{ms(det)}/run"))
    return rows


def print_table(rows):
    print("\n| what | time |\n|---|---|")
    for what, value in rows:
        print(f"| {what} | {value} |")


def run_workload(workload, seed, seconds, trace, reference=None, setup_samples=SETUP_SAMPLES):
    """Run one workload untraced (trace=False) or traced; return its result dict."""
    workloads.check_seed(seed)
    if reference is None:
        reference = workloads.load_reference()
    runner = run_cli if workload in workloads.CLI_WORKLOADS else run_inprocess
    run = runner(workload, seed, seconds, trace, reference, setup_samples)
    tally = run["tally"]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors,
        "item_times_s": run["times"],
        "item_names": run["names"],
    }
    if trace:
        import_s = import_time(run["import_module"])
        tracing.check_nesting(run["spans"])
        n_items = len({s[tracing.ITEM] for s in run["spans"]})
        result["metrics"] = tracing.layer_metrics(run["spans"], n_items, import_s, run["overhead_s"])
        result["import_s"] = {run["import_module"]: import_s}
        result["spans"] = run["spans"]
        result["traced_items"] = n_items
        result["traced_wall_s"] = run["traced_s"]
    else:
        result["metrics"], result["notes"] = end_to_end(run)
    return result


def report(result):
    """Print one workload's result and save it under perfbench/out/."""
    kind = "per-layer, traced" if result["trace"] else "end-to-end, untraced"
    print(f"\n== {result['workload']} (seed {result['seed']}, {result['seconds']:g} s, {kind})")
    print_metrics(result["metrics"], result.get("notes"))
    if result["trace"]:
        print(f"  (per-layer times and counts are means over {result['traced_items']} traced items)")
    print(f"  {'error_rate':<34} {result['error_rate']:>14.6g} {'fraction':<9}"
          f"  ({result['failed']} failed of {result['attempted']} attempted)")
    for line in result["errors"]:
        print(f"  FAILED {line}")
    sys.stdout.flush()
    os.makedirs(OUT, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({k: v for k, v in result.items() if k != "spans"}, fh)
    if result["trace"]:
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": result["spans"]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-fluid", "cli-stochastic", "rk4-sweep", "telescope", "all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wormsim", "__init__.py")):
        print(f"error: no wormsim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    facts = machine_facts()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))

    if args.workload == "all":
        modes = [False, True] if args.trace else [False]
        runs = [(w, t) for t in modes for w in workloads.WORKLOADS]
    else:
        runs = [(args.workload, bool(args.trace))]
    results, spans, import_s = [], [], {}
    for workload, trace in runs:
        result = run_workload(workload, seed, seconds, trace)
        result["machine"] = facts
        report(result)
        results.append(result)
        if result["trace"]:
            merge_spans(spans, result["spans"])
            import_s.update(result["import_s"])
    if spans:
        print_table(baseline_table(spans, import_s))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
