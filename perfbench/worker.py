"""One fresh interpreter running an in-process workload (rk4-sweep, telescope).

    python3 perfbench/worker.py WORKLOAD SEED FIRST STRIDE SECONDS TRACE SPANS_JSON

Imports wormsim, builds the seeded inputs and runs item 0 untimed as
the warm-up, then prints ``ready``: the parent times set-up up to that
line.  It then times items FIRST, FIRST + STRIDE, ... for SECONDS and
re-runs the first of them to check that its output repeats.  With
TRACE 1 it instead re-runs every timed item with all public wormsim
functions wrapped in spans, and writes the spans to SPANS_JSON.  The
last line of its output is one JSON object with every item's time,
digest and check verdict.
"""

import json
import sys
import time


def _checked(check, inp, out):
    """(digest, None) when the output passes its checks, else (None, error)."""
    try:
        return check(inp, out), None
    except Exception as exc:  # any failed check counts against error_rate
        return None, f"{type(exc).__name__}: {exc}"


def main(argv) -> int:
    workload, seed, first, stride, seconds, trace, spans_path = argv
    seed, first, stride, seconds, trace = int(seed), int(first), int(stride), float(seconds), trace == "1"

    import workloads

    make_inputs, run_item, check = workloads.INPROCESS[workload]
    inputs = make_inputs(seed)
    warm = inputs.get(0)
    result = {"warmup": _checked(check, warm, run_item(warm))}
    print("ready", flush=True)

    items = []
    clock = time.perf_counter
    start = clock()
    j = first
    while clock() - start < seconds:
        inp = inputs.get(j)
        t0 = clock()
        out = run_item(inp)
        elapsed = clock() - t0
        items.append([j, elapsed, *_checked(check, inp, out)])
        j += stride
    result["items"] = items

    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        reruns = []
        for j, _elapsed, _digest, _error in items:
            inp = inputs.get(j)
            tracer.item = j
            t0 = clock()
            out = run_item(inp)
            elapsed = clock() - t0
            reruns.append([j, elapsed, *_checked(check, inp, out)])
        tracer.dump(spans_path)
    else:
        inp = inputs.get(items[0][0])
        reruns = [[items[0][0], None, *_checked(check, inp, run_item(inp))]]
    result["reruns"] = reruns
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
