"""Run ``wormsim.cli`` with every public wormsim function traced.

    python3 perfbench/tracecli.py SPANS_JSON ITEM_ID run --config NAME --out DIR

behaves like ``python -m wormsim.cli run ...`` and writes the spans of
the call to SPANS_JSON.  The import of ``wormsim.cli`` is recorded as a
span named ``wormsim.import``.
"""

import sys
import time

from tracing import Tracer


def main(argv) -> int:
    spans_path, item, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.item = item
    start = time.perf_counter()
    import wormsim.cli

    tracer.spans.append(["wormsim.import", start, time.perf_counter(), -1, item, None])
    tracer.install()
    try:
        return sys.modules["wormsim.cli"].main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
