"""``repro serve`` with the benchmark's layer wrappers installed.

Starts the same ``ServeApp`` that ``python -m repro serve`` starts, with
the same arguments. Each ``mark`` line on stdin records a timestamp and
the process-wide counters and answers ``mark`` on stdout; after the drain
the spans whose request started between the first two marks are rolled
up and printed as one ``TRACE {json}`` line.

    python3 perfbench/serve_launcher.py --port 0 --workers 2
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import tracing  # noqa: E402


def main():
    from repro.cli import main as repro_main

    recorder = tracing.Recorder()
    tracing.install(recorder)
    marks = []

    def listen():
        for line in sys.stdin:
            if line.strip() == "mark":
                marks.append((time.monotonic(), layers.snapshots(),
                              dict(recorder.counters)))
                print("mark", flush=True)

    threading.Thread(target=listen, daemon=True).start()
    code = repro_main(["serve", *sys.argv[1:]])
    if len(marks) >= 2:
        (start, before, counted), (end, after, counted_after) = marks[:2]
        spans = tracing.within(recorder.spans, start, end)
        names, selfs, _root_s = tracing.rollup(spans)
        print("TRACE " + json.dumps({
            "names": names,
            "layers": selfs,
            "counters": {key: counted_after[key] - counted.get(key, 0.0)
                         for key in counted_after},
            "deltas": {key: after[key] - before[key] for key in after},
        }), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
