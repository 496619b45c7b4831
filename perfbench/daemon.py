"""``repro serve`` for the service-mixed workload, optionally traced.

Usage (``run.py`` is the only caller)::

    python3 perfbench/daemon.py '<json spec>'

Runs the same entry point as ``repro serve --root ROOT --port 0``, at
its default poll interval.  With
``trace_out`` set, the layer wrappers are installed first and the spans
and counters are written to that file when the daemon shuts down
(SIGINT, which ``repro serve`` handles as a clean stop).
"""

from __future__ import annotations

import json
import signal
import sys

from common import use_source_tree

use_source_tree()

from repro.service.cli import service_main  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    # SIGINT is the clean stop.  A parent started in the background
    # can pass it on ignored, and Python then installs no handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = None
    if spec.get("trace_out"):
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    code = service_main([
        "serve", "--root", spec["root"], "--port", "0", "-q",
    ])
    if recorder is not None:
        with open(spec["trace_out"], "w") as fh:
            json.dump(recorder.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
