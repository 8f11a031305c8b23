"""The CLI under spans: `python cli_child.py analyze --input F`.

Behaves as `python -m tuttezero.cli` and writes the same stdout, then
reports the package import time and the span aggregates as one stderr
line starting with PERFBENCH-SPANS.
"""

import json
import sys
import time

import tracing

t0 = time.perf_counter()
import tuttezero  # noqa: E402
import tuttezero.cli  # noqa: E402
import_s = time.perf_counter() - t0

tracer = tracing.Tracer()
tracing.install(tracer)
code = tuttezero.cli.main(sys.argv[1:])
sys.stdout.flush()
snap = tracer.snapshot()
snap["import_s"] = import_s
sys.stderr.write("PERFBENCH-SPANS " + json.dumps(snap) + "\n")
sys.exit(code)
