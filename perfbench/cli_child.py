"""Traced stand-in for ``python -m octopoly``, run by the cli workload's
traced runs: times the import of ``octopoly.cli`` and ``main``, records the
package's spans, and appends them to standard error after a marker line."""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

t0 = time.perf_counter()
import octopoly.cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()
tracer.op = 0
t1 = time.perf_counter()
code = octopoly.cli.main(sys.argv[1:])
main_s = time.perf_counter() - t1
sys.stdout.flush()
record = {"started": STARTED, "import_s": import_s, "main_s": main_s, "spans": tracer.export()}
sys.stderr.write("\nPERFBENCH_TRACE " + json.dumps(record) + "\n")
sys.exit(code)
