"""Traced stand-in for the ``gzcount`` executable.

Usage: cli_child.py SPAWNED_AT TRACE_FILE ARGV...

SPAWNED_AT is the parent's time.monotonic() just before it started this
process.  The script records a ``cli.startup`` span from then until
``gzcount.cli`` is imported, installs the tracer's wrappers, runs
``gzcount.cli.main(ARGV)`` and writes spans and counters to TRACE_FILE.
Stdout and the exit code are those of main.
"""

import json
import sys
import time

import gzcount.cli

from tracing import Tracer, memo_sizes


def main() -> int:
    spawned_at, trace_file, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    now = time.perf_counter()
    tracer = Tracer()
    tracer.add_span("cli.startup", now - (time.monotonic() - spawned_at), now)
    tracer.install()
    try:
        code = gzcount.cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    tracer.counts["counting.memo_entries"] += sum(memo_sizes().values())
    with open(trace_file, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
