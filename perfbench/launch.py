"""Run one ``exopoly`` command in a fresh interpreter, as the console script
would, from the ``src`` tree next to this directory.

    python3 perfbench/launch.py ARGS...                    # plain
    python3 perfbench/launch.py --trace FILE OP ARGS...    # traced

The traced form wraps the library's public functions (see ``tracer.py``),
runs the command inside a ``cli.main`` span and writes the spans, counters
and import time to FILE when the command exits.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

argv = sys.argv[1:]
trace_file = None
if argv[:1] == ["--trace"]:
    trace_file, op, argv = argv[1], int(argv[2]), argv[3:]

import exopoly.cli  # noqa: E402

import_s = time.perf_counter() - t0
sys.argv = ["exopoly", *argv]

if trace_file is None:
    exopoly.cli.main()
else:
    from tracer import Tracer

    tracer = Tracer(op)
    tracer.install()
    try:
        tracer.wrap("cli.main", exopoly.cli.main)()
    finally:
        sys.stdout.flush()
        tracer.dump(trace_file, import_s=import_s)
