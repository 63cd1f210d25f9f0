"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports loopscope, parses and elaborates one netlist, and prints one JSON
line: ``import_s``, the time ``import loopscope`` took, and ``done``, the
``time.perf_counter()`` reading when elaboration finished.  On Linux that
clock is CLOCK_MONOTONIC, shared by every process of the host, so the
parent subtracts the reading it took just before starting this process.

    python3 perfbench/probe_setup.py NETLIST
"""

import json
import sys
import time

t_start = time.perf_counter()
import loopscope  # noqa: E402

t_import = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as fh:
    loopscope.elaborate(loopscope.parse(fh.read()))
print(json.dumps({"import_s": t_import - t_start, "done": time.perf_counter()}))
