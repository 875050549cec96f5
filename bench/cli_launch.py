"""Run the gastba CLI and time its import and its main() call.

Used by traced runs of the cli workload in place of `python -m gastba.cli`.
The timings go to the json file named by the GASTBA_BENCH_TIMING environment
variable, so stdout stays the CLI's own.

Usage: GASTBA_BENCH_TIMING=path python3 bench/cli_launch.py COMMAND [ARGS...]
"""
import json
import os
import sys
import time

t0 = time.perf_counter()
import gastba.cli  # noqa: E402

t1 = time.perf_counter()
code = gastba.cli.main(sys.argv[1:])
sys.stdout.flush()
t2 = time.perf_counter()
with open(os.environ["GASTBA_BENCH_TIMING"], "w", encoding="utf-8") as fh:
    json.dump({"import_ms": (t1 - t0) * 1e3, "main_ms": (t2 - t1) * 1e3}, fh)
sys.exit(code)
