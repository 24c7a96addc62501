"""`python -m salemtori.cli` with the per-layer tracer installed.

    SALEMTORI_BENCH_TRACE_OUT=layers.json python3 bench/traced_cli.py is-salem 1,-3,1

Runs one command exactly as the CLI does and, however it ends, appends the
layer totals of this process as one JSON line to the file the environment
names.  Worker processes of `enumerate --workers 2` are not traced.
"""

import json
import os
import sys
from pathlib import Path

import salemtori.cli
import tracer

if __name__ == "__main__":
    t = tracer.Tracer()
    t.install()
    try:
        sys.exit(salemtori.cli.main(sys.argv[1:]))
    finally:
        t.uninstall()
        with Path(os.environ["SALEMTORI_BENCH_TRACE_OUT"]).open("a", encoding="utf-8") as out:
            out.write(json.dumps(t.report()) + "\n")
