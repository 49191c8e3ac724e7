"""The conesim CLI with spans, for the traced rounds of the cli-examples workload.

Usage: python3 perfbench/cli_traced.py SPANS_JSON conesim-arguments...

Runs `conesim.cli.main` exactly as `python -m conesim.cli` would, inside a
`cli.main` span, and writes the span aggregate and the import time of
`conesim.cli` to SPANS_JSON. The worker starts it with the checkout's `src`
on PYTHONPATH, as it starts `python -m conesim.cli`.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
import conesim.cli  # noqa: E402

import_s = perf_counter() - t0

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = tracer.call("cli.main", conesim.cli.main, (sys.argv[2:],))
    tracer.uninstall()
    snapshot = tracer.snapshot()
    snapshot["import_s"] = [import_s]
    Path(sys.argv[1]).write_text(json.dumps(snapshot))
    sys.exit(code)
