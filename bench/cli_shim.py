"""Run one ordhom CLI command in this process with every layer traced.

    python3 bench/cli_shim.py TOTALS_JSON <ordhom cli arguments...>

The command's report goes to standard output as usual and the exit code is
the command's. The span totals (`Tracer.totals`) are written to
TOTALS_JSON; their root span is ``cli.main``, so ``root_s`` is the CPU
time spent in `ordhom.cli.main` and the rest of the process's CPU time is
interpreter start, imports and exit. Needs ``src`` on PYTHONPATH.
"""

import json
import sys

import ordhom.cli
from tracing import Tracer, traced


def main():
    totals_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with traced(tracer):
        code = ordhom.cli.main(argv)
    sys.stdout.flush()
    with open(totals_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
