"""Run one ``pbp`` command line with the tracer installed.

    python3 perfbench/tracecli.py AGGREGATE_OUT ARG...

Behaves like the ``pbp`` console script (same stdout and exit code) and
writes the tracer's aggregate to AGGREGATE_OUT when the command ends.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pbp
import pbp.cli
from tracer import Tracer


def main(argv) -> int:
    tracer = Tracer()
    tracer.install(pbp)
    try:
        return tracer.run_input(0, lambda: pbp.cli.main(argv[2:]))
    finally:
        Path(argv[1]).write_text(json.dumps(tracer.aggregate()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
