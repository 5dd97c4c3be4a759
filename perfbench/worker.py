"""One worker process of the benchmark: set up, then run a workload.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS [PATH]

The worker imports pbp from the checkout's ``src``, builds the workload's
inputs and prints ``READY <json>``; run.py times fresh interpreter to
that line as ``setup_s``, at reference speed (see loop.py).  MODE is

* ``setup``  -- stop there (cli-mix writes its input files to PATH);
* ``run``    -- closed loop for SECONDS, untraced;
* ``once``   -- every input once, untraced;
* ``traced`` -- every input once with the tracer installed; spans go to PATH.

The last line is ``RESULT <json>`` with one record per input.
"""

from __future__ import annotations

import json
import random
import resource
import sys
from pathlib import Path


def main(argv) -> int:
    mode, workload, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    path = Path(argv[5]) if len(argv) > 5 else None
    import pbp

    if not Path(pbp.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        print(f"pbp imported from {pbp.__file__}, outside the checkout", file=sys.stderr)
        return 2
    import workloads
    from loop import closed_loop, run_limited

    if workload == "cli-mix":
        import climix

        print("READY " + json.dumps(climix.build(seed, path)), flush=True)
        return 0
    cases = workloads.BUILDERS[workload](seed)
    random.Random(seed).shuffle(cases)  # spread each kind of input over the whole pass
    print("READY " + json.dumps({"inputs": len(cases)}), flush=True)
    if mode == "setup":
        return 0

    limit = workloads.LIMITS[workload]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(pbp)

    def execute(case):
        fn = case.run if tracer is None else (lambda: tracer.run_input(case.name, case.run))
        outcome, value, dt = run_limited(fn, limit)
        if outcome == "ok":
            answer, detail = value
            return outcome, answer, detail, dt
        return outcome, None, value, dt

    records = closed_loop(cases, execute, seconds, repeat=(mode == "run"))
    result = {"records": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.dump(path)
        result["aggregate"] = tracer.aggregate()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
