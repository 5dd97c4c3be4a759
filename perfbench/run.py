"""Time-to-verdict benchmark of pbp.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout: pbp is imported from ``src``.  A single
caller works through the workload's inputs in a closed loop (see loop.py);
at most one worker process runs at a time.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  Times are seconds at reference speed: each sample is scaled
by a probe that runs no pbp code (see loop.py).  Every answer is checked
against a reference that does not come from pbp; a wrong answer makes
``correct`` false and the exit code 1.
``failed`` counts non-frontier inputs that raised, exited nonzero or hit
their limit; ``failed_share`` counts every such input, frontier included.
Scratch files, spans and per-input records go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import climix  # noqa: E402
import tracer  # noqa: E402
from loop import closed_loop, summarize  # noqa: E402

WORKLOADS = ("coxeter-sweep", "group-kernels", "lie-abels", "cli-mix")
SETUPS = 5  # fresh interpreters per run; setup_s is their median
SETUPS_BEFORE = 2  # the rest run after the timed phase
CLI_LIMIT = 12.0  # per process; the slowest cli-mix input takes under 1.5 s
# The probe around a whole process (a cli-mix input or a set-up; see loop.py):
# interpreter start, then stdlib imports, the profile of a pbp command.  Its
# reference time is that of loop.PROBE_SECONDS, on the same machine.
PROCESS_PROBE = [sys.executable, "-c", "import argparse, asyncio, dataclasses, decimal, email.message,"
                 " fractions, http.client, json, typing, unittest, xml.dom.minidom"]
PROCESS_PROBE_SECONDS = 0.1
WORKER_TIMEOUT = 170.0
CLI_ENTRY = "import sys; from pbp.cli import main; sys.exit(main())"
END_TO_END = {
    "wall_s": "s", "verdict_s.p50": "s", "verdict_s.p80": "s", "verdict_s.p90": "s",
    "failed_share": "ratio", "decided_share": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def run_worker(root, env, out, argv, flags=()):
    """Start a worker; return (seconds to READY, READY payload, RESULT payload)."""
    cmd = [sys.executable, *flags, str(HERE / "worker.py"), *map(str, argv)]
    err_path = out / "worker.err"
    with open(err_path, "w", encoding="utf-8") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=root, text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if code != 0 or not ready.startswith("READY "):
        raise BenchError(f"worker {argv[:2]} exited {code}: {err_path.read_text()[-2000:]}")
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return setup, json.loads(ready[len("READY "):]), result


def process_slowdown(root, env):
    """The process probe's time now over ``PROCESS_PROBE_SECONDS``."""
    start = perf_counter()
    subprocess.run(PROCESS_PROBE, env=env, cwd=root, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (perf_counter() - start) / PROCESS_PROBE_SECONDS


def setups_at_reference_speed(root, env, out, argv, count):
    """``count`` set-up workers in a row, each in seconds at reference speed,
    and the last READY payload; probes run between them, as in loop.py."""
    seconds, ready = [], None
    before = process_slowdown(root, env)
    for _ in range(count):
        setup, ready, _ = run_worker(root, env, out, argv)
        after = process_slowdown(root, env)
        seconds.append(setup / ((before + after) / 2))
        before = after
    return seconds, ready


def import_times(stderr_text):
    """Cumulative seconds of ``import pbp`` and ``import sympy`` from -X importtime."""
    found = {}
    for line in stderr_text.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("pbp", "sympy") and m.group(2) not in found:
            found[m.group(2)] = int(m.group(1)) / 1e6
    return found.get("pbp", 0.0), found.get("sympy", 0.0)


def _import_metrics(pbp_s, sympy_s):
    return {"import.pbp_s": {"value": pbp_s, "unit": "s"},
            "import.sympy_s": {"value": sympy_s, "unit": "s"}}


class CliCase:
    def __init__(self, spec):
        self.spec, self.name, self.frontier = spec, spec["name"], spec["frontier"]

    def check(self, answer, stdout):
        return climix.check(self.spec, stdout)


class CliRunner:
    """Runs one pbp process per input and keeps the largest child's peak RSS."""

    def __init__(self, root, env, out, traced=False):
        self.root, self.env, self.out, self.traced = root, env, out, traced
        self.peak_rss_mb = 0.0
        self.aggregates, self.imports = [], []

    def __call__(self, case):
        out_path, err_path, agg_path = (self.out / n for n in ("cli.out", "cli.err", "cli.trace"))
        if self.traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "tracecli.py"), str(agg_path)]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd + case.spec["argv"], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            killer = threading.Timer(CLI_LIMIT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            dt = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        if dt >= CLI_LIMIT:
            return "limit", None, None, CLI_LIMIT
        if self.traced:
            self.aggregates.append(json.loads(agg_path.read_text(encoding="utf-8")))
            self.imports.append(import_times(err_path.read_text(encoding="utf-8")))
        if proc.returncode != 0:
            return "error", None, f"exit {proc.returncode}: {err_path.read_text()[-300:]}", dt
        stdout = out_path.read_text(encoding="utf-8")
        return "ok", json.loads(stdout).get("answer", "DONE"), stdout, dt


def measure(args, root, env, out):
    """Setup samples, untraced summary and records, peak RSS, and for a traced
    run the per-layer metrics and the traced summary (else None, None)."""
    worker_args = [args.workload, args.seed, args.seconds]
    setup_argv = ["setup", *worker_args] + ([out / "cli-inputs"] if args.workload == "cli-mix" else [])
    # Set-ups before and after the timed phase, so their median spans it.
    setups, ready = setups_at_reference_speed(root, env, out, setup_argv, SETUPS_BEFORE)
    once = args.trace == 1
    layers = traced_summary = None
    if args.workload == "cli-mix":
        probe = functools.partial(process_slowdown, root, env)
        cases = [CliCase(s) for s in ready]
        random.Random(args.seed).shuffle(cases)
        runner = CliRunner(root, env, out)
        records = closed_loop(cases, runner, args.seconds, repeat=not once, probe=probe)
        peak_rss_mb = runner.peak_rss_mb
        if once:
            traced = CliRunner(root, env, out, traced=True)
            traced_summary = summarize(closed_loop(cases, traced, 0, repeat=False, probe=probe))
            layers = tracer.metrics(tracer.merge(traced.aggregates))
            imports = traced.imports or [(0.0, 0.0)]
            layers.update(_import_metrics(statistics.median(i[0] for i in imports),
                                          statistics.median(i[1] for i in imports)))
    else:
        _, _, result = run_worker(root, env, out, ["once" if once else "run", *worker_args])
        records, peak_rss_mb = result["records"], result["peak_rss_mb"]
        if once:
            trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
            _, _, traced = run_worker(root, env, out, ["traced", *worker_args, trace_path],
                                      flags=("-X", "importtime"))
            traced_summary = summarize(traced["records"])
            layers = tracer.metrics(traced["aggregate"])
            layers.update(_import_metrics(*import_times((out / "worker.err").read_text(encoding="utf-8"))))
    setups += setups_at_reference_speed(root, env, out, setup_argv, SETUPS - SETUPS_BEFORE)[0]
    return setups, summarize(records), records, peak_rss_mb, layers, traced_summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "pbp" / "__init__.py").is_file():
        print(f"no pbp sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    try:
        setups, plain, records, peak_rss_mb, layers, traced = measure(args, root, env, out)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record_path = out / f"records-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"setups": setups, "summary": plain, "records": records}, indent=1))
    mismatches = plain["mismatches"] + (traced["mismatches"] if traced else [])
    for line in mismatches:
        print(f"WRONG ANSWER {line}", file=sys.stderr)
    print(f"{args.workload}: {len(records)} inputs, {plain['attempted']} calls, "
          f"failed {plain['failed_share']:.3f}, unknown {plain['unknown_share']:.3f}; "
          f"records in {record_path.relative_to(root)}")

    if args.trace:
        metrics = dict(layers)
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
        metrics["verdict.unknown_share"] = {"value": plain["unknown_share"], "unit": "ratio"}
    else:
        values = {k: plain[k] for k in END_TO_END if k in plain}
        values["peak_rss_mb"] = peak_rss_mb
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": not mismatches, "attempted": plain["attempted"],
                      "failed": plain["unexpected_failures"], "metrics": metrics}))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
