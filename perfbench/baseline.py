"""Record a baseline: every workload on several seeds, plus the ROADMAP rows.

    python3 perfbench/baseline.py --seeds 101-110

Runs ``run.py`` (untraced) once per workload and seed, one run at a time,
and writes for each end-to-end metric its median and its spread (distance
between the quartiles over the median), with the machine it ran on.  Each
row of the ROADMAP baseline table is mapped to the workload input that
reproduces it, read from the first seed's per-input records.  The rows no
workload runs as they stand -- two whole ``pbp`` processes much slower than
the cli-mix inputs, and acentral_check(3, 10_000) -- are timed here directly,
in raw seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from loop import input_seconds  # noqa: E402

# ROADMAP row -> (workload, input name); the inputs are the same at every seed.
ROWS = {
    "pbp bs 2 -2, whole process": ("cli-mix", "bs.roadmap.2.-2"),
    "Coxeter triangle (5,7,8)": ("coxeter-sweep", "frontier.tri.5-7-8"),
    "Coxeter triangle (8,9,11)": ("coxeter-sweep", "frontier.tri.8-9-11"),
    "Coxeter triangle (7,11,13)": ("coxeter-sweep", "frontier.tri.7-11-13"),
    "Coxeter triangle (101,103,2)": ("coxeter-sweep", "frontier.tri.2-101-103"),
    "<a,b | a^2, b^6, (ab)^5> onto S6, d = 720": ("group-kernels", "frontier.triangle.S6"),
    "verify_witness(BS(3,3), L=6), with bs_presentable": ("group-kernels", "bs.witness.3.+1"),
    "acentral_check(3, 500 trials; the row has 10_000)": ("lie-abels", "acentral.p3"),
}


def run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def row_outcome(record):
    time = input_seconds(record)
    if record["outcome"] == "ok":
        return {"outcome": record["answer"], "seconds": time}
    return {"outcome": record["outcome"], "seconds": time, "detail": record.get("detail")}


# ROADMAP row -> pbp arguments, run as one whole process in .bench_out.
PROCESS_ROWS = {
    "Coxeter triangle (4,5,7), whole process": ["coxeter", "-i", "coxeter-4-5-7.json"],
    "lie_presentable(so(5)), whole process": ["lie", "--catalogue", "so(5)"],
}


def _env():
    return dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))


def whole_process(argv):
    out = Path.cwd() / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "coxeter-4-5-7.json").write_text(json.dumps({"n": 3, "m": [[1, 4, 5], [4, 1, 7], [5, 7, 1]]}))
    entry = "import sys; from pbp.cli import main; sys.exit(main())"
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True, text=True,
                          env=_env(), cwd=out, check=False)
    seconds = perf_counter() - start
    if done.returncode != 0:
        return {"outcome": f"exit {done.returncode}", "seconds": seconds}
    return {"outcome": json.loads(done.stdout)["answer"], "seconds": seconds}


def acentral_10k():
    code = ("import time, pbp.abels as a; t = time.perf_counter(); "
            "r = a.acentral_check(3, 10_000); print(time.perf_counter() - t, r.passed)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(), check=True)
    seconds, passed = out.stdout.split()
    return {"outcome": "passed" if passed == "True" else "FAILED", "seconds": float(seconds)}


def machine():
    model = ""
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "cores": os.cpu_count(),
            "cpu": model, "system": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-110", help="first-last")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    report = {"machine": machine(), "seeds": seeds, "run_seconds": seconds,
              "workloads": {}, "roadmap_rows": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values, start = {}, perf_counter()
        for seed in seeds:
            result = run(workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: wrong answers")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                             "values": vals}
        report["workloads"][workload] = {"metrics": summary, "seconds": perf_counter() - start}
        records = json.loads((Path.cwd() / ".bench_out" /
                              f"records-{workload}-seed{seeds[0]}-trace0.json").read_text())
        by_name = {r["name"]: r for r in records["records"]}
        for row, (w, name) in ROWS.items():
            if w == workload:
                report["roadmap_rows"][row] = {"workload": w, "input": name, **row_outcome(by_name[name])}
        print(workload, {k: round(v["spread"], 3) for k, v in summary.items()}, flush=True)
    for row, argv in PROCESS_ROWS.items():
        report["roadmap_rows"][row + ", timed directly"] = whole_process(argv)
    report["roadmap_rows"]["acentral_check(3, 10_000), timed directly"] = acentral_10k()
    (HERE / "BASELINE.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
