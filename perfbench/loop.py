"""The closed loop shared by the library workloads and cli-mix.

A single caller runs every input once, checking each answer against its
reference outside the timed call.  While ``seconds`` have not passed it
then cycles again over the inputs that succeeded, adding timing samples.
An input that failed (raised, exited nonzero or hit its limit) is not run
again: its outcome and its charge stand for the whole run.

Times are given at reference speed.  The 2-core machine this was written on
runs up to 1.5x slower, for seconds to minutes at a time, when its
neighbours are busy, and both cores slow down together; raw seconds of two
runs a minute apart then differ by more than any change worth detecting.
So a fixed probe that runs no pbp code runs before and after every sample,
and the sample is divided by the mean of the two ``slowdown`` readings (probe
time over the probe's reference time): the seconds the call would have taken
at reference speed.  A change to pbp moves the sample and not the probe.
For a call inside the caller the probe is ``slowdown`` below (exact rational
arithmetic and small containers, like pbp's inner loops); a whole process is
probed by a process with the same profile (see run.py).  An input's time is
the median of its scaled samples; an input that hit its limit is charged the
limit, unscaled.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# The probe's time on an unloaded core of the machine above (Intel Xeon,
# Python 3.11.7).  A constant: it sets the unit, not the spread.
PROBE_SECONDS = 0.003


def slowdown() -> float:
    """The fixed probe's time now over ``PROBE_SECONDS``, with the collector
    paused so that the size of pbp's heap does not show in it."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc, third = Fraction(0), Fraction(1, 3)
        for i in range(1, 400):
            acc += third * Fraction(i, i + 1) - Fraction(1, i)
        table = {}
        for i in range(1500):
            table[i, i % 7] = [i] * 3
        return (perf_counter() - start) / PROBE_SECONDS
    finally:
        if paused:
            gc.enable()


class InputTimeout(BaseException):
    """Raised by the interval timer; a BaseException so pbp cannot swallow it."""


def _on_alarm(signum, frame):
    raise InputTimeout


def run_limited(fn, limit: float):
    """Run ``fn`` in-process under a wall-clock limit.

    Returns (outcome, value, seconds) with outcome "ok", "error" or "limit";
    an input that hits the limit is charged exactly ``limit``.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                value = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except InputTimeout:
            return "limit", None, limit
        except Exception as exc:  # a refused or crashing input is a measured outcome
            return "error", f"{type(exc).__name__}: {exc}", perf_counter() - start
        return "ok", value, perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)


def closed_loop(cases, execute, seconds: float, repeat: bool = True, probe=slowdown) -> list[dict]:
    """``execute(case)`` -> (outcome, answer, detail, seconds); ``probe()`` -> the
    machine's slowdown now.  See the module docstring."""
    records = []
    start = perf_counter()
    before = probe()

    def sample(case):
        nonlocal before
        outcome, answer, detail, dt = execute(case)
        after = probe()
        slow, before = (before + after) / 2, after
        return outcome, answer, detail, dt, slow

    for case in cases:
        outcome, answer, detail, dt, slow = sample(case)
        rec = {"name": case.name, "frontier": case.frontier, "outcome": outcome,
               "answer": answer, "times": [dt], "slowdowns": [slow], "mismatch": None}
        if outcome == "ok":
            rec["mismatch"] = case.check(answer, detail)
        else:
            rec["detail"] = detail if isinstance(detail, str) else None
        records.append(rec)
    while repeat and perf_counter() - start < seconds:
        for case, rec in zip(cases, records):
            if perf_counter() - start >= seconds:
                break
            if rec["outcome"] != "ok":
                continue
            outcome, answer, _, dt, slow = sample(case)
            if outcome != "ok" or answer != rec["answer"]:
                rec["mismatch"] = f"repeat gave {outcome} {answer}, first run {rec['answer']}"
            rec["times"].append(dt)
            rec["slowdowns"].append(slow)
    return records


def input_seconds(rec) -> float:
    """The input's time at reference speed; its charge if it hit its limit."""
    if rec["outcome"] == "limit":
        return rec["times"][0]
    return statistics.median(t / p for t, p in zip(rec["times"], rec["slowdowns"]))


def summarize(records) -> dict:
    """End-to-end figures of one run: every input counted once."""
    per_input = [input_seconds(r) for r in records]
    n = len(records)
    failed = [r for r in records if r["outcome"] != "ok"]
    decided = [r for r in records if r["outcome"] == "ok" and r["answer"] != "UNKNOWN"]
    unknown = [r for r in records if r["outcome"] == "ok" and r["answer"] == "UNKNOWN"]
    deciles = statistics.quantiles(per_input, n=10, method="inclusive")
    return {
        "wall_s": sum(per_input),
        "verdict_s.p50": statistics.median(per_input),
        "verdict_s.p80": deciles[7],
        "verdict_s.p90": deciles[8],
        "failed_share": len(failed) / n,
        "decided_share": len(decided) / n,
        "unknown_share": len(unknown) / n,
        "attempted": sum(len(r["times"]) for r in records),
        "unexpected_failures": sum(1 for r in failed if not r["frontier"]),
        "mismatches": [f"{r['name']}: {r['mismatch']}" for r in records if r["mismatch"]],
    }
