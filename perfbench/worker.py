"""One workload process: set up, then run the closed loop when told to.

    python3 worker.py SRC_DIR WORKLOAD SEED

The worker imports monoclose from SRC_DIR, generates the seeded task list and
prints "ready"; that is the end of set-up.  It then reads one
command line from stdin: ``exit``, or a JSON object
``{"seconds": S, "trace": 0|1, "pauses": P, "spans": PATH}``, after which it
measures, runs the correctness gate and prints one JSON result line.

With ``pauses`` P > 0 the untraced passes stop P times, spread evenly over
the run: the worker prints "pause" and waits for a line on stdin before it
goes on.  The parent measures set-up again in that gap, so the set-up
samples see the whole run rather than its first second.  Time spent paused
is not part of the measuring time.

A pass runs every task of the list once, in order, one at a time: a closed
loop with one caller.  Passes repeat until the time is spent, at least one.
Between tasks, ``SLICES`` reference slices per pass time the host's speed
(see ``calibrate.py``), and each latency of the pass is calibrated by it.
Each task's latency is its median over the passes.  The tasks are
deterministic CPU work, so their times vary only with the machine; a pass
left unusually fast or slow by other tenants of a shared host is outvoted by
the rest of the run, where the fastest pass would follow a rare outlier.
The result carries the uncalibrated figures as well, under ``wall_``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

from calibrate import host_factor, time_slice
from tracing import Tracer, layer_metrics

SLICES = 40  # reference slices per pass


def _load(src):
    sys.path.insert(0, src)
    import monoclose
    import monoclose.cli  # noqa: F401  (part of set-up for every workload)
    from monoclose import kernels

    if not os.path.abspath(monoclose.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"monoclose imported from {monoclose.__file__}, not {src}")
    return kernels.backend_name()


def _run_pass(workload, specs, tracer=None):
    """One pass: its wall time, the task latencies, the outputs and the host
    factor measured between its tasks."""
    latencies, outputs, slices = [], [], []
    every = max(1, len(specs) // SLICES)
    start = time.perf_counter()
    for i, spec in enumerate(specs):
        if i % every == 0:
            slices.append(time_slice())
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            out = workload.run(spec)
        except Exception as exc:  # a failed task is counted, not fatal
            traceback.print_exc()
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, latencies, outputs, host_factor(slices)


def _canonical(workload, spec, out):
    if isinstance(out, Exception):
        return ["error", type(out).__name__, str(out)]
    return workload.canonical(spec, out)


def _encode(workload, specs, outputs):
    return [json.dumps(_canonical(workload, s, o), separators=(",", ":"))
            for s, o in zip(specs, outputs)]


def _digest(encoded):
    return hashlib.sha256("\n".join(encoded).encode()).hexdigest()


def _pause():
    print("pause", flush=True)
    sys.stdin.readline()


def _passes(workload, specs, seconds, tracer=None, reference=None, pauses=0):
    """Run whole passes until `seconds` have gone by; at least one.  Pause
    (see the module notes) after the passes that cross each of the `pauses`
    evenly spaced marks.

    Returns the passes as (wall, latencies, indices of tasks whose answer
    differs from `reference`, spans, host factor), the reference answers (those of the
    first pass when none is given) and the first pass's raw outputs.
    """
    runs, first, paused = [], None, 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        if paused < pauses and time.perf_counter() - start >= (
                paused + 1) * seconds / (pauses + 1):
            t0 = time.perf_counter()
            _pause()
            paused += 1
            start += time.perf_counter() - t0
        if tracer is not None:
            tracer.spans = []
        wall, lat, outs, host = _run_pass(workload, specs, tracer)
        encoded = _encode(workload, specs, outs)
        if reference is None:
            reference, first = encoded, outs
        differ = {i for i, e in enumerate(encoded) if e != reference[i]}
        runs.append((wall, lat, differ, None if tracer is None else tracer.spans, host))
    return runs, reference, first


def measure(workload, specs, seconds, trace, pauses=0, spans_path=None):
    untraced, reference, first = _passes(
        workload, specs, seconds / 2 if trace else seconds, pauses=pauses)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    bad = set()
    for i, (spec, out) in enumerate(zip(specs, first)):
        message = (f"raised {out!r}" if isinstance(out, Exception)
                   else workload.gate(spec, out))
        if message:
            bad.add(i)
            print(f"gate: task {i}: {message}", file=sys.stderr)

    n = len(specs)
    def per_task(scale):
        return sorted(statistics.median(run[1][i] / scale(run) for run in untraced)
                      for i in range(n))
    calibrated = per_task(lambda run: run[4])
    wall = per_task(lambda run: 1)
    # nearest-rank p90, lowered if needed to keep ten tasks beyond it
    p90_rank = max(0, min(-(-9 * n // 10), n - 10) - 1)
    result = {
        "tasks": n,
        "passes": len(untraced),
        "attempted": n * len(untraced),
        "failed": sum(len(bad | run[2]) for run in untraced),
        "digest": _digest(reference),
        "consistent": True,
        "p90_beyond": n - 1 - p90_rank,
        "peak_rss_mb": peak_rss_kb / 1024,
        "host_factor": statistics.median(run[4] for run in untraced),
    }
    for prefix, latencies in (("", calibrated), ("wall_", wall)):
        result[prefix + "tasks_per_s"] = n / sum(latencies)
        result[prefix + "task_p50_ms"] = statistics.median(latencies) * 1e3
        result[prefix + "task_p90_ms"] = latencies[p90_rank] * 1e3
    if trace:
        with Tracer() as tracer:
            traced, _, _ = _passes(workload, specs, seconds / 2, tracer, reference)
        result["attempted"] += n * len(traced)
        result["layers"], same_counts = _layers(traced, n, spans_path)
        result["consistent"] = same_counts and not any(run[2] for run in traced)
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(run[0] / run[4] for run in traced)
            / statistics.median(run[0] / run[4] for run in untraced))
    return result


def _layers(traced, n, spans_path):
    """Per-layer metrics of the traced passes, and whether every pass gave
    the same counts; writes the first pass's spans to `spans_path`."""
    per_pass = [layer_metrics(run[3], n) for run in traced]
    counts = per_pass[0][0]
    if spans_path:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as f:
            for name, start, end, parent, task, note in traced[0][3]:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "task": task,
                                    "note": note}) + "\n")
    layers = dict(counts)
    for key in per_pass[0][1]:
        layers[key] = statistics.median(t[key] for _, t in per_pass)
    return layers, all(c == counts for c, _ in per_pass)


def main(argv):
    src, name, seed = argv[1], argv[2], int(argv[3])
    backend = _load(src)
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    specs = workload.inputs(random.Random(seed))
    print("ready", flush=True)

    command = sys.stdin.readline().strip()
    if command == "exit":
        return 0
    config = json.loads(command)
    result = measure(workload, specs, config["seconds"], config["trace"],
                     config.get("pauses", 0), config.get("spans"))
    result["backend"] = backend
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
