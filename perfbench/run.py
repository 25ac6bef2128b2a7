"""Layered benchmark of monoclose on the pure-Python backend.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; monoclose is imported from
``src/`` there and nowhere else.  One workload process runs the closed loop
described in ``worker.py`` at a time.  Set-up (start the interpreter, import
``monoclose`` and ``monoclose.cli``, generate the seeded task list) is
measured by spawning a workload process: once before the timed one, for the
timed one itself, and in pauses spread over the timed passes, while the timed
process waits.  ``setup_s`` is the median of those samples, each calibrated
by reference slices timed around it (see ``calibrate.py``).  Before any of
them the sources are compiled to bytecode and one set-up runs unmeasured, so
that no sample pays for compiling or for a cold file cache.

``--trace 0`` reports the end-to-end metrics, whose timings are calibrated
to a nominal host speed; the summary also shows them uncalibrated. ``--trace 1`` the per-layer
metrics of a traced pass (see ``tracing.py``) plus the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show every
metric by name with its unit and the stamp of the run.  ``--out FILE``
appends the full record to FILE for ``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from calibrate import host_factor, time_slice

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 11  # set-up samples per untraced run; the median is reported
SETUP_SLICES = 10  # reference slices timed before and again after a set-up
DEADLINE_S = 170  # a run gives up (killing its worker) after this long
DEFAULT_SEED = 1  # the seed whose answer digests are pinned in digests.json

END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# the end-to-end timings, also reported uncalibrated under "wall_" + name
WALL = ("tasks_per_s", "task_p50_ms", "task_p90_ms", "setup_s")


def layer_unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith((".keep_ratio", ".oracle_per_point", "overhead_ratio")):
        return "ratio"
    if name.endswith(".per_query"):
        return "calls/task"
    return "count"


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Worker:
    """One spawned workload process, ended and waited for on close."""

    def __init__(self, src, workload, seed):
        slices = [time_slice() for _ in range(SETUP_SLICES)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), src, workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"worker for {workload} failed during set-up")
        slices += [time_slice() for _ in range(SETUP_SLICES)]
        self.host = host_factor(slices)

    def request(self, command, timeout):
        out, _ = self.proc.communicate(command + "\n", timeout=timeout)
        if self.proc.returncode:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def readline(self, deadline):
        """The worker's next line.  The worker writes one line and then
        waits or exits, so nothing is left buffered between calls."""
        timeout = max(0.0, deadline - time.monotonic())
        if not select.select([self.proc.stdout], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired("worker", timeout)
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return line.strip()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def setup_once(src, workload, seed, deadline):
    """Spawn a workload process, let it set up and exit; its set-up time and
    the host factor around it."""
    worker = Worker(src, workload, seed)
    try:
        worker.request("exit", deadline - time.monotonic())
    finally:
        worker.close()
    return worker.setup_s, worker.host


def run(root, workload, seed, seconds, trace, deadline):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "monoclose", "__init__.py")):
        raise RuntimeError(f"no monoclose sources under {src}")
    for path in (os.path.join(src, "monoclose"), HERE):
        compileall.compile_dir(path, quiet=1)
    setup_once(src, workload, seed, deadline)  # warm-up, not measured
    setups = [setup_once(src, workload, seed, deadline)]
    config = {"seconds": seconds, "trace": trace,
              "pauses": 0 if trace else SETUPS - 2}
    if trace:
        config["spans"] = os.path.join(
            root, ".perfbench", f"spans-{workload}-seed{seed}.jsonl")
    worker = Worker(src, workload, seed)
    try:
        setups.append((worker.setup_s, worker.host))
        worker.send(json.dumps(config))
        while (line := worker.readline(deadline)) == "pause":
            setups.append(setup_once(src, workload, seed, deadline))
            worker.send("go")
        result = json.loads(line)
    finally:
        worker.close()
    result["setup_s"] = statistics.median(s / host for s, host in setups)
    result["wall_setup_s"] = statistics.median(s for s, _ in setups)
    result["setup_samples"] = len(setups)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="scan, lp_closure or certify")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    deadline = time.monotonic() + DEADLINE_S
    try:
        r = run(root, args.workload, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": r["backend"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
    }
    problems = []
    if r["failed"]:
        problems.append(f"{r['failed']} task runs failed")
    if not r["consistent"]:
        problems.append("traced passes disagree with the untraced answers or counts")
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f).get(str(args.seed), {}).get(args.workload)
    if pinned is not None and pinned != r["digest"]:
        problems.append(f"answer digest {r['digest']} differs from pinned {pinned}")

    wall = {}
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in r["layers"].items()}
    else:
        metrics = {k: {"value": r[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        wall = {k: {"value": r["wall_" + k], "unit": END_TO_END_UNITS[k]} for k in WALL}
        wall["host_factor"] = {"value": r["host_factor"], "unit": "ratio"}

    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"tasks={r['tasks']} passes={r['passes']} "
          f"setup samples={r['setup_samples']} "
          f"p90 sample: {r['tasks']} tasks, {r['p90_beyond']} beyond")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if wall:
        print("uncalibrated wall-clock figures:")
    for name, m in wall.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':34s} {r['failed'] / r['attempted']:.6g} ratio "
          f"({r['failed']}/{r['attempted']})")
    print(f"  digest {r['digest']} "
          f"({'pinned, matches' if pinned == r['digest'] else 'pinned, DIFFERS' if pinned else 'not pinned for this seed'})")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"stamp": stamp, "trace": args.trace,
                                "digest": r["digest"], "metrics": metrics,
                                "wall": wall}) + "\n")
    print(json.dumps({"correct": not problems, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
