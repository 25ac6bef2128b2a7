"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/run.py --workload certify --seed 3 --out base.jsonl   # on the parent
    python3 perfbench/run.py --workload certify --seed 3 --out new.jsonl    # on the change
    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the records ``run.py --out`` appends, one run per line.  For
every workload the median of each metric is compared; end-to-end metrics are
checked against the bound in BENCHMARK.json.  Records taken on different
kernel backends are never compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def medians(records):
    out = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            out.setdefault((rec["stamp"]["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in out.items()}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    backends = {rec["stamp"]["backend"] for rec in base + new}
    if len(backends) != 1:
        print(f"compare: refusing to compare runs on different backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    a, b = medians(base), medians(new)
    worse = 0
    print(f"{'workload':12s} {'metric':34s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        change = (y - x) / x if x else 0.0
        note = ""
        if key[1] in spec:
            m = spec[key[1]]
            loss = -change if m["better"] == "higher" else change
            if loss > m["bound"]:
                note = f"worse than bound {m['bound']:.0%}"
                worse += 1
        print(f"{key[0]:12s} {key[1]:34s} {x:12.6g} {y:12.6g} {change:+8.1%} {note}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
