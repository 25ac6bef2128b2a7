"""Outside-in spans around the public functions of each monoclose layer.

The program is not instrumented: a `Tracer` replaces every module attribute
that is bound to a traced function with a wrapper, under the name each caller
looks up.  `newton` binds `power` and `max_weight_lp` by `from ... import`, so
patching `simplex.max_weight_lp` alone would record nothing; scanning every
loaded `monoclose` module for the original function object catches all of
those bindings.  Oracle spans come from wrapping the `member` callable that
`newton` hands to `kernels.box_closure_scan`.

A span is `[name, start, end, parent index, task id, note]`, kept in memory;
`note` holds the exact counts taken at that boundary.  All spans nest, since
the benchmark is single-threaded, so a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

# span name -> (module, attribute of the original function, names of the
# exact counts noted at the boundary, note(args, result) -> those counts)
LAYERS = {
    "cli": ("cli", "main", (), None),
    "normality": ("normality", "pure_power_normality", ("powers_checked",),
                  lambda a, out: (len(out.checked_powers),)),
    "newton.closure": ("newton", "closure", (), None),
    "newton.np_member": ("newton", "np_member", (), None),
    "newton.validate": ("newton", "validate_certificate", (), None),
    "newton.witness": ("newton", "dependence_witness", ("max_power",),
                       lambda a, out: (out.power,)),
    "simplex.lp": ("simplex", "max_weight_lp", ("inside",),
                   lambda a, out: (out[0] == "inside",)),
    "ideals.power": ("ideals", "power", (), None),
    "kernels.pair_sums": ("kernels", "pair_sums_antichain", ("in", "out"),
                          lambda a, out: (len(a[0]) * len(a[1]), len(out))),
    "kernels.antichain": ("kernels", "minimal_antichain", ("in", "out"),
                          lambda a, out: (len(a[0]), len(out))),
    "kernels.scan": ("kernels", "box_closure_scan", ("box_points", "found"),
                     lambda a, out: (math.prod(b + 1 for b in a[0]), len(out))),
}
# the `member` callable handed to the scan
ORACLE = ("newton.oracle", ("inside",), lambda a, out: (bool(out[0]),))
NOTES = {name: keys for name, (_, _, keys, _) in LAYERS.items()}
NOTES[ORACLE[0]] = ORACLE[1]
MAX_NOTES = {"newton.witness.max_power"}  # aggregated by max, the rest by sum


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch the modules."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = [-1]  # indices of the open spans
        self._patched = []

    def _call(self, name, fn, note, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1], self.task, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if note is not None:
            rec[5] = note(args, out)
        return out

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            return self._call(name, fn, note, args, kwargs)
        return traced

    def _wrap_scan(self, fn, note):
        name, _, oracle_note = ORACLE

        def traced(bounds, seeds, member, budget=None):
            oracle = self._wrap(name, member, oracle_note)
            return self._call("kernels.scan", fn, note,
                              (bounds, seeds, oracle, budget), {})
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "monoclose" or k.startswith("monoclose."))]
        for name, (mod, attr, _, note) in LAYERS.items():
            fn = getattr(importlib.import_module(f"monoclose.{mod}"), attr)
            wrapper = (self._wrap_scan(fn, note) if name == "kernels.scan"
                       else self._wrap(name, fn, note))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, fn))

    def uninstall(self):
        for m, key, fn in reversed(self._patched):
            setattr(m, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(spans, tasks: int) -> tuple[dict, dict]:
    """Per-layer counts (exact) and times (seconds) from one pass's spans."""
    dur = [s[2] - s[1] for s in spans]
    self_s = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_s[s[3]] -= dur[i]
    counts = {f"{n}.calls": 0 for n in NOTES}
    counts.update({f"{n}.{k}": 0 for n, keys in NOTES.items() for k in keys})
    times = {f"{n}.{t}": 0.0 for n in NOTES for t in ("s", "self_s")}
    for i, (name, *_, note) in enumerate(spans):
        counts[f"{name}.calls"] += 1
        times[f"{name}.s"] += dur[i]
        times[f"{name}.self_s"] += self_s[i]
        for key, value in zip(NOTES[name], note or ()):
            k = f"{name}.{key}"
            counts[k] = max(counts[k], value) if k in MAX_NOTES else counts[k] + int(value)
    counts["kernels.scan.oracle_per_point"] = _ratio(
        counts["newton.oracle.calls"], counts["kernels.scan.box_points"])
    counts["kernels.antichain.keep_ratio"] = _ratio(
        counts["kernels.antichain.out"], counts["kernels.antichain.in"])
    counts["simplex.lp.per_query"] = _ratio(counts["simplex.lp.calls"], tasks)
    return counts, times


def _ratio(num, den):
    return num / den if den else 0.0
