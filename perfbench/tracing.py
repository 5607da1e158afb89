"""Span tracing from outside the simulator.

`Tracer.install` rebinds the module attributes that callers look up at call
time (`protocol` imports `sia_step`, `clsia_step`, `sparse_add` and
`visibility_windows` by name; `sparsify` calls its own `top_q`), so every call
of a traced layer records a span (name, start, end, parent) in memory.
`Tracer.restore` puts the original functions back. Spans are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

ITER = "protocol.run_global_iteration"
SETUP = "config.build_simulation"
SETUP_LAYERS = (SETUP, "data.synthetic_dataset", "data.partition")

# (layer name, object whose attribute callers look up, attribute); a layer
# that callers reach through two names is listed once per name
LAYERS = [
    ("config.build_simulation", "config", "build_simulation"),
    ("data.synthetic_dataset", "data", "synthetic_dataset"),
    ("data.partition", "data", "partition"),
    (ITER, "protocol", "run_global_iteration"),
    ("protocol.run_round", "protocol", "run_round"),
    ("protocol.run_no_isl_round", "protocol", "run_no_isl_round"),
    ("protocol.plan_round", "protocol", "plan_round"),
    ("protocol.next_window", "protocol.WindowCache", "next_window"),
    ("orbital.visibility_windows", "protocol", "visibility_windows"),
    ("learn.sat_learn_proc", "learn", "sat_learn_proc"),
    ("learn.evaluate", "learn", "evaluate"),
    ("sparsify.sia_step", "protocol", "sia_step"),
    ("sparsify.clsia_step", "protocol", "clsia_step"),
    ("sparsify.sparse_add", "protocol", "sparse_add"),
    ("sparsify.sparse_add", "sparsify", "sparse_add"),
    ("sparsify.top_q", "sparsify", "top_q"),
]

# per-layer metrics: (layer, stat); stats are per timed global iteration
# except `ms`, which is per set-up
PER_LAYER = [
    ("sparsify.top_q", "ms_per_iter"),
    ("sparsify.top_q", "calls_per_iter"),
    ("sparsify.sparse_add", "ms_per_iter"),
    ("sparsify.sparse_add", "calls_per_iter"),
    ("sparsify.sia_step", "self_ms_per_iter"),
    ("sparsify.clsia_step", "self_ms_per_iter"),
    ("learn.sat_learn_proc", "ms_per_iter"),
    ("learn.evaluate", "ms_per_iter"),
    ("orbital.visibility_windows", "ms_per_iter"),
    ("orbital.visibility_windows", "calls_per_iter"),
    ("protocol.next_window", "ms_per_iter"),
    ("protocol.next_window", "calls_per_iter"),
    ("protocol.next_window", "hit_ratio"),
    ("protocol.plan_round", "self_ms_per_iter"),
    ("protocol.run_round", "self_ms_per_iter"),
    ("protocol.run_no_isl_round", "self_ms_per_iter"),
    (ITER, "self_ms_per_iter"),
    (SETUP, "ms"),
    ("data.synthetic_dataset", "ms"),
    ("data.partition", "ms"),
]

UNITS = {"ms_per_iter": "ms", "self_ms_per_iter": "ms", "ms": "ms",
         "calls_per_iter": "count", "hit_ratio": "ratio"}


class Tracer:
    """Spans as four flat arrays (layer id, start, end, parent span or -1).

    Flat arrays hold no Python objects, so the spans of a long run add no work
    to the cyclic garbage collector of the process being measured.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.enabled = False

    @property
    def spans(self):
        return zip(self.layer, self.start, self.end, self.parent)

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        layer, start, end, parent = self.layer, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            layer.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, modules: dict[str, object]):
        for name, owner_path, attr in LAYERS:
            owner = modules[owner_path.split(".")[0]]
            for part in owner_path.split(".")[1:]:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _totals(self):
        n = len(self.names)
        total, child, calls = [0.0] * n, [0.0] * n, [0] * n
        for name_id, start, end, parent in self.spans:
            total[name_id] += end - start
            calls[name_id] += 1
            if parent >= 0:
                child[self.layer[parent]] += end - start
        return total, child, calls

    def layer_metrics(self, setups: int) -> dict[str, float]:
        """Per-layer metrics over every span recorded while enabled."""
        total, child, calls = self._totals()
        ids = self._name_ids
        # next_window calls that had to extend the cache with a window search
        missed = {parent for name_id, _, _, parent in self.spans
                  if name_id == ids["orbital.visibility_windows"]
                  and parent >= 0 and self.layer[parent] == ids["protocol.next_window"]}
        iters = calls[ids[ITER]]
        out = {}
        for layer, stat in PER_LAYER:
            i = ids[layer]
            if stat == "ms_per_iter":
                value = 1e3 * total[i] / iters
            elif stat == "self_ms_per_iter":
                value = 1e3 * (total[i] - child[i]) / iters
            elif stat == "calls_per_iter":
                value = calls[i] / iters
            elif stat == "hit_ratio":
                value = (calls[i] - len(missed)) / calls[i] if calls[i] else 0.0
            else:
                value = 1e3 * total[i] / setups
            out[f"{layer}.{stat}"] = value
        return out

    def shares(self) -> dict[str, tuple[float, float]]:
        """(total, self) time of each iteration layer as a share of the timed iterations' host time."""
        total, child, _ = self._totals()
        base = total[self._name_ids[ITER]]
        return {name: (total[i] / base, (total[i] - child[i]) / base)
                for i, name in enumerate(self.names) if total[i] and name not in SETUP_LAYERS}

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": [list(s) for s in self.spans]}, f,
                      separators=(",", ":"))

