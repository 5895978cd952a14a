"""Spans around calls into the program's public functions, from outside.

``from .x import y`` binds ``y`` in the importing module, so a function is
replaced at every module of the package that holds it, not only where it is
defined.  Each call records a span (name, start, end, parent, op id) in
flat arrays; a generator records one span per resumption, so spans stay
nested and the items it yields are counted.  Self time is computed from the
spans after the run, and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function, kind): "call" functions get one span per call,
# "generator" functions one span per resumption plus an item count.
TARGETS = (
    ("core", "election_from_json", "call"),
    ("core", "validate", "call"),
    ("core", "build_forest", "call"),
    ("core", "find_delegation_cycle", "call"),
    ("exact", "swing_size_counts", "call"),
    ("dp", "fill_table", "call"),
    ("dp", "shapley_dp", "call"),
    ("dp", "banzhaf_dp", "call"),
    ("dp", "all_indices_dp", "call"),
    ("coalition_table", "coalition_weight_table", "call"),
    ("coalition_table", "swing_counts_from_table", "call"),
    ("bribery", "neighborhood_size", "call"),
    ("bribery", "enumerate_neighborhood", "generator"),
    ("bribery", "solve_bribery_exact", "call"),
    ("bribery", "gamw", "call"),
    ("maximin", "_profiles_with_roots", "generator"),
    ("maximin", "mmwp_bruteforce", "call"),
    ("weightmax", "wmaxp_exact", "call"),
    ("weightmax", "solve_full_support", "call"),
    ("weightmax", "solve_xp_reqbar", "call"),
    ("weightmax", "solve_fpt_colorcoding", "call"),
    ("weightmax", "vbamw", "call"),
    ("weightmax", "min_cost_root_arborescence", "call"),
)


def _fill_table_cells(args, kwargs) -> int:
    """(m+1)(cap+1)(m+1) cells, computed from the call's arguments."""
    weights_seq = args[0]
    cap_arg = args[2] if len(args) > 2 else kwargs.get("weight_cap")
    m = len(weights_seq)
    total = sum(weights_seq)
    cap = total if cap_arg is None else min(cap_arg, total)
    return (m + 1) * (cap + 1) * (m + 1)


# counters derived from a call: from its arguments, or from its result
ARG_COUNTERS = {"dp.fill_table": ("cells", _fill_table_cells)}
RESULT_COUNTERS = {"bribery.neighborhood_size": "value"}


class Tracer:
    def __init__(self, package: str = "liquidpower"):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1  # -1: outside any op (set-up)
        self.counts: dict[str, float] = defaultdict(float)
        self.patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _id(self, span_name: str) -> int:
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._ids[span_name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap_call(self, span_name: str, fn):
        nid = self._id(span_name)
        counts = self.counts
        arg_counter = ARG_COUNTERS.get(span_name)
        result_counter = RESULT_COUNTERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[span_name + ".calls"] += 1
            if arg_counter is not None:
                counts[span_name + "." + arg_counter[0]] += arg_counter[1](args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if result_counter is not None:
                counts[span_name + "." + result_counter] += result
            return result

        return wrapper

    def _wrap_generator(self, span_name: str, fn):
        nid = self._id(span_name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[span_name + ".calls"] += 1
            inner = fn(*args, **kwargs)

            def resume():
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    counts[span_name + ".items"] += 1
                    yield item

            return resume()

        return wrapper

    # -- install / restore ----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Replace each target at every module of the package that binds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for module_name, attr, kind in targets:
            home = sys.modules[f"{self.package}.{module_name}"]
            original = getattr(home, attr)
            span_name = f"{module_name}.{attr}"
            make = self._wrap_generator if kind == "generator" else self._wrap_call
            wrapper = make(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self.patched):
            setattr(module, key, original)
        self.patched.clear()

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds ``s`` and ``self_s``.

        Inclusive time counts only the outermost span of a name, so a
        function reached again below itself is not counted twice.
        """
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            rec = out.setdefault(name, {"spans": 0, "s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            rec["spans"] += 1
            rec["self_s"] += dur - child_time[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                rec["s"] += dur
        for name, rec in out.items():
            rec["calls"] = self.counts.get(name + ".calls", 0)
        return out

    def rows(self) -> list[list]:
        """Every span as ``[name, start, end, parent, op]``."""
        return [
            [self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
            for i in range(len(self.start))
        ]
