"""Spans and counters recorded around the library's layer entry points.

The tracer wraps public entry points from outside the program: each wrapper
replaces every name that a ``groupshift`` module bound to the original
function at import, so calls between layers pass through it.  A span is
(name, layer, start, end, parent index, operation id); spans stay in memory
until the run ends.  ``groups`` is a leaf called millions of times and is
not wrapped; its time lands in its callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("residues", "shifts", "control", "encoders", "words")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1

    def wrap(self, layer: str, name: str, fn, count=None):
        """fn inside a span; count(counts, args, kwargs, result) on return."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[2] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = tracer.clock()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name\tlayer\tstart\tend\tparent\top\n")
            for name, layer, start, end, parent, op in self.spans:
                out.write(f"{name}\t{layer}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def self_times(spans) -> Counter:
    """Per-layer self time: each span's duration minus its children's.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations add up.
    """
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (name, layer, start, end, parent, op) in enumerate(spans):
        out[layer] += (end - start) - child[i]
    return out


def rebind(package: str, original, replacement) -> int:
    """Point every module-level name bound to original at replacement."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def _add(key, amount=None):
    def count(counts, args, kwargs, result):
        counts[key] += 1 if amount is None else amount(args, kwargs, result)
    return count


def _howell_count(counts, args, kwargs, result):
    m = args[0]
    rows, cols = (m.nrows, m.ncols) if hasattr(m, "entries") else \
        (len(m), len(m[0]) if len(m) else 0)
    counts["residues.howell_calls"] += 1
    counts["residues.howell_cells"] += rows * cols


def _lift_count(counts, args, kwargs, result):
    counts["encoders.lift_calls"] += 1
    counts["encoders.lift_successes"] += result is not None


def _generators_count(counts, args, kwargs, result):
    # height-0 entries are the ones picked from candidate batches; lifted
    # entries were picked at a deeper level of the recursion and counted there
    counts["encoders.candidates_chosen"] += sum(e.height == 0 for e in result.entries)


def _encode_count(counts, args, kwargs, result):
    counts["encoders.encode_calls"] += 1
    counts["encoders.encode_symbols"] += len(args[1].symbols)


def _add_count(counts, args, kwargs, result):
    counts["words.add_calls"] += 1
    counts["words.symbols_built"] += len(result.symbols)


def install(tracer: Tracer) -> dict:
    """Wrap the layer entry points; returns the lru caches whose statistics
    give window and supported-word builds."""
    from groupshift import control, encoders, residues, shifts, words

    def fn(module, attr, layer, count=None):
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, f"{module.__name__.split('.')[-1]}.{attr}",
                              original, count)
        rebind("groupshift", original, wrapped)

    def method(cls, attr, layer, count=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(layer, f"{cls.__name__}.{attr}",
                                       original, count))

    caches = {"window": shifts._window_module,
              "supported_words": shifts.supported_words}

    fn(residues, "howell_form", "residues", _howell_count)
    lazy = residues.RowSolver.__dict__["_data"]
    data = functools.cached_property(tracer.wrap(
        "residues", "RowSolver._data", lazy.func, _add("residues.solver_builds")))
    data.__set_name__(residues.RowSolver, "_data")
    residues.RowSolver._data = data
    method(residues.RowSolver, "express", "residues", _add("residues.express_calls"))
    method(residues.HowellForm, "contains", "residues", _add("residues.contains_calls"))

    method(shifts.GroupShift, "window", "shifts")
    method(shifts.WindowModule, "constrained_projection", "shifts")
    for attr in ("supported_words", "torsion_window_projection", "member",
                 "finite_type_memory"):
        fn(shifts, attr, "shifts")
    fn(shifts, "enumerate_window_code", "shifts",
       _add("shifts.oracle_elements", lambda a, k, r: len(r)))

    steering = _add("control.steering_conditions",
                    lambda a, k, r: len(r.condition_table))
    fn(control, "controllability_index", "control", steering)
    fn(control, "order_controllability_index", "control", steering)
    fn(control, "weak_controllability_check", "control")
    fn(control, "analyze_controllability", "control")

    for attr in ("conjugacy_certificate", "primary_certificate", "socle_shift",
                 "scaled_finite_words_check", "check_injectivity",
                 "check_noncatastrophic"):
        fn(encoders, attr, "encoders")
    fn(encoders, "canonical_generators", "encoders", _generators_count)
    fn(encoders, "lift_height", "encoders", _lift_count)
    fn(encoders, "solve_finite_preimage", "encoders", _add("encoders.preimage_solves"))
    fn(encoders, "encode", "encoders", _encode_count)

    batches = encoders._candidate_batches

    def counted_batches(*args, **kwargs):
        for s, batch in batches(*args, **kwargs):
            tracer.counts["encoders.candidates_enumerated"] += len(batch)
            yield s, batch
    rebind("groupshift", batches, counted_batches)

    method(words.Word, "__add__", "words", _add_count)
    return caches


def layer_metrics(tracer: Tracer, caches_before: dict, caches_after: dict,
                  attempted: int) -> dict:
    """Per-operation layer metrics from one traced segment."""
    c = tracer.counts
    per_op = max(attempted, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    win_hits = caches_after["window"].hits - caches_before["window"].hits
    win_miss = caches_after["window"].misses - caches_before["window"].misses
    sw_miss = (caches_after["supported_words"].misses
               - caches_before["supported_words"].misses)
    counts = {
        "residues.howell_calls": c["residues.howell_calls"],
        "residues.howell_cells": c["residues.howell_cells"],
        "residues.solver_builds": c["residues.solver_builds"],
        "residues.express_calls": c["residues.express_calls"],
        "residues.contains_calls": c["residues.contains_calls"],
        "shifts.window_requests": win_hits + win_miss,
        "shifts.window_builds": win_miss,
        "shifts.supported_words_builds": sw_miss,
        "shifts.oracle_elements": c["shifts.oracle_elements"],
        "control.steering_conditions": c["control.steering_conditions"],
        "encoders.candidates_enumerated": c["encoders.candidates_enumerated"],
        "encoders.lift_calls": c["encoders.lift_calls"],
        "encoders.preimage_solves": c["encoders.preimage_solves"],
        "encoders.encode_calls": c["encoders.encode_calls"],
        "encoders.encode_symbols": c["encoders.encode_symbols"],
        "words.add_calls": c["words.add_calls"],
        "words.symbols_built": c["words.symbols_built"],
    }
    out = {k: (v / per_op, "count/op") for k, v in counts.items()}
    out["shifts.window_hit_ratio"] = (ratio(win_hits, win_hits + win_miss), "ratio")
    out["encoders.candidate_yield"] = (
        ratio(c["encoders.candidates_chosen"], c["encoders.candidates_enumerated"]),
        "ratio")
    out["encoders.lift_success_ratio"] = (
        ratio(c["encoders.lift_successes"], c["encoders.lift_calls"]), "ratio")
    selfs = self_times(tracer.spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (selfs[layer] / per_op, "s/op")
    return out
