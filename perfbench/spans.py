"""In-memory spans, the per-layer instrumentation of bellsim, and self times.

A span is (name, start, end, parent, work): ``start`` and ``end`` come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in child
processes line up with the parent's), ``parent`` is the index of the
enclosing span or -1, and ``work`` counts calls, trials or points. Spans stay
in memory and are written once, at the end of a run.

The layer of a span is the part of its name before the first dot. A span's
self time is its duration minus the durations of its direct children; the
self times of all spans under a root add up to the root's duration.

``instrument`` wraps public bellsim functions in spans for the length of a
``with`` block, by replacing the module attributes the program calls through.
Nothing under ``src/`` changes, and the originals are restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records spans and named counters in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.work: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str, work: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, work: int = 0):
        idx = self.open(name, work)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add(self, name: str, start: float, end: float, parent: int, work: int = 0) -> int:
        """Append a finished span measured elsewhere."""
        self.names.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.work.append(work)
        return len(self.names) - 1

    def to_dict(self) -> dict:
        return {"names": self.names, "start": self.start, "end": self.end,
                "parent": self.parent, "work": self.work, "counters": self.counters}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    def merge(self, data: dict, parent: int) -> None:
        """Attach spans written by a child process under span ``parent``."""
        offset = len(self.names)
        for name, start, end, par, work in zip(data["names"], data["start"], data["end"],
                                               data["parent"], data["work"]):
            self.add(name, start, end, parent if par < 0 else par + offset, work)
        for name, amount in data["counters"].items():
            self.count(name, amount)


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    def span(self, name: str, work: int = 0):
        return nullcontext()


NULL = NullTracer()


# ---- instrumentation --------------------------------------------------------


def _calls(tracer, args, result) -> int:
    return 1


def _trials_in(tracer, args, result) -> int:
    return len(args[0])


def _trials_out(tracer, args, result) -> int:
    return len(result)


def _trials_written(tracer, args, result) -> int:
    if isinstance(args[1], (str, os.PathLike)):
        tracer.count("logio.write_log.bytes", os.path.getsize(args[1]))
    return len(args[0])


# span name -> (modules whose attribute is replaced, attribute, work count)
WRAPPED = (
    ("config.load_config", ("bellsim.config", "bellsim.cli"), "load_config", _calls),
    ("readout.calibrate_readout", ("bellsim.config",), "calibrate_readout", _calls),
    ("engine.outcome_distribution", ("bellsim.engine",), "outcome_distribution", _calls),
    ("engine.run_experiment", ("bellsim.engine",), "run_experiment", _trials_out),
    ("logio.write_log", ("bellsim.logio",), "write_log", _trials_written),
    ("logio.read_log", ("bellsim.logio",), "read_log", _trials_out),
    ("bell_stats.analyze_records", ("bellsim.bell_stats",), "analyze_records", _trials_in),
    ("bell_stats.chsh_estimate", ("bellsim.bell_stats",), "chsh_estimate", _trials_in),
    ("bell_stats.win_count", ("bellsim.bell_stats",), "win_count", _trials_in),
    ("bell_stats.complete_pvalue", ("bellsim.bell_stats",), "complete_pvalue", _calls),
    ("bell_stats.p_vs_i_curve", ("bellsim.bell_stats",), "p_vs_i_curve", _calls),
    ("bell_stats.expected_correlations", ("bellsim.bell_stats", "bellsim.optimizer"),
     "expected_correlations", _calls),
    ("optimizer.optimize", ("bellsim.optimizer",), "optimize", _calls),
)


def _wrap(tracer: Tracer, name: str, fn, work):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.work[idx] = work(tracer, args, result)
        return result
    return wrapper


def _wrap_event_ready_state(tracer: Tracer, fn):
    """Span the cached model build, named by what the cache did.

    ``_first`` is the first build in a process, ``_point`` a later build of a
    new (model, errors) point, ``_hit`` a call answered from the cache.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        misses = fn.cache_info().misses
        idx = tracer.open("heralding.event_ready_state")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if fn.cache_info().misses == misses:
            kind = "hit"
        else:
            kind = "first" if misses == 0 else "point"
        tracer.names[idx] = f"heralding.event_ready_state_{kind}"
        tracer.work[idx] = 1
        return result
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public bellsim calls listed in WRAPPED (and the model build)."""
    replaced = []
    try:
        for name, modules, attr, work in WRAPPED:
            original = getattr(importlib.import_module(modules[0]), attr)
            wrapper = _wrap(tracer, name, original, work)
            for module_name in modules:
                module = importlib.import_module(module_name)
                replaced.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        config = importlib.import_module("bellsim.config")
        replaced.append((config, "event_ready_state", config.event_ready_state))
        config.event_ready_state = _wrap_event_ready_state(tracer, config.event_ready_state)
        yield tracer
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


# ---- self times and the per-layer table --------------------------------------


def summarize(data: dict, roots: list[int]) -> dict:
    """Per span name: calls, work, total and self seconds; per layer: self seconds.

    Only spans under the given root spans count; ``total_s`` is the roots'
    summed duration. Self time of a span under a ``bench.check`` span counts
    to layer ``bench``.
    """
    names, start, end, parent, work = (data[k] for k in ("names", "start", "end", "parent", "work"))
    n = len(names)
    child_s = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_s[parent[i]] += end[i] - start[i]
    root_set = set(roots)
    keep, in_check = [False] * n, [False] * n
    for i in range(n):  # a parent always precedes its children
        keep[i] = i in root_set or (parent[i] >= 0 and keep[parent[i]])
        in_check[i] = names[i] == "bench.check" or (parent[i] >= 0 and in_check[parent[i]])
    by_name: dict[str, dict] = {}
    layers: dict[str, float] = {}
    for i in range(n):
        if not keep[i]:
            continue
        dur = end[i] - start[i]
        own = dur - child_s[i]
        row = by_name.setdefault(names[i], {"calls": 0, "work": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["work"] += work[i]
        row["total_s"] += dur
        row["self_s"] += own
        layer = "bench" if in_check[i] else names[i].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return {"total_s": sum(end[i] - start[i] for i in roots), "by_name": by_name,
            "layers": layers, "counters": data["counters"]}


def layer_table(summary: dict) -> str:
    """Human-readable self-time table, one row per layer, then one per span name."""
    total = summary["total_s"] or 1.0
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer, own in sorted(summary["layers"].items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12} {own:>10.4f} {100 * own / total:>6.1f}%")
    lines.append(f"{'(sum)':<12} {sum(summary['layers'].values()):>10.4f} "
                 f"of {summary['total_s']:.4f} s traced")
    lines.append("")
    lines.append(f"{'span':<40} {'calls':>7} {'work':>9} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(summary["by_name"].items()):
        lines.append(f"{name:<40} {row['calls']:>7} {row['work']:>9} "
                     f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    return "\n".join(lines)
