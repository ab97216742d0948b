"""Per-layer spans recorded from outside the program.

The benchmark wraps each layer's public function *where it is called*
(``flow.py`` imports layer functions by name, so the wrapper must
replace the name in the calling module, not in the defining one) and
records one span per call: name, start, end, parent span, the cell or
request id it served, and the size counters read off the call's
arguments and result.  Nothing under ``src/`` changes.

Spans stay in memory.  The traced process writes them when it ends;
forked worker processes (the stage-graph scheduler's pool) drop the
spans they inherited, record their own, and write them to one file per
process when they exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import multiprocessing.util
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Stage-level span names: one per Figure-6 stage computed.
STAGE_SPAN = "stage."


class Recorder:
    """Span buffer for one process; thread-safe, parent-linked."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_tag(self, tag: Optional[str]) -> None:
        """The cell or request id that spans on this thread serve."""
        self._local.tag = tag

    def tag(self) -> Optional[str]:
        return getattr(self._local, "tag", None)

    def open(self) -> Tuple[int, Optional[int]]:
        with self._lock:
            span_id = self._next
            self._next += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def close(self, span_id: int, parent: Optional[int], name: str,
              start: float, end: float, counters: Dict[str, float]) -> None:
        self._stack().pop()
        span = {
            "id": f"{self._pid}:{span_id}",
            "parent": None if parent is None else f"{self._pid}:{parent}",
            "name": name, "start": start, "end": end,
            "tag": self.tag(), "pid": self._pid,
        }
        if counters:
            span["counters"] = counters
        with self._lock:
            self.spans.append(span)

    # -- processes -----------------------------------------------------
    def after_fork(self) -> None:
        """In a forked worker: forget the parent's spans, flush at exit."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []
        self._pid = os.getpid()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def load_spans(out_dir: Path) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in sorted(out_dir.glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# ----------------------------------------------------------------------
# Wrapping layer functions at their call sites
# ----------------------------------------------------------------------

Counters = Callable[[tuple, dict, Any], Dict[str, float]]


def _wrap(recorder: Recorder, name: Any, fn: Callable,
          counters: Optional[Counters], tag: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        previous = recorder.tag()
        if tag is not None:
            recorder.set_tag(tag(args, kwargs))
        span_id, parent = recorder.open()
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            extra = counters(args, kwargs, result) if counters else {}
            recorder.close(span_id, parent, span_name, start, end, extra)
            if tag is not None:
                recorder.set_tag(previous)

    wrapper.__wrapped_layer__ = fn  # type: ignore[attr-defined]
    return wrapper


def _n_ands(aig: Any) -> float:
    return float(aig.n_ands())


def _entry_bytes(args) -> float:
    cache, stage, key = args[0], args[1], args[2]
    try:
        return float(cache._path(stage, key).stat().st_size)
    except OSError:
        return 0.0


def _get_counters(args, _kwargs, result) -> Dict[str, float]:
    if not args[0].enabled:
        return {}
    hit = result is not None
    return {"hit": float(hit), "miss": float(not hit),
            "bytes": _entry_bytes(args) if hit else 0.0}


def _put_counters(args, _kwargs, _result) -> Dict[str, float]:
    return {"bytes": _entry_bytes(args)} if args[0].enabled else {}


def _stage_name(args, kwargs) -> str:
    return STAGE_SPAN + str(args[0] if args else kwargs["stage"])


def _anneal_counters(args, _kwargs, _result) -> Dict[str, float]:
    placer = args[0]
    stats = getattr(placer, "stats", {}) or {}
    return {
        "proposed": float(stats.get("proposed", 0)),
        "accepted": float(stats.get("accepted", 0)),
        "size": float(len(placer.netlist.instances)),
    }


def _route_counters(_args, _kwargs, result) -> Dict[str, float]:
    routing = result[0] if result is not None else None
    if routing is None:
        return {}
    return {
        "nets": float(len(routing.nets)),
        "iterations": float(routing.iterations),
        "overused_edges": float(routing.overused_edges),
    }


def _task_tag(args, _kwargs) -> str:
    spec = args[0]
    return f"{spec.design}/{spec.arch}/{spec.options.seed}"


def _job_tag(args, _kwargs) -> str:
    return str(args[1].id)


def layer_sites() -> List[Tuple[str, str, Any, Optional[Counters],
                                 Optional[Callable]]]:
    """(module, attribute, span name, counters, tag) for every layer call.

    ``attribute`` may be ``Class.method``.  Each row names the module
    the caller looks the function up in.
    """
    return [
        # Stage level: one span per computed stage.
        ("repro.flow.flow", "compute_stage", _stage_name, None, None),
        ("repro.flow.scheduler", "compute_stage", _stage_name, None, None),
        ("repro.flow.scheduler", "_run_stage_task", "sched.task", None,
         _task_tag),
        ("repro.serve.server", "Executor._execute", "serve.exec", None,
         _job_tag),
        # Synthesis.
        ("repro.flow.flow", "extract_core", "synth.extract", None, None),
        ("repro.flow.flow", "optimize", "synth.optimize",
         lambda a, k, r: {"ands_in": _n_ands(a[0]),
                          "ands_out": _n_ands(r) if r is not None else 0.0,
                          "size": _n_ands(a[0])}, None),
        ("repro.flow.flow", "map_core", "synth.map",
         lambda a, k, r: {"instances": float(len(r.instances))
                          if r is not None else 0.0}, None),
        ("repro.synth.compaction", "compact", "synth.compact",
         lambda a, k, r: {"supernodes": float(r[1].supernodes_collapsed)
                          if r is not None else 0.0,
                          "size": float(len(a[0].instances))}, None),
        ("repro.synth.realize", "baseline_table", "synth.realize", None,
         None),
        ("repro.synth.realize", "compaction_table", "synth.realize", None,
         None),
        ("repro.flow.flow", "characterize_library", "cells.characterize",
         None, None),
        # Physical synthesis.
        ("repro.place.sa", "AnnealingPlacer.place", "place.anneal",
         _anneal_counters, None),
        ("repro.place.physical_synthesis", "insert_buffers",
         "place.buffers",
         lambda a, k, r: {"added": float(r or 0)}, None),
        ("repro.pack.iterative", "insert_buffers", "place.buffers",
         lambda a, k, r: {"added": float(r or 0)}, None),
        # Timing.
        ("repro.place.physical_synthesis", "analyze", "timing.sta", None,
         None),
        ("repro.pack.iterative", "analyze", "timing.sta", None, None),
        ("repro.flow.flow", "analyze", "timing.sta", None, None),
        # Packing and routing.
        ("repro.flow.flow", "run_packing_loop", "pack.loop", None, None),
        ("repro.pack.iterative", "pack", "pack.quadrisection", None, None),
        ("repro.flow.flow", "route_and_extract", "route", _route_counters,
         None),
        # Flow plumbing: keys and the stage cache.
        ("repro.flow.flow", "stage_keys", "flow.keys", None, None),
        ("repro.flow.scheduler", "stage_keys", "flow.keys", None, None),
        ("repro.flow.flow", "request_key", "flow.keys", None, None),
        ("repro.serve.jobs", "request_key", "flow.keys", None, None),
        ("repro.flow.cache", "StageCache.get", "flow.cache.get",
         _get_counters, None),
        ("repro.flow.cache", "StageCache.put", "flow.cache.put",
         _put_counters, None),
    ]


def install(recorder: Recorder) -> None:
    """Wrap every layer call site to record into ``recorder``."""
    for module_name, attr, name, counters, tag in layer_sites():
        module = importlib.import_module(module_name)
        owner: Any = module
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        if hasattr(original, "__wrapped_layer__"):
            continue
        setattr(owner, parts[-1],
                _wrap(recorder, name, original, counters, tag))
    # multiprocessing clears its finalizer registry in a new worker and
    # then runs these hooks, so the exit-time flush registered here holds.
    multiprocessing.util.register_after_fork(recorder, Recorder.after_fork)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per span name, minus the time its child spans cover."""
    child_time: Dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (
                child_time.get(span["parent"], 0.0)
                + span["end"] - span["start"]
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def counter_sum(spans: List[Dict[str, Any]], name: str, key: str) -> float:
    return sum(
        span.get("counters", {}).get(key, 0.0)
        for span in spans if span["name"] == name
    )


def call_count(spans: List[Dict[str, Any]], name: str) -> int:
    return sum(1 for span in spans if span["name"] == name)


def scaling_exponent(spans: List[Dict[str, Any]], name: str) -> float:
    """Least-squares slope of log(seconds) on log(size) over the calls.

    0.0 when the calls do not span at least two distinct sizes.
    """
    points = [
        (math.log(span["counters"]["size"]),
         math.log(span["end"] - span["start"]))
        for span in spans
        if span["name"] == name
        and span.get("counters", {}).get("size", 0) > 0
        and span["end"] > span["start"]
    ]
    if len({x for x, _y in points}) < 2:
        return 0.0
    mean_x = sum(x for x, _y in points) / len(points)
    mean_y = sum(y for _x, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _y in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


def coverage(spans: List[Dict[str, Any]], prefix: str,
             start: float, end: float) -> float:
    """Share of [start, end] during which some ``prefix`` span is open."""
    intervals = sorted(
        (max(start, s["start"]), min(end, s["end"]))
        for s in spans if s["name"].startswith(prefix)
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered / (end - start) if end > start else 0.0
