"""Turn pass records into the benchmark's named metrics.

End-to-end metrics come from an untraced pass; per-layer metrics from a
traced pass (spans) plus the untraced pass (stage seconds and serve
job-record timestamps, which need no tracing).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

import tracer

Metric = Tuple[float, str]


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def counts(record: Dict[str, Any]) -> Tuple[int, int]:
    ops = record["ops"].values()
    return len(record["ops"]), sum(1 for op in ops if not op["ok"])


def end_to_end(record: Dict[str, Any], setup_s: float,
               peak_rss_mb: float) -> Dict[str, Metric]:
    attempted, failed = counts(record)
    wall = record["end"] - record["start"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "slowest_cell_s": (max(record["cells"].values()), "s"),
        "throughput_rps": (attempted / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _scheduler(record: Dict[str, Any]) -> Dict[str, Metric]:
    wall = record["end"] - record["start"]
    jobs = record["jobs"]
    busy = sum(op["stage_seconds"] for op in record["ops"].values())
    return {
        "flow.scheduler.efficiency": (busy / (jobs * wall), "ratio"),
        "flow.scheduler.overhead_s": (wall - busy / jobs, "s"),
    }


def _serve(record: Dict[str, Any]) -> Dict[str, Metric]:
    ops = [op for op in record["ops"].values() if "admit" in op]
    primaries = [op for op in ops if not op["coalesced"]]
    latencies = [op["seconds"] for op in ops] or [0.0]
    return {
        "serve.latency_p50_s": (percentile(latencies, 0.5), "s"),
        "serve.latency_p90_s": (percentile(latencies, 0.9), "s"),
        "serve.requests": (float(len(ops)), "count"),
        "serve.admit_s": (_median([op["admit"] for op in ops]), "s"),
        "serve.queue_wait_s": (
            _median([op["queue_wait"] for op in primaries]), "s"),
        "serve.exec_hit_s": (_median(
            [op["exec"] for op in primaries if not op["computed"]]), "s"),
        "serve.exec_computed_s": (_median(
            [op["exec"] for op in primaries if op["computed"]]), "s"),
        "serve.notify_s": (_median([op["notify"] for op in ops]), "s"),
        "serve.coalesced": (
            float(sum(1 for op in ops if op["coalesced"])), "count"),
    }


#: (metric, span name) pairs reported as self time.
SELF_TIME = (
    ("synth.extract.s", "synth.extract"),
    ("synth.optimize.s", "synth.optimize"),
    ("synth.map.s", "synth.map"),
    ("synth.compact.s", "synth.compact"),
    ("synth.realize.s", "synth.realize"),
    ("cells.characterize.s", "cells.characterize"),
    ("place.anneal.s", "place.anneal"),
    ("place.buffers.s", "place.buffers"),
    ("timing.sta.s", "timing.sta"),
    ("pack.loop.s", "pack.loop"),
    ("pack.quadrisection.s", "pack.quadrisection"),
    ("route.s", "route"),
    ("flow.keys.s", "flow.keys"),
    ("flow.cache.get_s", "flow.cache.get"),
    ("flow.cache.put_s", "flow.cache.put"),
)

#: (metric, span name, counter) pairs reported as summed counters.
COUNTERS = (
    ("synth.optimize.ands_in", "synth.optimize", "ands_in"),
    ("synth.optimize.ands_out", "synth.optimize", "ands_out"),
    ("synth.map.instances", "synth.map", "instances"),
    ("synth.compact.supernodes", "synth.compact", "supernodes"),
    ("place.anneal.proposed", "place.anneal", "proposed"),
    ("place.anneal.accepted", "place.anneal", "accepted"),
    ("place.buffers.added", "place.buffers", "added"),
    ("route.nets", "route", "nets"),
    ("route.iterations", "route", "iterations"),
    ("route.overused_edges", "route", "overused_edges"),
    ("flow.cache.hits", "flow.cache.get", "hit"),
    ("flow.cache.misses", "flow.cache.get", "miss"),
    ("flow.cache.bytes_read", "flow.cache.get", "bytes"),
    ("flow.cache.bytes_written", "flow.cache.put", "bytes"),
)

EXPONENTS = (
    ("synth.optimize.exponent", "synth.optimize"),
    ("synth.compact.exponent", "synth.compact"),
    ("place.anneal.exponent", "place.anneal"),
)


def per_layer(traced: Dict[str, Any], spans: List[Dict[str, Any]],
              untraced: Dict[str, Any]) -> Dict[str, Metric]:
    own = tracer.self_times(spans)
    out: Dict[str, Metric] = {
        metric: (own.get(name, 0.0), "s") for metric, name in SELF_TIME
    }
    for metric, name, key in COUNTERS:
        unit = "B" if key == "bytes" else "count"
        out[metric] = (tracer.counter_sum(spans, name, key), unit)
    for metric, name in EXPONENTS:
        out[metric] = (tracer.scaling_exponent(spans, name), "slope")
    anneal_s = out["place.anneal.s"][0]
    out["place.anneal.moves_per_s"] = (
        out["place.anneal.proposed"][0] / anneal_s if anneal_s else 0.0,
        "1/s")
    out["timing.sta.calls"] = (
        float(tracer.call_count(spans, "timing.sta")), "count")
    lookups = out["flow.cache.hits"][0] + out["flow.cache.misses"][0]
    out["flow.cache.hit_ratio"] = (
        out["flow.cache.hits"][0] / lookups if lookups else 0.0, "ratio")
    out.update(_scheduler(untraced))
    out.update(_serve(untraced))
    traced_wall = traced["end"] - traced["start"]
    out["trace.overhead_s"] = (
        traced_wall - (untraced["end"] - untraced["start"]), "s")
    out["trace.stage_coverage"] = (tracer.coverage(
        spans, tracer.STAGE_SPAN, traced["start"], traced["end"]), "ratio")
    out["trace.spans"] = (float(len(spans)), "count")
    return out
