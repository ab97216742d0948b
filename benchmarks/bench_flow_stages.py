"""Per-stage flow microbenchmarks (Figure 6 pipeline costs).

Times each stage of the flow on the ALU at benchmark scale: synthesis +
mapping, logic compaction, physical synthesis (SA placement), packing,
and routing + extraction.  Useful for tracking performance of the CAD
substrates themselves.

Also measures the evaluation-matrix runner end to end — serial vs
``jobs=4`` workers, cold vs warm stage cache — and records the snapshot
in ``results/perf_matrix.txt`` so the speedup is measured, not asserted.

Runnable directly as a wall-time regression guard::

    python benchmarks/bench_flow_stages.py --smoke            # check
    python benchmarks/bench_flow_stages.py --smoke --record   # rebaseline

``--smoke`` times one cold (design, arch) cell and one cold stage-graph
matrix against the recorded baseline in ``benchmarks/perf_baseline.json``
and exits nonzero when any guarded time regresses more than 2x — a
coarse tripwire for accidentally disabling the persistent realization
tables, the annealing kernel, or the stage-graph scheduler.  Every
guarded timing is a **best-of-3**: the minimum is compared against the
budget (the minimum of repeated runs estimates true cost; the max-min
spread is reported so noisy-runner variance is visible instead of
tripping the guard).  The physical (SA placement) stage is additionally
budgeted on its own, so a placement-kernel regression trips the guard
even when the other stages mask it in the total.  ``--json PATH`` writes
the measurements — including per-sample spreads — as JSON for CI
artifact upload; ``--chrome PATH`` records the first matrix run traced
and writes the scheduler's Chrome trace (load in chrome://tracing or
ui.perfetto.dev) for CI upload.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import pytest

from conftest import write_result

from repro.cells.characterize import characterize_library
from repro.cells.library import granular_plb_library
from repro.core.plb import granular_plb
from repro.flow.experiments import build_design
from repro.flow.flow import STAGES, run_design
from repro.flow.options import FlowOptions
from repro.flow.parallel import run_cells
from repro.pack.iterative import run_packing_loop
from repro.place.physical_synthesis import run_physical_synthesis
from repro.route.extract import route_and_extract
from repro.route.grid import RoutingGrid
from repro.synth.compaction import compact
from repro.synth.from_netlist import CombCore, extract_core
from repro.synth.optimize import optimize
from repro.synth.techmap import map_core

ARCH = "granular"
SCALE = 0.5


@pytest.fixture(scope="module")
def stage_artifacts():
    """Run the flow once, capturing each stage's inputs."""
    library = granular_plb_library()
    timing = characterize_library(library)
    arch = granular_plb()
    src = build_design("alu", scale=SCALE)
    core = extract_core(src)
    core = CombCore(
        aig=optimize(core.aig),
        primary_inputs=core.primary_inputs,
        primary_outputs=core.primary_outputs,
        dffs=core.dffs,
    )
    mapped = map_core(core, ARCH, library)
    compacted, _report = compact(mapped, ARCH, library)
    physical = run_physical_synthesis(
        compacted.copy(), library, timing, period=0.5, seed=1, effort=0.1
    )
    return {
        "src": src,
        "core": core,
        "library": library,
        "timing": timing,
        "arch": arch,
        "mapped": mapped,
        "compacted": compacted,
        "physical": physical,
    }


def test_stage_synthesis(benchmark, stage_artifacts):
    src = stage_artifacts["src"]

    def synth():
        core = extract_core(src)
        return optimize(core.aig)

    aig = benchmark(synth)
    assert aig.n_ands() > 0


def test_stage_techmap(benchmark, stage_artifacts):
    core = stage_artifacts["core"]
    library = stage_artifacts["library"]
    mapped = benchmark(lambda: map_core(core, ARCH, library))
    assert len(mapped.instances) > 0


def test_stage_compaction(benchmark, stage_artifacts):
    mapped = stage_artifacts["mapped"]
    library = stage_artifacts["library"]
    _net, report = benchmark(lambda: compact(mapped, ARCH, library))
    assert report.area_after <= report.area_before


def test_stage_placement(benchmark, stage_artifacts):
    compacted = stage_artifacts["compacted"]
    library = stage_artifacts["library"]
    timing = stage_artifacts["timing"]

    result = benchmark.pedantic(
        lambda: run_physical_synthesis(
            compacted.copy(), library, timing, period=0.5, seed=2,
            iterations=1, effort=0.1,
        ),
        rounds=1, iterations=1,
    )
    assert result.timing.critical_path_delay > 0


def test_stage_placement_kernel(benchmark, stage_artifacts):
    """Raw SA move-kernel throughput (moves/s).

    Bypasses the cooling schedule: one fixed-temperature sweep through
    :meth:`AnnealingPlacer.benchmark_kernel`, so the number isolates the
    per-move exact net recompute from the rest of the flow.
    """
    from repro.place.grid import grid_for_netlist
    from repro.place.sa import AnnealingPlacer

    compacted = stage_artifacts["compacted"]
    placer = AnnealingPlacer(
        compacted.copy(), grid_for_netlist(compacted), seed=3
    )
    stats = benchmark.pedantic(
        lambda: placer.benchmark_kernel(KERNEL_MOVES), rounds=1, iterations=1
    )
    assert stats["evaluated"] > 0
    print(f"\nkernel: {stats['moves_per_s']:,.0f} moves/s "
          f"({stats['evaluated']} evaluated, {stats['accepted']} accepted)")


def test_stage_packing(benchmark, stage_artifacts):
    physical = stage_artifacts["physical"]
    packed = benchmark.pedantic(
        lambda: run_packing_loop(
            physical.netlist.copy(), physical.placement,
            stage_artifacts["arch"], stage_artifacts["library"],
            stage_artifacts["timing"], period=0.5, iterations=1,
        ),
        rounds=1, iterations=1,
    )
    assert packed.die_area > 0


def test_stage_routing(benchmark, stage_artifacts):
    physical = stage_artifacts["physical"]
    grid = physical.placement.grid
    routing_grid = RoutingGrid(
        cols=max(2, grid.cols // 3),
        rows=max(2, grid.rows // 3),
        bin_pitch=grid.pitch * 3,
        tracks=28,
    )
    points = physical.placement.net_pin_points(physical.netlist)
    result, model = benchmark.pedantic(
        lambda: route_and_extract(routing_grid, points), rounds=1, iterations=1
    )
    assert result.nets


# ----------------------------------------------------------------------
# End-to-end matrix: serial vs parallel, cold vs warm cache
# ----------------------------------------------------------------------

PERF_CELLS = [(d, a) for d in ("alu", "netswitch") for a in ("granular", "lut")]
PERF_SCALE = 0.4
PERF_OPTIONS = FlowOptions(
    place_effort=0.1, place_iterations=1, pack_iterations=1, seed=7
)

#: Annotations for the per-stage breakdown in results/perf_matrix.txt.
STAGE_LABELS = {"physical": "physical (SA placement)"}


def _timed_matrix(monkeypatch, jobs, cache_dir, schedule="cell"):
    from dataclasses import replace

    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    options = replace(PERF_OPTIONS, schedule=schedule)
    start = time.perf_counter()
    runs = run_cells(PERF_CELLS, PERF_SCALE, options, jobs=jobs)
    return time.perf_counter() - start, runs


def test_design_run_stage_instrumentation(tmp_path, monkeypatch):
    """DesignRun carries per-stage wall times and cache events."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run = run_design(build_design("alu", scale=0.3), ARCH, PERF_OPTIONS)
    assert set(run.stage_seconds) == set(STAGES)
    assert all(seconds >= 0 for seconds in run.stage_seconds.values())
    assert run.cache_stats is not None
    assert "synthesis" in run.performance_report()


def test_matrix_serial_vs_parallel_cold_vs_warm(
    benchmark, tmp_path_factory, monkeypatch
):
    """Measure the matrix runner and snapshot it to results/perf_matrix.txt.

    A warm-cache rerun must beat the cold run by >= 5x (every stage is a
    cache hit), and all configurations — serial, cell pool, stage graph —
    must report identical design metrics (worker count, schedule, and
    cache state never change results).
    """
    serial_dir = tmp_path_factory.mktemp("perf-serial")
    parallel_dir = tmp_path_factory.mktemp("perf-parallel")
    stage_dir = tmp_path_factory.mktemp("perf-stage")

    cold_serial, runs_cold = _timed_matrix(monkeypatch, 1, serial_dir)
    warm_serial, runs_warm = _timed_matrix(monkeypatch, 1, serial_dir)
    cold_parallel, runs_pcold = _timed_matrix(monkeypatch, 4, parallel_dir)
    warm_parallel, runs_pwarm = _timed_matrix(monkeypatch, 4, parallel_dir)
    cold_stage, runs_scold = _timed_matrix(
        monkeypatch, 4, stage_dir, schedule="stage"
    )
    warm_stage, runs_swarm = _timed_matrix(
        monkeypatch, 4, stage_dir, schedule="stage"
    )

    def metrics(runs):
        return [
            (cell, r.flow_a.die_area, r.flow_b.die_area,
             r.flow_a.average_slack, r.flow_b.average_slack)
            for cell, r in runs.items()
        ]

    baseline = metrics(runs_cold)
    assert metrics(runs_warm) == baseline
    assert metrics(runs_pcold) == baseline
    assert metrics(runs_pwarm) == baseline
    assert metrics(runs_scold) == baseline
    assert metrics(runs_swarm) == baseline
    assert warm_serial * 5 <= cold_serial, "warm cache must be >= 5x faster"

    stage_lines = [
        f"  {STAGE_LABELS.get(stage, stage):24s} "
        f"{runs_cold[cell].stage_seconds[stage]:8.3f} s"
        for cell in PERF_CELLS[:1]
        for stage in STAGES
    ]
    text = "\n".join(
        [
            "Evaluation-matrix runner performance "
            f"({len(PERF_CELLS)} cells, scale {PERF_SCALE}, "
            f"{os.cpu_count()} CPU(s) visible)",
            f"{'configuration':26s} {'wall (s)':>10s} {'speedup':>9s}",
            f"{'serial, cold cache':26s} {cold_serial:10.2f} {1.0:9.2f}x",
            f"{'serial, warm cache':26s} {warm_serial:10.2f} "
            f"{cold_serial / warm_serial:9.2f}x",
            f"{'jobs=4 cell, cold cache':26s} {cold_parallel:10.2f} "
            f"{cold_serial / cold_parallel:9.2f}x",
            f"{'jobs=4 cell, warm cache':26s} {warm_parallel:10.2f} "
            f"{cold_serial / warm_parallel:9.2f}x",
            f"{'jobs=4 stage, cold cache':26s} {cold_stage:10.2f} "
            f"{cold_serial / cold_stage:9.2f}x",
            f"{'jobs=4 stage, warm cache':26s} {warm_stage:10.2f} "
            f"{cold_serial / warm_stage:9.2f}x",
            "",
            "cold-run stage breakdown (first cell, alu/granular):",
            *stage_lines,
            "",
            "All configurations produce identical design metrics; parallel",
            "speedup scales with available cores (a 1-CPU runner shows",
            "pool/scheduler overhead instead of wins; the cache rows are",
            "the hardware-independent signal).  The stage rows run the",
            "(cell, stage) task-graph scheduler (repro.flow.scheduler).",
        ]
    )
    print("\n" + text)
    write_result("perf_matrix.txt", text)
    # Give pytest-benchmark a real measurement: one more warm-cache pass.
    benchmark.pedantic(
        lambda: run_cells(PERF_CELLS, PERF_SCALE, PERF_OPTIONS, jobs=1),
        rounds=1, iterations=1,
    )


# ----------------------------------------------------------------------
# Script mode: cold single-cell wall-time regression guard
# ----------------------------------------------------------------------

SMOKE_CELL = ("alu", "granular")
SMOKE_SCALE = 0.3
SMOKE_MATRIX_SCALE = 0.25
SMOKE_MATRIX_JOBS = 4
SMOKE_REPEATS = 3
SMOKE_MAX_REGRESSION = 2.0
KERNEL_MOVES = 20000
BASELINE_PATH = Path(__file__).with_name("perf_baseline.json")


def _best_and_spread(samples):
    """(best, spread): min of the repeats, and max-min as noise estimate."""
    return min(samples), max(samples) - min(samples)


def _time_smoke_cell() -> dict:
    """Cold wall times of one (design, arch) cell in a throwaway cache dir.

    A fresh ``REPRO_CACHE_DIR`` guarantees every stage is computed, not
    loaded, so the numbers track real kernel cost.  One caveat for the
    best-of-3 guard: the realization-table memo is in-process, so only
    the first sample pays table derivation — the minimum measures
    steady-state kernel cost and the derivation shows up in the spread.
    Returns the total wall time plus the physical (SA placement) stage
    on its own, so placement regressions are guarded independently of
    the rest of the flow.
    """
    design, arch = SMOKE_CELL
    netlist = build_design(design, scale=SMOKE_SCALE)
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        start = time.perf_counter()
        run = run_design(netlist, arch, PERF_OPTIONS)
        elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "physical_seconds": run.stage_seconds["physical"],
        "placement": dict(getattr(run.physical, "placement_stats", None) or {}),
    }


def _time_smoke_matrix(chrome_path: str = None) -> float:
    """Cold stage-graph matrix wall time in a throwaway cache dir.

    Runs ``PERF_CELLS`` under ``--schedule stage`` with
    ``SMOKE_MATRIX_JOBS`` workers — the guarded ``matrix_seconds``
    budget.  With ``chrome_path`` the run is traced and the scheduler's
    Chrome trace is written there (observation is inert by contract, so
    the traced sample is still a valid timing; best-of-3 discards any
    residual overhead anyway).
    """
    from dataclasses import replace

    options = PERF_OPTIONS if chrome_path is None else replace(
        PERF_OPTIONS, observe=True
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        start = time.perf_counter()
        run_cells(PERF_CELLS, SMOKE_MATRIX_SCALE, options,
                  jobs=SMOKE_MATRIX_JOBS)
        elapsed = time.perf_counter() - start
    if chrome_path is not None:
        from repro.obs import export as obs_export
        from repro.obs import journal as obs_journal

        events = obs_journal.read_journal(obs_journal.last_journal())
        Path(chrome_path).write_text(
            json.dumps(obs_export.chrome_trace(events)), encoding="utf-8"
        )
        print(f"scheduler chrome trace written to {chrome_path}")
    return elapsed


def _kernel_throughput() -> dict:
    """Moves/s of the raw SA move kernel."""
    from repro.place.grid import grid_for_netlist
    from repro.place.sa import AnnealingPlacer
    from repro.synth.compaction import compact
    from repro.synth.from_netlist import extract_core
    from repro.synth.techmap import map_core

    design, _arch = SMOKE_CELL
    library = granular_plb_library()
    core = extract_core(build_design(design, scale=SMOKE_SCALE))
    mapped = map_core(core, ARCH, library)
    compacted, _report = compact(mapped, ARCH, library)
    placer = AnnealingPlacer(
        compacted.copy(), grid_for_netlist(compacted), seed=3
    )
    return placer.benchmark_kernel(KERNEL_MOVES)


def _traced_smoke_report(repeats: int = 3) -> None:
    """Record a traced smoke journal and print per-stage percentiles.

    Runs the smoke cell ``repeats`` times (first cold, rest warm-cache)
    under one trace session, finalizes a single journal — written to the
    journal dir (``results/journals/`` by default) so CI can upload it —
    and summarizes the ``stage.seconds.*`` histograms from the journal
    itself, exercising the full record -> write -> read -> export path.
    """
    from repro.obs import core as obs_core
    from repro.obs import export as obs_export
    from repro.obs import journal as obs_journal

    design, arch = SMOKE_CELL
    netlist = build_design(design, scale=SMOKE_SCALE)
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        obs_core.begin(label="smoke-bench", repeats=repeats)
        for _ in range(repeats):
            run_design(netlist, arch, PERF_OPTIONS)
        path = obs_journal.finalize("smoke-bench")
    events = obs_journal.read_journal(path)
    histograms = obs_export.merge_histograms(events)
    print(f"\ntraced journal ({repeats} runs, 1 cold): {path}")
    print(f"{'stage':24s} {'count':>5s} {'p50 (s)':>9s} {'p95 (s)':>9s}")
    for name in sorted(histograms):
        if not name.startswith("stage.seconds."):
            continue
        hist = histograms[name]
        stage = name[len("stage.seconds."):]
        print(f"{stage:24s} {hist.count:5d} "
              f"{hist.percentile(50):9.3f} {hist.percentile(95):9.3f}")


def run_smoke(record: bool, json_path: str = None,
              chrome_path: str = None) -> int:
    design, arch = SMOKE_CELL
    cell_samples = [_time_smoke_cell() for _ in range(SMOKE_REPEATS)]
    elapsed, spread = _best_and_spread(
        [s["seconds"] for s in cell_samples]
    )
    physical, physical_spread = _best_and_spread(
        [s["physical_seconds"] for s in cell_samples]
    )
    best = min(cell_samples, key=lambda s: s["seconds"])
    print(f"cold {design}/{arch} cell (scale {SMOKE_SCALE}, "
          f"best of {SMOKE_REPEATS}): {elapsed:.2f} s "
          f"(spread {spread:.2f} s, physical stage {physical:.2f} s)")
    matrix_samples = [
        _time_smoke_matrix(chrome_path if i == 0 else None)
        for i in range(SMOKE_REPEATS)
    ]
    matrix_seconds, matrix_spread = _best_and_spread(matrix_samples)
    print(f"cold stage-graph matrix ({len(PERF_CELLS)} cells, scale "
          f"{SMOKE_MATRIX_SCALE}, jobs {SMOKE_MATRIX_JOBS}, best of "
          f"{SMOKE_REPEATS}): {matrix_seconds:.2f} s "
          f"(spread {matrix_spread:.2f} s)")
    kernel = _kernel_throughput()
    print(f"kernel: {kernel['moves_per_s']:,.0f} moves/s "
          f"({KERNEL_MOVES} proposals)")
    _traced_smoke_report()
    if json_path:
        Path(json_path).write_text(json.dumps({
            "design": design,
            "arch": arch,
            "scale": SMOKE_SCALE,
            "repeats": SMOKE_REPEATS,
            "seconds": round(elapsed, 3),
            "seconds_spread": round(spread, 3),
            "seconds_samples": [
                round(s["seconds"], 3) for s in cell_samples
            ],
            "physical_seconds": round(physical, 3),
            "physical_seconds_spread": round(physical_spread, 3),
            "matrix_seconds": round(matrix_seconds, 3),
            "matrix_seconds_spread": round(matrix_spread, 3),
            "matrix_seconds_samples": [
                round(s, 3) for s in matrix_samples
            ],
            "matrix_cells": len(PERF_CELLS),
            "matrix_scale": SMOKE_MATRIX_SCALE,
            "matrix_jobs": SMOKE_MATRIX_JOBS,
            "placement": best["placement"],
            "kernel_moves_per_s": round(kernel["moves_per_s"], 1),
        }, indent=2) + "\n")
        print(f"measurements written to {json_path}")
    if record:
        BASELINE_PATH.write_text(json.dumps({
            "design": design,
            "arch": arch,
            "scale": SMOKE_SCALE,
            "seconds": round(elapsed, 3),
            "physical_seconds": round(physical, 3),
            "matrix_seconds": round(matrix_seconds, 3),
        }, indent=2) + "\n")
        print(f"baseline recorded to {BASELINE_PATH}")
        return 0
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --record first",
              file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    failed = False

    def guard(label, value, budget):
        nonlocal failed
        if budget is None:
            print(f"note: baseline has no {label}; "
                  "rerun with --record to guard it")
            return
        limit = budget * SMOKE_MAX_REGRESSION
        print(f"{label} baseline {budget:.2f} s, limit {limit:.2f} s "
              f"({SMOKE_MAX_REGRESSION:.0f}x)")
        if value > limit:
            print(f"FAIL: {label} {value:.2f} s exceeds {limit:.2f} s",
                  file=sys.stderr)
            failed = True

    guard("cold cell seconds", elapsed, baseline.get("seconds"))
    guard("placement physical_seconds", physical,
          baseline.get("physical_seconds"))
    guard("stage-graph matrix_seconds", matrix_seconds,
          baseline.get("matrix_seconds"))
    if failed:
        return 1
    print("OK: within budget")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="flow-stage benchmarks (pytest) / perf smoke guard (script)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="time one cold cell against the recorded baseline")
    parser.add_argument("--record", action="store_true",
                        help="with --smoke: (re)write the baseline file")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="with --smoke: write measurements as JSON "
                             "(for CI artifact upload)")
    parser.add_argument("--chrome", metavar="PATH", default=None,
                        help="with --smoke: trace the first matrix run and "
                             "write the scheduler Chrome trace to PATH")
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run under pytest for the benchmarks, "
                     "or pass --smoke for the regression guard")
    return run_smoke(record=args.record, json_path=args.json,
                     chrome_path=args.chrome)


if __name__ == "__main__":
    sys.exit(main())
