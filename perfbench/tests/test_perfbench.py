"""Fast checks of the benchmark itself (no full workload runs).

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import report
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

FULLSCALE = (REPO / "results_fullscale.txt").read_text(encoding="utf-8")
CELLS = workloads.matrix_inputs(1)


def _record(ops, jobs=2):
    return {"start": 10.0, "end": 20.0, "jobs": jobs, "ops": ops,
            "cells": {"alu/lut": 4.0, "fpu/lut": 9.0}}


def _cell_op(ok=True, seconds=3.0):
    return {"ok": ok, "seconds": seconds, "stage_seconds": seconds,
            "cell_seconds": seconds, "digest": "d"}


def _serve_op(ok=True, coalesced=False, computed=False):
    return dict(_cell_op(ok, 0.2), admit=0.01, queue_wait=0.0, exec=0.1,
                notify=0.02, coalesced=coalesced, computed=computed)


# -- failure accounting ----------------------------------------------------

class TestOracle:
    def test_fullscale_tables_match_themselves(self):
        tables = oracle.paper_sections(FULLSCALE)
        assert tables.startswith("Table 1")
        assert tables.splitlines()[-1].startswith("  average: ")
        assert oracle.wrong_cells(tables, tables, CELLS) == set()

    def test_corrupted_table_row_fails_that_design(self):
        tables = oracle.paper_sections(FULLSCALE)
        bad = tables.replace("fpu                 31349",
                             "fpu                 31350")
        assert bad != tables
        assert oracle.wrong_cells(bad, tables, CELLS) == {
            ("fpu", "granular"), ("fpu", "lut")}

    def test_corrupted_compaction_row_fails_that_cell(self):
        tables = oracle.paper_sections(FULLSCALE)
        bad = tables.replace("  alu          lut         3.7%",
                             "  alu          lut         3.8%")
        assert oracle.wrong_cells(bad, tables, CELLS) == {("alu", "lut")}

    def test_corrupted_summary_line_fails_every_cell(self):
        tables = oracle.paper_sections(FULLSCALE)
        bad = tables.replace("average slack improvement: 23.8%",
                             "average slack improvement: 23.9%")
        assert oracle.wrong_cells(bad, tables, CELLS) == set(CELLS)

    def test_corrupted_digest_is_an_error(self):
        check = oracle.digest_check({"alu/lut/1.0/3": "a" * 64})
        assert check("alu/lut/1.0/3", "a" * 64) is None
        assert "recorded" in check("alu/lut/1.0/3", "b" * 64)
        assert "no recorded digest" in check("alu/lut/1.0/4", "a" * 64)

    def test_digest_ignores_key_types_and_order(self):
        assert (oracle.digest({1: 2.5, "b": [1, 2]})
                == oracle.digest({"b": [1, 2], "1": 2.5}))

    def test_failed_ops_count(self):
        record = _record({"a": _cell_op(), "b": _cell_op(ok=False),
                          "c": _cell_op(), "d": _cell_op()})
        assert report.counts(record) == (4, 1)
        metrics = report.end_to_end(record, 1.0, 100.0)
        assert metrics["ok_frac"][0] == 0.75
        assert metrics["slowest_cell_s"][0] == 9.0

    def test_wrong_digest_and_missing_run_fail_their_cells(self):
        class Run:
            total_seconds = 2.0

            def metrics(self):
                return {"die_area_um2": 1.0}

        good = oracle.digest(Run().metrics())
        check = oracle.digest_check({
            "alu/lut/1.0/1": good, "fpu/lut/1.0/1": "0" * 64,
        })
        ops = workloads._cell_ops(
            [("alu", "lut"), ("fpu", "lut"), ("alu", "granular")],
            {("alu", "lut"): Run(), ("fpu", "lut"): Run()},
            1.0, 1, check, missing="boom",
        )
        assert [op["ok"] for op in ops.values()] == [True, False, False]
        assert ops["alu/granular/1.0/1"]["error"] == "boom"
        assert report.counts(_record(ops)) == (3, 2)

    def test_cell_seconds_sum_a_cell_over_its_seeds(self):
        ops = {
            "alu/lut/1.0/1": _cell_op(seconds=2.0),
            "alu/lut/1.0/2": _cell_op(seconds=3.0),
            "007:fpu/lut/0.5/1": dict(_cell_op(), cell_seconds=0.0),
            "008:fpu/lut/0.5/2": dict(_cell_op(), cell_seconds=1.5),
        }
        assert workloads._cell_seconds(ops) == {"alu/lut": 5.0,
                                                "fpu/lut": 1.5}

    def test_every_drawable_key_has_a_recorded_digest(self):
        expected = oracle.load_expected(BENCH_DIR)
        for seed in range(5):
            spec = workloads.sweep_inputs(seed)
            for design, arch in spec["cells"]:
                for flow_seed in spec["flow_seeds"]:
                    assert workloads.op_id(design, arch, 1.0,
                                           flow_seed) in expected
            for design, arch, flow_seed in workloads.serve_inputs(seed):
                assert workloads.op_id(design, arch, 0.5,
                                       flow_seed) in expected


# -- seeded inputs ---------------------------------------------------------

class TestInputs:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, workload):
        assert workloads.inputs(workload, 5) == workloads.inputs(workload, 5)

    @pytest.mark.parametrize("workload", ["place-sweep", "serve-mix"])
    def test_seeds_differ(self, workload):
        drawn = {json.dumps(workloads.inputs(workload, s))
                 for s in range(6)}
        assert len(drawn) > 1

    def test_inputs_do_not_depend_on_the_process(self):
        code = ("import json, workloads; print(json.dumps("
                "[workloads.inputs(w, 3) for w in workloads.WORKLOADS]))")
        env = dict(os.environ, PYTHONHASHSEED="123")
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=BENCH_DIR, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        here = [workloads.inputs(w, 3) for w in workloads.WORKLOADS]
        assert json.loads(out) == json.loads(json.dumps(here))

    def test_serve_mix_shape(self):
        requests = workloads.serve_inputs(2)
        assert len(requests) >= 100
        assert len(set(requests)) == 16
        block = 2 + workloads.SERVE_HITS
        seen = set()
        for start in range(0, len(requests), block):
            new, again, *hits = requests[start:start + block]
            assert new == again and new not in seen
            seen.add(new)
            assert set(hits) <= seen

    def test_matrix_is_the_paper_matrix_for_any_seed(self):
        assert workloads.matrix_inputs(9) == workloads.matrix_inputs(1)
        assert sorted(workloads.matrix_inputs(9)) == sorted(
            (d, a) for d in workloads.MATRIX_DESIGNS
            for a in workloads.ARCHES)


# -- metric names ----------------------------------------------------------

def _declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


class TestNames:
    def test_benchmark_json_shape(self):
        assert [w["name"] for w in DECLARED["workloads"]] == list(
            workloads.WORKLOADS)
        assert set(DECLARED["paths"]) == {"perfbench"}
        names = list(_declared("end_to_end")) + list(_declared("per_layer"))
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)

    def test_end_to_end_names_and_units(self):
        for ops in ({"a": _cell_op()},
                    {"a": _serve_op(), "b": _serve_op(coalesced=True)}):
            metrics = report.end_to_end(_record(ops), 1.0, 100.0)
            assert {k: u for k, (_v, u) in metrics.items()} == _declared(
                "end_to_end")

    def test_per_layer_names_and_units(self):
        spans = [
            {"id": "1:0", "parent": None, "name": "stage.synthesis",
             "start": 11.0, "end": 19.0, "tag": None, "pid": 1},
            {"id": "1:1", "parent": "1:0", "name": "synth.optimize",
             "start": 12.0, "end": 13.0, "tag": None, "pid": 1,
             "counters": {"ands_in": 10.0, "ands_out": 8.0, "size": 10.0}},
        ]
        ops = {"a": _serve_op(computed=True), "b": _serve_op()}
        metrics = report.per_layer(_record(ops), spans, _record(ops))
        assert {k: u for k, (_v, u) in metrics.items()} == _declared(
            "per_layer")
        assert metrics["trace.stage_coverage"][0] == pytest.approx(0.8)
        assert metrics["synth.optimize.s"][0] == pytest.approx(1.0)


# -- tracing ---------------------------------------------------------------

def test_traced_flow_emits_every_layer(tmp_path):
    """A small traced flow run: every wrapped layer records spans."""
    code = f"""
import sys
sys.path[:0] = [{str(BENCH_DIR)!r}, {str(REPO / "src")!r}]
sys.setrecursionlimit(100000)
import json, tracer
from pathlib import Path
recorder = tracer.Recorder(Path({str(tmp_path)!r}))
tracer.install(recorder)
from repro.flow.experiments import default_options
from repro.flow.parallel import run_cells
run_cells([("alu", "granular")], 0.2, default_options(), jobs=1)
print(json.dumps(sorted({{s["name"] for s in recorder.spans}})))
"""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    names = set(json.loads(out.splitlines()[-1]))
    layers = {name for _m, name in report.SELF_TIME} - {"synth.realize"}
    assert layers <= names, layers - names
    assert {f"stage.{s}" for s in ("synthesis", "physical", "route_a",
                                   "packing", "route_b")} <= names


# -- lint floor ------------------------------------------------------------

@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_floor():
    proc = subprocess.run(["ruff", "check", "perfbench"], cwd=REPO,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
