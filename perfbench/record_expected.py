"""Record the metrics digests the place-sweep and serve-mix oracles use.

Usage, from the root of a checkout::

    python3 perfbench/record_expected.py

Runs every (design, arch, flow seed) cell the two workloads can draw,
serially and in this process through ``run_design``, and writes
``perfbench/expected/digests.json``.  Re-record only when a change is
meant to alter flow results, and say so where the change is described.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    repo = Path.cwd()
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    (repo / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-",
                                 dir=repo / ".perfbench_work"))
    os.environ["REPRO_CACHE_DIR"] = str(work)
    sys.path[:0] = [str(repo / "src"), str(BENCH_DIR)]
    sys.setrecursionlimit(100_000)
    try:
        import json

        import oracle
        import workloads as w
        from repro.flow.experiments import build_design
        from repro.flow.flow import run_design

        digests = {}
        for designs, scale, seeds in (
            (w.SWEEP_DESIGNS, w.SWEEP_SCALE, w.SWEEP_FLOW_SEEDS),
            (w.SERVE_DESIGNS, w.SERVE_SCALE, w.SERVE_FLOW_SEEDS),
        ):
            for design in designs:
                netlist = build_design(design, scale)
                for arch in w.ARCHES:
                    for seed in seeds:
                        key = w.op_id(design, arch, scale, seed)
                        run = run_design(netlist, arch, w.flow_options(seed))
                        digests[key] = oracle.digest(run.metrics())
                        print(key, digests[key][:12], flush=True)
        out = BENCH_DIR / oracle.EXPECTED_FILE
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"digests": digests}, indent=1,
                                  sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
