"""One pass of one workload in a fresh process.

Usage (``run.py`` does this; the environment it pins matters)::

    python perfbench/child.py SPEC.json

``SPEC.json`` holds ``workload``, ``seed``, ``mode`` (``setup`` or
``run``), ``traced``, ``budget_s``, ``repo``, ``work`` and ``out``.
Writes the pass's record to ``out``.  A fresh process per pass matters:
the flow memoizes the matrix and interns truth tables and realization
tables in-process, so a reused process would time a warm flow.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402  (set-up time starts before any import)
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.setrecursionlimit(100_000)
    work = Path(spec["work"])
    recorder = None
    if spec["traced"]:
        import tracer

        recorder = tracer.Recorder(work / "spans")
        tracer.install(recorder)
    import workloads

    setup_only = spec["mode"] == "setup"
    deadline = _STARTED + float(spec["budget_s"])
    repo = Path(spec["repo"])
    if spec["workload"] == "serve-mix":
        record = workloads.run_serve_mix(
            spec["seed"], deadline, setup_only, repo, work,
            in_process=bool(spec["traced"]),
        )
    else:
        run = {
            "matrix-cold": workloads.run_matrix_cold,
            "place-sweep": workloads.run_place_sweep,
        }[spec["workload"]]
        record = run(spec["seed"], deadline, setup_only, repo)
    record["setup_s"] = record.get("start", time.perf_counter()) - _STARTED
    if recorder is not None:
        recorder.dump()
    Path(spec["out"]).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
