"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload matrix-cold --seed 1 \\
        --seconds 35 --trace 0

Every pass runs in a fresh process (``child.py``) against a fresh stage
cache and queue directory under ``.perfbench_work/``, with the ambient
``REPRO_*`` inputs removed.  ``--trace 0`` prints the end-to-end
metrics: set-up runs three times (two set-up-only passes, then the
measured pass) and ``setup_s`` is their median.  ``--trace 1`` runs an
untraced pass and then a traced one, checks that both produced the same
outputs, and prints the per-layer metrics.

``--seconds`` is the timed phase's budget: a workload still running at
three times the budget stops issuing work, and what it did not finish
counts as failed.  The work in a run is fixed (see README.md), so
medians compare like with like across commits.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Lines before it
name each metric with its unit and record the source fingerprint, CPU
count and Python version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import report  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
#: A run must end within 180 s; leave room for teardown.
RUN_DEADLINE_S = 170.0
WORK_ROOT = ".perfbench_work"
#: Environment pinned for every pass.  All other ``REPRO_*`` variables
#: (scale, no-cache, trace, keytrace, lockwatch, SA engine, ...) are
#: removed so an ambient setting cannot change what is measured.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def fingerprint(repo: Path) -> Dict[str, Any]:
    """What was measured, on what: recorded beside every result."""
    digest = hashlib.sha256()
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(repo)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (repo / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def pass_env(repo: Path, work: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env.update({
        "PYTHONPATH": str(repo / "src"),
        "TMPDIR": str(work / "tmp"),
        "REPRO_CACHE_DIR": str(work / "cache"),
        "REPRO_QUEUE_DIR": str(work / "queue"),
        "REPRO_JOURNAL_DIR": str(work / "journals"),
    })
    return env


def run_pass(repo: Path, work: Path, workload: str, seed: int, mode: str,
             traced: bool, budget_s: float, deadline: float
             ) -> Dict[str, Any]:
    """One fresh process, one fresh cache; returns its record."""
    work.mkdir(parents=True)
    spec = {
        "workload": workload, "seed": seed, "mode": mode,
        "traced": traced, "budget_s": budget_s, "repo": str(repo),
        "work": str(work), "out": str(work / "record.json"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = work / "log.txt"
    with log_path.open("w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=repo, env=pass_env(repo, work), stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The pass's server and pool workers share its session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        tail = log_path.read_text(encoding="utf-8")[-4000:]
        reason = "timed out" if code is None else f"exited {code}"
        raise RuntimeError(f"{workload} {mode} pass {reason}:\n{tail}")
    record = json.loads((work / "record.json").read_text(encoding="utf-8"))
    if traced:
        record["spans"] = tracer.load_spans(work / "spans")
    return record


def peak_rss_mb() -> float:
    """Max of this process and every waited-for descendant (Linux KiB)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def measure(args: argparse.Namespace, repo: Path, work: Path
            ) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    budget = 3.0 * args.seconds

    def one(name: str, mode: str, traced: bool) -> Dict[str, Any]:
        return run_pass(repo, work / name, args.workload, args.seed, mode,
                        traced, budget, deadline)

    if args.trace:
        untraced = one("untraced", "run", False)
        traced = one("traced", "run", True)
        spans = traced.pop("spans")
        # The run's work directory goes away; keep the latest trace.
        with (work.parent / f"spans-{args.workload}.jsonl").open(
                "w", encoding="utf-8") as out:
            out.writelines(json.dumps(span) + "\n" for span in spans)
        metrics = report.per_layer(traced, spans, untraced)
        # Both passes' operations count; a traced output that differs
        # from the untraced one fails its operation.
        differs = {
            k for k, op in traced["ops"].items()
            if op.get("digest") != untraced["ops"][k].get("digest")
        }
        ops = list(untraced["ops"].values()) + [
            dict(op, ok=False, error="traced output differs from untraced")
            if k in differs else op
            for k, op in traced["ops"].items()
        ]
    else:
        setups: List[float] = [
            one(f"setup{i}", "setup", False)["setup_s"]
            for i in range(SETUP_REPEATS - 1)
        ]
        record = one("run", "run", False)
        setups.append(record["setup_s"])
        metrics = report.end_to_end(record, statistics.median(setups),
                                    peak_rss_mb())
        ops = list(record["ops"].values())
    failed = sum(1 for op in ops if not op["ok"])
    return {
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": metrics,
        "errors": [op["error"] for op in ops if op.get("error")],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repo = Path.cwd()
    if not (repo / "src" / "repro").is_dir():
        print("perfbench: no src/repro here; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    env = fingerprint(repo)
    work_root = repo / WORK_ROOT
    work = work_root / (f"{args.workload}-s{args.seed}-t{args.trace}-"
                        f"{os.getpid()}-{time.time_ns()}")
    try:
        result = measure(args, repo, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in result["errors"][:10]:
        print(f"failed: {error}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:16.6f} {metric['unit']}")
    print("perfbench-env " + json.dumps(env, sort_keys=True))
    line = {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }
    with (work_root / "results.jsonl").open("a", encoding="utf-8") as log:
        log.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "env": env, **line,
        }) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
