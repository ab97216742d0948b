"""Flow configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict

from ..timing.sta import DEFAULT_CLOCK_PERIOD_NS

#: Performance/observability knobs: the FlowOptions fields that NEVER
#: change computed results and are therefore excluded from stage cache
#: keys (and, by construction, from ``request_key`` coalescing).  This
#: frozenset is the single source of truth for that contract — the key
#: builders in :mod:`repro.flow.flow`, the submittable-option list in
#: :mod:`repro.serve.jobs`, and the ``CK`` static-analysis family in
#: :mod:`repro.check.cachekey` all derive from (or are checked against)
#: it.  Adding a field here is a *claim* that cached and fresh runs are
#: bit-identical under any value of the field; ``repro check --rules CK``
#: and the key-sensitivity property test enforce the claim.
PERF_KNOBS = frozenset({
    "jobs", "schedule", "use_cache", "observe", "check",
})


@dataclass(frozen=True)
class FlowOptions:
    """Knobs for one flow run (defaults match the paper's setup).

    ``arch`` is ``"lut"`` or ``"granular"``.  ``place_effort`` scales the
    annealing move budget (1.0 = full VPR schedule); experiment drivers
    lower it for large designs to keep pure-Python runtimes sane — the
    comparison is differential, so both architectures always run with
    identical effort.

    ``jobs`` is the worker count for the parallel experiment-matrix
    runner (1 = serial, the exact legacy path); results are identical
    for any worker count because every stage is deterministic per seed.
    ``schedule`` picks the parallel decomposition: ``"stage"`` (default)
    runs the matrix as a pipelined (cell, stage) task DAG
    (:mod:`repro.flow.scheduler`); ``"cell"`` is the legacy
    whole-cell-per-worker pool.  ``use_cache`` enables the
    content-addressed stage cache (see :mod:`repro.flow.cache`).  None
    of these knobs affects computed results — serial, cell, and stage
    runs are bit-identical at any worker count.

    ``observe`` turns on the :mod:`repro.obs` tracing subsystem for the
    run: spans, metrics, and cache events are recorded and written to a
    JSONL journal (also enabled by ``--trace`` / ``REPRO_TRACE``).  Like
    the performance knobs it never changes computed results — traced and
    untraced runs are bit-identical — and it is excluded from stage
    cache keys.

    ``check`` runs the fatal-severity subset of :mod:`repro.check` at
    every flow stage boundary (``--check`` on the CLI); a fatal finding
    aborts the run with :class:`repro.check.CheckError`.  Audits only
    read stage artifacts, so this too never changes computed results.

    ``utilization`` is the flow-a standard-cell utilization target: die
    sizing inflates total cell area by ``1/utilization`` when building
    the placement grid.  It is a *semantic* knob (placement and die area
    depend on it), so it participates in the ``physical`` stage cache
    key.  The :data:`PERF_KNOBS` frozenset above is the authoritative
    list of fields that do NOT participate in cache keys.
    """

    arch: str = "granular"
    period: float = DEFAULT_CLOCK_PERIOD_NS
    seed: int = 0
    opt_effort: int = 1
    run_compaction: bool = True
    place_iterations: int = 2
    place_effort: float = 1.0
    pack_iterations: int = 2
    pack_headroom: float = 1.15
    utilization: float = 0.70
    routing_tracks: int = 28
    routing_bins_per_side: int = 12
    jobs: int = 1
    schedule: str = "stage"
    use_cache: bool = True
    observe: bool = False
    check: bool = False

    def with_arch(self, arch: str) -> "FlowOptions":
        from dataclasses import replace

        return replace(self, arch=arch)

    # -- JSON round-trip (job submissions, ``repro.serve``) ------------
    def to_dict(self) -> Dict[str, Any]:
        """The options as a plain JSON-ready dict (field name -> value)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlowOptions":
        """Rebuild options from a (possibly partial) JSON dict.

        Unknown keys raise :class:`ValueError` — a typo in a job
        submission must be rejected at admission, not silently ignored
        (it would change which cache chain the request coalesces onto).
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown flow option(s) {unknown} "
                f"(choices: {sorted(known)})"
            )
        return cls(**data)
