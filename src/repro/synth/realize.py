"""Realizations: concrete component-cell structures for small functions.

A :class:`Realization` is a micro-netlist template — an ordered list of
component-cell steps over up to three *leaf* signals — that implements one
Boolean function.  Realization tables are precomputed per target library
by **forward enumeration** of each structure's via-configuration space
(never by per-function search), then deduplicated keeping the
cheapest-area entry per function.

Two structure families exist per architecture:

* *baseline* structures — what a conventional technology mapper (the
  Design Compiler role) uses: single cells plus plain two-gate NAND
  decompositions and explicit inverters;
* *compaction* structures — additionally the paper's granular PLB
  configurations (NDMX, XOAMX, XOANDMX) and, for the LUT architecture,
  whole-function LUT3 collapsing.  Logic compaction uses the union.

Steps reference their inputs as ``("leaf", i)`` or ``("step", j)``; the
last step is the output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..cells.celltypes import (
    CellType,
    make_buf,
    make_inv,
    make_lut3,
    make_mux2,
    make_nd2wi,
    make_nd3wi,
    make_xoa,
)
from ..logic.truthtable import TruthTable, mux_mask
from ..obs import core as _obs

Ref = Tuple[str, int]  # ("leaf", index) or ("step", index)


@dataclass(frozen=True)
class Step:
    """One cell instantiation inside a realization."""

    cell_name: str
    config: TruthTable
    refs: Tuple[Ref, ...]


@dataclass(frozen=True)
class Realization:
    """A component-cell structure implementing ``function`` over leaves."""

    function: TruthTable
    steps: Tuple[Step, ...]
    area: float
    levels: int
    structure: str  # e.g. "ND3", "NDMX", "XOAMX", "LUT3", "ND2+ND2"

    @property
    def n_cells(self) -> int:
        return len(self.steps)


# ----------------------------------------------------------------------
# Truth-table masks
# ----------------------------------------------------------------------
# Candidates are enumerated on int masks in TruthTable's row convention
# (n <= 3 leaves); a TruthTable is built only for a winner's function.

_FULL_MASKS = tuple((1 << (1 << n)) - 1 for n in range(4))

#: ``_SUPPORT_SIZE[n][mask]``: how many inputs an ``n``-input function uses.
_SUPPORT_SIZE = tuple(
    tuple(len(TruthTable(n, mask).support()) for mask in range(full + 1))
    for n, full in enumerate(_FULL_MASKS)
)

#: ``_LITERAL_MASKS[n][code]`` for literal codes ``2 * leaf + inverted``
#: (``a, ~a, b, ~b, ...``).
_LITERAL_MASKS = tuple(
    tuple(
        TruthTable.input_var(n, leaf).mask ^ inv
        for leaf in range(n)
        for inv in (0, full)
    )
    for n, full in enumerate(_FULL_MASKS)
)

#: Per literal code: the leaf's bit when the literal is inverted, else 0.
_INV_LEAF = tuple((code & 1) << (code >> 1) for code in range(6))
_POPCOUNT = tuple(bin(bits).count("1") for bits in range(8))


def _compose_mask(config: int, subs: Sequence[int], full: int) -> int:
    """:meth:`TruthTable.compose` on masks.

    ``config`` is a function of ``len(subs)`` inputs; input ``i`` is
    replaced by the function ``subs[i]`` over the rows of ``full``.
    """
    out = 0
    for row in range(1 << len(subs)):
        if (config >> row) & 1:
            minterm = full
            for i, sub in enumerate(subs):
                minterm &= sub if (row >> i) & 1 else sub ^ full
            out |= minterm
    return out


#: A structure's step before resolution: ``(cell_name, config, refs)`` with
#: refs ``("lit", code)`` for the leaf literal ``code = 2 * leaf +
#: inverted``, ``("core", j)`` for core step ``j``'s output and
#: ``("inv-core", j)`` for its complement.
CoreStep = Tuple[str, TruthTable, Tuple[Tuple[str, int], ...]]
#: A resolved step as a plain tuple: ``(cell_name, config, refs)``.
PlanStep = Tuple[str, TruthTable, Tuple[Ref, ...]]


class _TableBuilder:
    """Accumulates the cheapest realization per (n_inputs, mask).

    Enumerators test a candidate by its mask, area and levels alone and
    assemble a :class:`Realization` only when it wins.  The first
    candidate wins ties, so the enumeration order fixes both the entries
    and the table's insertion order.
    """

    def __init__(self) -> None:
        self.table: Dict[Tuple[int, int], Realization] = {}
        self.candidates = 0  # full-support structures tested
        self.assembled = 0  # Realizations built for winners

    def wins(self, n: int, mask: int, area: float, levels: int) -> bool:
        """True when a structure computing ``mask`` beats its key's entry.

        Only structures that depend on all ``n`` leaves are candidates.
        """
        if _SUPPORT_SIZE[n][mask] != n:
            return False
        self.candidates += 1
        existing = self.table.get((n, mask))
        return (
            existing is None
            or (area, levels) < (existing.area, existing.levels)
        )

    def put(
        self,
        n: int,
        mask: int,
        structure: str,
        core_steps: Sequence[CoreStep],
        area: float,
        levels: int,
    ) -> None:
        """Assemble a winning candidate and file it under its key."""
        self.assembled += 1
        self.table[(n, mask)] = Realization(
            function=TruthTable(n, mask),
            steps=tuple(Step(*step) for step in _plan(core_steps)),
            area=area,
            levels=levels,
            structure=structure,
        )


@lru_cache(maxsize=1)
def _step_areas() -> Dict[str, float]:
    """Area per realizable cell name (computed once; cells are fixed)."""
    return {
        "BUF": make_buf().area,
        "INV": make_inv().area,
        "ND2WI": make_nd2wi().area,
        "ND3WI": make_nd3wi().area,
        "MUX2": make_mux2().area,
        "XOA": make_xoa().area,
        "LUT3": make_lut3().area,
    }


def _area(cells: Sequence[str]) -> float:
    """Area of a step plan from its cell names, summed in step order."""
    areas = _step_areas()
    return sum(areas[name] for name in cells)


@lru_cache(maxsize=None)
def _mux_areas(prefix: Tuple[str, ...]) -> Tuple[float, ...]:
    """Area of ``prefix`` + ``k`` INV steps + a MUX2, indexed by ``k``."""
    return tuple(_area(prefix + ("INV",) * k + ("MUX2",)) for k in range(4))


_INV_CONFIG = ~TruthTable.input_var(1, 0)
_MUX_CONFIG = TruthTable.mux(*TruthTable.inputs(3))


def _plan(core_steps: Sequence[CoreStep]) -> List[PlanStep]:
    """Resolve core steps into a realization's step list.

    Every complemented source (a negative literal or an ``inv-core`` ref)
    gets one INV step, appended just before the first step that uses it.
    """
    steps: List[PlanStep] = []
    step_of: Dict[int, int] = {}  # core index -> step index
    inverter: Dict[Ref, int] = {}  # source -> step index of its INV
    for j, (cell_name, config, refs) in enumerate(core_steps):
        resolved: List[Ref] = []
        for kind, index in refs:
            if kind == "lit":
                source: Ref = ("leaf", index >> 1)
                inverted = bool(index & 1)
            else:
                source = ("step", step_of[index])
                inverted = kind == "inv-core"
            if inverted:
                if source not in inverter:
                    steps.append(("INV", _INV_CONFIG, (source,)))
                    inverter[source] = len(steps) - 1
                source = ("step", inverter[source])
            resolved.append(source)
        steps.append((cell_name, config, tuple(resolved)))
        step_of[j] = len(steps) - 1
    return steps


def _lit_refs(*codes: int) -> Tuple[Tuple[str, int], ...]:
    return tuple(("lit", code) for code in codes)


# ----------------------------------------------------------------------
# Structure enumerators (forward)
# ----------------------------------------------------------------------

def _offer_inv_buf(builder: _TableBuilder) -> None:
    for cell_name, config in (
        ("INV", _INV_CONFIG), ("BUF", TruthTable.input_var(1, 0))
    ):
        area = _area((cell_name,))
        if builder.wins(1, config.mask, area, 1):
            builder.put(
                1, config.mask, cell_name,
                ((cell_name, config, _lit_refs(0)),), area, 1,
            )


def _offer_gate_singles(
    builder: _TableBuilder, cell: CellType, structure: str, n: int
) -> None:
    """Single ND2WI/ND3WI over positive leaf sources (ties allowed).

    Polarity is free inside the cell, so only positive leaves are wired;
    the cell's feasible configs supply the rest.
    """
    assert cell.feasible is not None
    full, lits = _FULL_MASKS[n], _LITERAL_MASKS[n]
    area = _area((cell.name,))
    for codes in itertools.product(range(0, 2 * n, 2), repeat=len(cell.pins)):
        subs = [lits[code] for code in codes]
        for config in cell.feasible:
            mask = _compose_mask(config.mask, subs, full)
            if builder.wins(n, mask, area, 1):
                builder.put(
                    n, mask, structure,
                    ((cell.name, config, _lit_refs(*codes)),), area, 1,
                )


def _offer_mux_singles(builder: _TableBuilder, n: int) -> None:
    """Single MUX2 over literals (INV steps supply negative polarity)."""
    full, lits = _FULL_MASKS[n], _LITERAL_MASKS[n]
    areas = _mux_areas(())
    for s, d0, d1 in itertools.product(range(2 * n), repeat=3):
        mask = mux_mask(lits[s], lits[d0], lits[d1], full)
        area = areas[_POPCOUNT[_INV_LEAF[s] | _INV_LEAF[d0] | _INV_LEAF[d1]]]
        if builder.wins(n, mask, area, 1):
            builder.put(
                n, mask, "MX",
                (("MUX2", _MUX_CONFIG, _lit_refs(s, d0, d1)),), area, 1,
            )


def _gate_inner_options(cell: CellType) -> List[Tuple[int, CoreStep]]:
    """Distinct ND2WI/ND3WI outputs over positive leaves, with core steps."""
    assert cell.feasible is not None
    lits = _LITERAL_MASKS[3]
    seen: Dict[int, CoreStep] = {}
    for codes in itertools.product((0, 2, 4), repeat=len(cell.pins)):
        subs = [lits[code] for code in codes]
        for config in cell.feasible:
            mask = _compose_mask(config.mask, subs, 0xFF)
            if mask not in seen:
                seen[mask] = (cell.name, config, _lit_refs(*codes))
    return list(seen.items())


def _mux_inner_options(cell_name: str) -> List[Tuple[int, int, CoreStep]]:
    """Distinct inner-mux outputs, each wired with the fewest inverted pins.

    Entries are ``(mask, inverted-leaf bits, core step)``.
    """
    lits = _LITERAL_MASKS[3]
    best: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    for codes in itertools.product(range(6), repeat=3):
        s, d0, d1 = codes
        mask = mux_mask(lits[s], lits[d0], lits[d1], 0xFF)
        n_inv = (s & 1) + (d0 & 1) + (d1 & 1)
        if mask not in best or n_inv < best[mask][0]:
            best[mask] = (n_inv, codes)
    return [
        (
            mask,
            _INV_LEAF[codes[0]] | _INV_LEAF[codes[1]] | _INV_LEAF[codes[2]],
            (cell_name, _MUX_CONFIG, _lit_refs(*codes)),
        )
        for mask, (_, codes) in best.items()
    ]


def _offer_two_gate_nand(builder: _TableBuilder) -> None:
    """ND2WI feeding one input of another ND2WI (plain DC decomposition)."""
    cell = make_nd2wi()
    assert cell.feasible is not None
    lits = _LITERAL_MASKS[3]
    area = _area(("ND2WI", "ND2WI"))
    for inner, inner_step in _gate_inner_options(cell):
        for other in (0, 2, 4):
            for config in cell.feasible:
                mask = _compose_mask(config.mask, (inner, lits[other]), 0xFF)
                if builder.wins(3, mask, area, 2):
                    builder.put(
                        3, mask, "ND2+ND2",
                        (inner_step,
                         ("ND2WI", config, (("core", 0), ("lit", other)))),
                        area, 2,
                    )


#: One wiring of the outer mux's data pins: ``(d0 mask, d1 mask, (d0 ref,
#: d1 ref), inverted-leaf bits, complemented cores)``.
_Legs = Tuple[int, int, Tuple[Tuple[str, int], ...], int, int]


def _literal_legs(core: int) -> List[_Legs]:
    """Core step 0 on one data pin and a literal on the other, both orders."""
    legs: List[_Legs] = []
    for other in range(6):
        lit, inv = _LITERAL_MASKS[3][other], _INV_LEAF[other]
        legs.append((core, lit, (("core", 0), ("lit", other)), inv, 0))
        legs.append((lit, core, (("lit", other), ("core", 0)), inv, 0))
    return legs


def _offer_outer_mux(
    builder: _TableBuilder,
    structure: str,
    inner_steps: Tuple[CoreStep, ...],
    prefix_inv: int,
    legs: Sequence[_Legs],
) -> None:
    """A MUX2 selected by a literal, its data pins wired as in ``legs``.

    The step list starts with the inverters of the leaves in
    ``prefix_inv`` (only the first inner step takes negative literals)
    and the ``inner_steps``; the outer mux's new inverters follow, then
    the mux itself.
    """
    prefix = ("INV",) * _POPCOUNT[prefix_inv] + tuple(
        step[0] for step in inner_steps
    )
    areas = _mux_areas(prefix)
    lits = _LITERAL_MASKS[3]
    for s in range(6):
        select, select_inv = lits[s], _INV_LEAF[s]
        for d0, d1, refs, leg_inv, inv_cores in legs:
            mask = mux_mask(select, d0, d1, 0xFF)
            new_inv = (select_inv | leg_inv) & ~prefix_inv
            area = areas[_POPCOUNT[new_inv] + inv_cores]
            if builder.wins(3, mask, area, 2):
                outer = ("MUX2", _MUX_CONFIG, (("lit", s),) + refs)
                builder.put(
                    3, mask, structure, inner_steps + (outer,), area, 2
                )


def _offer_ndmx(builder: _TableBuilder) -> None:
    """Config 3 — MUX2 with one data leg from an ND2WI."""
    for inner, inner_step in _gate_inner_options(make_nd2wi()):
        _offer_outer_mux(
            builder, "NDMX", (inner_step,), 0, _literal_legs(inner)
        )


def _offer_xoamx(builder: _TableBuilder, inner_cell: str) -> None:
    """Config 4 — MUX2 with one data leg from the XOA mux.

    Includes the both-legs wiring (inner and inverted inner) that realizes
    the 3-input XOR/XNOR with two muxes and an inverter.
    """
    for inner, inner_inv, inner_step in _mux_inner_options(inner_cell):
        complement = inner ^ 0xFF
        legs = _literal_legs(inner) + [
            (inner, complement, (("core", 0), ("inv-core", 0)), 0, 1),
            (complement, inner, (("inv-core", 0), ("core", 0)), 0, 1),
        ]
        _offer_outer_mux(builder, "XOAMX", (inner_step,), inner_inv, legs)


def _offer_xoandmx(builder: _TableBuilder, inner_cell: str) -> None:
    """Config 5 — MUX2 fed by the XOA mux and an ND3WI gate."""
    nd3_inner = _gate_inner_options(make_nd3wi())
    for mux_out, mux_inv, mux_step in _mux_inner_options(inner_cell):
        for nd3_out, nd3_step in nd3_inner:
            legs = (
                (mux_out, nd3_out, (("core", 0), ("core", 1)), 0, 0),
                (nd3_out, mux_out, (("core", 1), ("core", 0)), 0, 0),
            )
            _offer_outer_mux(
                builder, "XOANDMX", (mux_step, nd3_step), mux_inv, legs
            )


def _offer_lut3(builder: _TableBuilder, n: int) -> None:
    """Whole-function LUT3 collapse (LUT architecture only)."""
    area = _area(("LUT3",))
    refs = _lit_refs(*range(0, 2 * n, 2), *(0,) * (3 - n))  # tie unused pins
    for mask in range(_FULL_MASKS[n] + 1):
        if builder.wins(n, mask, area, 1):
            builder.put(
                n, mask, "LUT3",
                (("LUT3", TruthTable(n, mask).extend(3), refs),), area, 1,
            )

# ----------------------------------------------------------------------
# Public tables
# ----------------------------------------------------------------------

#: Component cells that realization structures can instantiate.
REALIZABLE_CELLS = frozenset(
    {"INV", "BUF", "ND2WI", "ND3WI", "MUX2", "XOA", "LUT3"}
)

#: Cell sets of the paper's two architectures (for the legacy string API).
_ARCH_CELLS = {
    "lut": frozenset({"INV", "BUF", "ND2WI", "ND3WI", "LUT3"}),
    "granular": frozenset({"INV", "BUF", "ND2WI", "ND3WI", "MUX2", "XOA"}),
}


def _resolve_cells(arch) -> frozenset:
    """Accept an architecture name, a cell set, or a Library."""
    if isinstance(arch, str):
        if arch not in _ARCH_CELLS:
            raise ValueError(f"unknown architecture {arch!r}")
        return _ARCH_CELLS[arch]
    if isinstance(arch, (set, frozenset)):
        return frozenset(arch) & REALIZABLE_CELLS
    # Library-like: anything exposing cell_names().
    return frozenset(arch.cell_names()) & REALIZABLE_CELLS


#: Bump whenever table construction changes in a way that alters entries;
#: it keys the persisted tables, so stale on-disk copies are never reused.
TABLE_BUILDER_VERSION = 1


def _library_fingerprint(cells: frozenset) -> Tuple:
    """Stable description of every cell a table can instantiate.

    Persisted tables are keyed on this (plus the builder version), so any
    change to a cell's area, pins, or feasible-function set invalidates
    them — the on-disk table can go stale only if the *builder code*
    changes without a version bump.
    """
    from ..cells.celltypes import standard_cells

    library = standard_cells()
    out = []
    for name in sorted(cells | {"INV", "BUF"}):
        cell = library[name]
        feasible = tuple(sorted(
            (t.n_inputs, t.mask) for t in (cell.feasible or ())
        ))
        out.append((cell.name, cell.pins, cell.area, feasible))
    return tuple(out)


def _build_table(cells: frozenset, composite: bool) -> _TableBuilder:
    """Forward-enumerate every structure family available to ``cells``."""
    builder = _TableBuilder()
    _offer_inv_buf(builder)
    if "ND2WI" in cells:
        for n in (2, 3):
            _offer_gate_singles(builder, make_nd2wi(), "ND2", n)
        _offer_two_gate_nand(builder)
    if "ND3WI" in cells:
        for n in (2, 3):
            _offer_gate_singles(builder, make_nd3wi(), "ND3", n)
    if "MUX2" in cells:
        for n in (2, 3):
            _offer_mux_singles(builder, n)
    if "LUT3" in cells:
        _offer_lut3(builder, 2)
        _offer_lut3(builder, 3)
    if composite:
        inner_mux = "XOA" if "XOA" in cells else "MUX2"
        if "MUX2" in cells and "ND2WI" in cells:
            _offer_ndmx(builder)
        if "MUX2" in cells:
            _offer_xoamx(builder, inner_mux)
        if "MUX2" in cells and "ND3WI" in cells:
            _offer_xoandmx(builder, inner_mux)
    return builder


@lru_cache(maxsize=None)
def table_for_cells(
    cells: frozenset, composite: bool
) -> Dict[Tuple[int, int], Realization]:
    """Realization table for an arbitrary component-cell set.

    ``composite=False`` gives the conventional-mapper (baseline) subset;
    ``composite=True`` adds the paper's compaction structures (NDMX /
    XOAMX / XOANDMX where the required muxes exist, whole-function LUT3
    collapse where a LUT exists).  This generalization lets the full flow
    run on *custom* PLB architectures — the paper's proposed future work.

    Tables are deterministic functions of the cell set and the component
    cells' definitions, so beyond the in-process ``lru_cache`` they are
    *persisted* through the content-addressed stage cache
    (:mod:`repro.flow.cache`): a warm run — or a fresh
    ``ProcessPoolExecutor`` worker — unpickles the finished table instead
    of re-enumerating its candidate structures (27,202 for the granular
    compaction table, 28,808 over the paper's four).  Keyed on the library
    fingerprint plus :data:`TABLE_BUILDER_VERSION`; honors
    ``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR`` like every other stage.
    """
    # Deferred import: repro.flow's package init pulls in the synthesis
    # stack (including this module), so a top-level import would cycle.
    from ..flow.cache import StageCache

    with _obs.span(
        "realize.table",
        cells=",".join(sorted(cells)),
        composite=bool(composite),
    ) as sp:
        store = StageCache()
        key = store.key(
            "realize_table",
            TABLE_BUILDER_VERSION,
            sorted(cells),
            bool(composite),
            _library_fingerprint(cells),
        )
        table = store.get("realize_table", key)
        loaded = table is not None
        if not loaded:
            builder = _build_table(cells, composite)
            table = builder.table
            store.put("realize_table", key, table)
            sp.set(candidates=builder.candidates, assembled=builder.assembled)
            _obs.counter("realize.table.candidates", builder.candidates)
            _obs.counter("realize.table.assembled", builder.assembled)
        sp.set(loaded=loaded, entries=len(table))
        _obs.counter("realize.table.loads" if loaded else "realize.table.builds")
    return table


def baseline_table(arch) -> Dict[Tuple[int, int], Realization]:
    """Structures a conventional mapper uses for an architecture.

    ``arch`` may be ``"lut"`` / ``"granular"``, a cell-name set, or a
    :class:`~repro.cells.library.Library`.  Covers every 1- and 2-input
    function plus single-cell and plain two-NAND 3-input structures;
    3-input functions outside the table are decomposed by the mapper
    through smaller cuts.
    """
    return table_for_cells(_resolve_cells(arch), composite=False)


def compaction_table(arch) -> Dict[Tuple[int, int], Realization]:
    """The full structure set used by logic compaction.

    Extends the baseline with the paper's composite configurations —
    NDMX / XOAMX / XOANDMX for mux-bearing PLBs — giving complete
    coverage of all 3-input functions without a LUT.  (A LUT-bearing
    PLB's baseline already contains its compaction structures, LUT3 and
    ND3WI; compaction still helps there through FlowMap's wider
    clustering.)
    """
    return table_for_cells(_resolve_cells(arch), composite=True)


def lookup(
    table: Dict[Tuple[int, int], Realization], function: TruthTable
) -> Optional[Realization]:
    """Find a realization for ``function`` (shrunk to its support)."""
    shrunk, kept = function.shrink_to_support()
    found = table.get((shrunk.n_inputs, shrunk.mask))
    if found is None:
        return None
    if kept == tuple(range(function.n_inputs)):
        return found
    # Re-index leaves back to the original input positions.
    remap = {i: kept[i] for i in range(len(kept))}
    steps = tuple(
        Step(
            s.cell_name,
            s.config,
            tuple(("leaf", remap[idx]) if kind == "leaf" else (kind, idx)
                  for kind, idx in s.refs),
        )
        for s in found.steps
    )
    return Realization(
        function=function,
        steps=steps,
        area=found.area,
        levels=found.levels,
        structure=found.structure,
    )
