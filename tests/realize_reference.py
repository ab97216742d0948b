"""Reference oracles for the realization-table and PLB-configuration builders.

These are the straightforward enumerators over :class:`TruthTable`
objects: every candidate structure is assembled into a
:class:`~repro.synth.realize.Realization` and offered to the table, and
every configuration function set is collected as ``TruthTable`` values.
They are slow and obviously right; the production mask enumerators in
``repro.synth.realize`` and ``repro.core.configs`` must agree with them
exactly (``tests/test_realize_oracles.py``): same keys in the same
insertion order, equal realizations, equal function sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.cells.celltypes import make_nd2wi, make_nd3wi
from repro.core.functions3 import (
    literal_sources_3in,
    mux2_implementable_3in,
    nd2wi_sources_3in,
    nd3wi_implementable_3in,
)
from repro.logic.truthtable import TruthTable
from repro.synth.realize import Realization, Ref, Step, _step_areas

_INV_CONFIG = ~TruthTable.input_var(1, 0)


class ReferenceTableBuilder:
    """Keeps the cheapest realization per (n_inputs, mask); counts offers."""

    def __init__(self) -> None:
        self.table: Dict[Tuple[int, int], Realization] = {}
        self.offers = 0

    def offer(self, realization: Realization) -> None:
        self.offers += 1
        key = (realization.function.n_inputs, realization.function.mask)
        existing = self.table.get(key)
        if (
            existing is None
            or (realization.area, realization.levels)
            < (existing.area, existing.levels)
        ):
            self.table[key] = realization


# ----------------------------------------------------------------------
# Leaf literal machinery
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Literal:
    """A leaf or its complement, with the steps needed to produce it."""

    table: TruthTable
    ref_builder: Tuple[Tuple[str, int], bool]  # ((kind, index), inverted)

    def materialize(
        self, steps: List[Step], inv_cache: Dict[int, int]
    ) -> Ref:
        """Return a Ref, appending an INV step if the literal is negated."""
        (kind, index), inverted = self.ref_builder
        if not inverted:
            return (kind, index)
        if index in inv_cache:
            return ("step", inv_cache[index])
        steps.append(Step("INV", _INV_CONFIG, ((kind, index),)))
        inv_cache[index] = len(steps) - 1
        return ("step", inv_cache[index])


def _literals(n: int) -> Tuple[_Literal, ...]:
    out = []
    for i in range(n):
        var = TruthTable.input_var(n, i)
        out.append(_Literal(var, (("leaf", i), False)))
        out.append(_Literal(~var, (("leaf", i), True)))
    return tuple(out)


def _assemble(
    function: TruthTable,
    structure: str,
    core_steps: Sequence[Tuple[str, TruthTable, Sequence[object]]],
    levels: int,
) -> Realization:
    """Build a Realization from core steps whose refs may be _Literals.

    ``core_steps`` entries are ``(cell_name, config, refs)`` where each ref
    is a :class:`_Literal`, a ``("core", j)`` reference to an earlier core
    step, or ``("inv-core", j)`` for its complement.
    """
    areas = _step_areas()
    steps: List[Step] = []
    inv_cache: Dict[int, int] = {}
    core_index: Dict[int, int] = {}
    core_inv_index: Dict[int, int] = {}
    for j, (cell_name, config, refs) in enumerate(core_steps):
        resolved: List[Ref] = []
        for ref in refs:
            if isinstance(ref, _Literal):
                resolved.append(ref.materialize(steps, inv_cache))
            else:
                kind, idx = ref  # type: ignore[misc]
                if kind == "core":
                    resolved.append(("step", core_index[idx]))
                elif kind == "inv-core":
                    if idx not in core_inv_index:
                        steps.append(
                            Step(
                                "INV",
                                ~TruthTable.input_var(1, 0),
                                (("step", core_index[idx]),),
                            )
                        )
                        core_inv_index[idx] = len(steps) - 1
                    resolved.append(("step", core_inv_index[idx]))
                else:  # pragma: no cover - defensive
                    raise ValueError(f"bad ref {ref!r}")
        steps.append(Step(cell_name, config, tuple(resolved)))
        core_index[j] = len(steps) - 1
    area = sum(areas[s.cell_name] for s in steps)
    return Realization(
        function=function,
        steps=tuple(steps),
        area=area,
        levels=levels,
        structure=structure,
    )


# ----------------------------------------------------------------------
# Structure enumerators (forward)
# ----------------------------------------------------------------------

def _mux_tt(s: TruthTable, d0: TruthTable, d1: TruthTable) -> TruthTable:
    return TruthTable.mux(s, d0, d1)


def _offer_inv_buf(builder: ReferenceTableBuilder) -> None:
    var = TruthTable.input_var(1, 0)
    leaf = _Literal(var, (("leaf", 0), False))
    builder.offer(_assemble(~var, "INV", [("INV", ~var, [leaf])], 1))
    builder.offer(_assemble(var, "BUF", [("BUF", var, [leaf])], 1))


def _offer_nd2_singles(builder: ReferenceTableBuilder, n: int) -> None:
    """Single ND2WI over any two literal sources (polarity is internal)."""
    cell = make_nd2wi()
    assert cell.feasible is not None
    lits = _literals(n)
    for a, b in itertools.product(lits, repeat=2):
        # Polarity is free inside the cell, so only positive leaves are
        # wired; enumerate the cell's feasible configs directly.
        if a.ref_builder[1] or b.ref_builder[1]:
            continue
        for config in cell.feasible:
            function = config.compose([a.table, b.table])
            if len(function.support()) != n:
                continue
            builder.offer(
                _assemble(function, "ND2", [("ND2WI", config, [a, b])], 1)
            )


def _offer_nd3_singles(builder: ReferenceTableBuilder, n: int) -> None:
    """Single ND3WI over any three positive leaf sources (ties allowed)."""
    cell = make_nd3wi()
    assert cell.feasible is not None
    lits = [lit for lit in _literals(n) if not lit.ref_builder[1]]
    for a, b, c in itertools.product(lits, repeat=3):
        for config in cell.feasible:
            function = config.compose([a.table, b.table, c.table])
            if len(function.support()) != n:
                continue
            builder.offer(
                _assemble(function, "ND3", [("ND3WI", config, [a, b, c])], 1)
            )


def _offer_mux_singles(
    builder: ReferenceTableBuilder, n: int, cell_name: str = "MUX2"
) -> None:
    """Single mux over literals (INV steps supply negative polarity)."""
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    lits = _literals(n)
    for s, d0, d1 in itertools.product(lits, repeat=3):
        function = _mux_tt(s.table, d0.table, d1.table)
        if len(function.support()) != n:
            continue
        builder.offer(
            _assemble(function, "MX", [(cell_name, mux_fn, [s, d0, d1])], 1)
        )


def _nd2_inner_options(n: int) -> List[Tuple[TruthTable, Tuple[str, TruthTable, list]]]:
    """Distinct ND2WI outputs over positive leaves, with their core step."""
    cell = make_nd2wi()
    assert cell.feasible is not None
    lits = [lit for lit in _literals(n) if not lit.ref_builder[1]]
    seen: Dict[int, Tuple[TruthTable, Tuple[str, TruthTable, list]]] = {}
    for a, b in itertools.product(lits, repeat=2):
        for config in cell.feasible:
            function = config.compose([a.table, b.table])
            if function.mask not in seen:
                seen[function.mask] = (function, ("ND2WI", config, [a, b]))
    return list(seen.values())


def _nd3_inner_options(n: int) -> List[Tuple[TruthTable, Tuple[str, TruthTable, list]]]:
    cell = make_nd3wi()
    assert cell.feasible is not None
    lits = [lit for lit in _literals(n) if not lit.ref_builder[1]]
    seen: Dict[int, Tuple[TruthTable, Tuple[str, TruthTable, list]]] = {}
    for a, b, c in itertools.product(lits, repeat=3):
        for config in cell.feasible:
            function = config.compose([a.table, b.table, c.table])
            if function.mask not in seen:
                seen[function.mask] = (function, ("ND3WI", config, [a, b, c]))
    return list(seen.values())


def _mux_inner_options(
    n: int, cell_name: str
) -> List[Tuple[TruthTable, Tuple[str, TruthTable, list], int]]:
    """Distinct inner-mux outputs with their core step and inverter count."""
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    lits = _literals(n)
    best: Dict[int, Tuple[TruthTable, Tuple[str, TruthTable, list], int]] = {}
    for s, d0, d1 in itertools.product(lits, repeat=3):
        function = _mux_tt(s.table, d0.table, d1.table)
        n_inv = sum(1 for lit in (s, d0, d1) if lit.ref_builder[1])
        key = function.mask
        if key not in best or n_inv < best[key][2]:
            best[key] = (function, (cell_name, mux_fn, [s, d0, d1]), n_inv)
    return list(best.values())


def _offer_two_gate_nand(builder: ReferenceTableBuilder) -> None:
    """ND2WI feeding one input of another ND2WI (plain DC decomposition)."""
    inner = _nd2_inner_options(3)
    cell = make_nd2wi()
    assert cell.feasible is not None
    lits = [lit for lit in _literals(3) if not lit.ref_builder[1]]
    for inner_fn, inner_step in inner:
        for other in lits:
            for config in cell.feasible:
                function = config.compose([inner_fn, other.table])
                if len(function.support()) != 3:
                    continue
                builder.offer(
                    _assemble(
                        function,
                        "ND2+ND2",
                        [inner_step, ("ND2WI", config, [("core", 0), other])],
                        2,
                    )
                )


def _offer_ndmx(builder: ReferenceTableBuilder) -> None:
    """Config 3 — MUX2 with one data leg from an ND2WI."""
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    inner = _nd2_inner_options(3)
    lits = _literals(3)
    for inner_fn, inner_step in inner:
        for s in lits:
            for other in lits:
                for legs in (
                    [s, ("core", 0), other],
                    [s, other, ("core", 0)],
                ):
                    tables = [
                        lit.table if isinstance(lit, _Literal) else inner_fn
                        for lit in legs
                    ]
                    function = _mux_tt(*tables)
                    if len(function.support()) != 3:
                        continue
                    builder.offer(
                        _assemble(
                            function,
                            "NDMX",
                            [inner_step, ("MUX2", mux_fn, legs)],
                            2,
                        )
                    )


def _offer_xoamx(builder: ReferenceTableBuilder, inner_cell: str = "XOA") -> None:
    """Config 4 — MUX2 with one data leg from the XOA mux.

    Includes the both-legs wiring (inner and inverted inner) that realizes
    the 3-input XOR/XNOR with two muxes and an inverter.
    """
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    inner = _mux_inner_options(3, inner_cell)
    lits = _literals(3)
    for inner_fn, inner_step, _ in inner:
        for s in lits:
            for other in lits:
                for legs in (
                    [s, ("core", 0), other],
                    [s, other, ("core", 0)],
                ):
                    tables = [
                        lit.table if isinstance(lit, _Literal) else inner_fn
                        for lit in legs
                    ]
                    function = _mux_tt(*tables)
                    if len(function.support()) != 3:
                        continue
                    builder.offer(
                        _assemble(
                            function, "XOAMX",
                            [inner_step, ("MUX2", mux_fn, legs)], 2,
                        )
                    )
            # both legs from the inner mux, one through an inverter
            for legs in (
                [s, ("core", 0), ("inv-core", 0)],
                [s, ("inv-core", 0), ("core", 0)],
            ):
                tables = [
                    lit.table if isinstance(lit, _Literal) else
                    (inner_fn if lit[0] == "core" else ~inner_fn)
                    for lit in legs
                ]
                function = _mux_tt(*tables)
                if len(function.support()) != 3:
                    continue
                builder.offer(
                    _assemble(
                        function, "XOAMX",
                        [inner_step, ("MUX2", mux_fn, legs)], 2,
                    )
                )


def _offer_xoandmx(builder: ReferenceTableBuilder, inner_cell: str = "XOA") -> None:
    """Config 5 — MUX2 fed by the XOA mux and an ND3WI gate."""
    mux_fn = _mux_tt(*TruthTable.inputs(3))
    mux_inner = _mux_inner_options(3, inner_cell)
    nd3_inner = _nd3_inner_options(3)
    lits = _literals(3)
    for mux_fn_inner, mux_step, _ in mux_inner:
        for nd3_fn, nd3_step in nd3_inner:
            for s in lits:
                for legs in (
                    [s, ("core", 0), ("core", 1)],
                    [s, ("core", 1), ("core", 0)],
                ):
                    tables = []
                    for lit in legs:
                        if isinstance(lit, _Literal):
                            tables.append(lit.table)
                        else:
                            tables.append(
                                mux_fn_inner if lit[1] == 0 else nd3_fn
                            )
                    function = _mux_tt(*tables)
                    if len(function.support()) != 3:
                        continue
                    builder.offer(
                        _assemble(
                            function, "XOANDMX",
                            [mux_step, nd3_step, ("MUX2", mux_fn, legs)], 2,
                        )
                    )


def _offer_lut3(builder: ReferenceTableBuilder, n: int) -> None:
    """Whole-function LUT3 collapse (LUT architecture only)."""
    for mask in range(1 << (1 << n)):
        function = TruthTable(n, mask)
        if len(function.support()) != n:
            continue
        config = function.extend(3)
        refs: List[object] = [
            _Literal(TruthTable.input_var(n, i), (("leaf", i), False))
            for i in range(n)
        ]
        while len(refs) < 3:
            refs.append(refs[0])  # tie unused pins
        builder.offer(_assemble(function, "LUT3", [("LUT3", config, refs)], 1))


def reference_build_table(
    cells: frozenset, composite: bool
) -> ReferenceTableBuilder:
    """Forward-enumerate every structure family available to ``cells``."""
    builder = ReferenceTableBuilder()
    _offer_inv_buf(builder)
    if "ND2WI" in cells:
        for n in (2, 3):
            _offer_nd2_singles(builder, n)
        _offer_two_gate_nand(builder)
    if "ND3WI" in cells:
        for n in (2, 3):
            _offer_nd3_singles(builder, n)
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
            _offer_xoamx(builder, inner_cell=inner_mux)
        if "MUX2" in cells and "ND3WI" in cells:
            _offer_xoandmx(builder, inner_cell=inner_mux)
    return builder


# ----------------------------------------------------------------------
# PLB configuration function sets
# ----------------------------------------------------------------------

def reference_mux_over(
    leg_sources: Sequence[TruthTable], other_sources: Sequence[TruthTable]
) -> FrozenSet[TruthTable]:
    """MUX(select-literal; leg, other) over 3-input tables, both orders."""
    selects = [t for t in literal_sources_3in() if not t.is_constant()]
    found = set()
    for s in selects:
        for leg in leg_sources:
            for other in other_sources:
                found.add(TruthTable.mux(s, leg, other))
                found.add(TruthTable.mux(s, other, leg))
    return frozenset(found)


def reference_config_functions() -> Dict[str, FrozenSet[TruthTable]]:
    """The function set of every granular/LUT configuration, by name."""
    literals = literal_sources_3in()
    mux_legs = tuple(mux2_implementable_3in())
    nd3_legs = tuple(nd3wi_implementable_3in())
    selects = [t for t in literals if not t.is_constant()]
    both_legs = set()
    for s in selects:
        for m in mux_legs:
            both_legs.add(TruthTable.mux(s, m, ~m))
            both_legs.add(TruthTable.mux(s, ~m, m))
    return {
        "ND3": nd3wi_implementable_3in(),
        "MX": mux2_implementable_3in(),
        "NDMX": reference_mux_over(tuple(nd2wi_sources_3in()), literals),
        "XOAMX": frozenset(reference_mux_over(mux_legs, literals) | both_legs),
        "XOANDMX": reference_mux_over(mux_legs, nd3_legs),
        "LUT3": frozenset(TruthTable(3, mask) for mask in range(256)),
    }
