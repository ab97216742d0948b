"""Realization tables and PLB configurations against their reference oracles.

The production builders enumerate candidates on integer truth-table masks
and assemble a realization only for a winner; these tests hold them to
exact agreement with the ``TruthTable``-object enumerators in
``tests/realize_reference.py``: the same keys in the same insertion
order, equal realizations, the same number of candidates, and equal
configuration function sets.
"""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.configs import granular_configs, lut_arch_configs
from repro.logic.truthtable import TruthTable, mux_mask
from repro.synth.realize import (
    _SUPPORT_SIZE,
    _build_table,
    _compose_mask,
    _resolve_cells,
    _step_areas,
)

from realize_reference import reference_build_table, reference_config_functions

CELL_SETS = {
    "granular": _resolve_cells("granular"),
    "lut": _resolve_cells("lut"),
    # No XOA, so the composites' inner mux is a plain MUX2.
    "no-xoa": frozenset({"INV", "BUF", "ND2WI", "ND3WI", "MUX2"}),
    "lut3+mux2": frozenset({"INV", "BUF", "ND2WI", "LUT3", "MUX2"}),
}


@lru_cache(maxsize=None)
def _reference(cells_name: str, composite: bool):
    return reference_build_table(CELL_SETS[cells_name], composite)


@pytest.mark.parametrize("composite", [False, True], ids=["baseline", "compaction"])
@pytest.mark.parametrize("cells_name", sorted(CELL_SETS))
class TestTablesMatchReference:
    def test_same_entries_in_same_order(self, cells_name, composite):
        new = _build_table(CELL_SETS[cells_name], composite)
        ref = _reference(cells_name, composite)
        assert list(new.table) == list(ref.table)
        for key, realization in ref.table.items():
            assert new.table[key] == realization, key
        assert new.candidates == ref.offers
        assert len(new.table) <= new.assembled < new.candidates

    def test_area_is_the_step_sum(self, cells_name, composite):
        areas = _step_areas()
        for realization in _build_table(CELL_SETS[cells_name], composite).table.values():
            assert realization.area == sum(
                areas[step.cell_name] for step in realization.steps
            )


def test_config_function_sets_match_reference():
    reference = reference_config_functions()
    configs = granular_configs() + lut_arch_configs()
    assert [c.name for c in configs] == [
        "ND3", "MX", "NDMX", "XOAMX", "XOANDMX", "ND3", "LUT3"
    ]
    for config in configs:
        assert config.functions == reference[config.name], config.name
        assert all(
            t is TruthTable(t.n_inputs, t.mask) for t in config.functions
        ), "config functions must be the interned tables"


@st.composite
def masks(draw, n):
    return draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))


class TestMaskHelpers:
    @given(st.data(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_mux(self, data, n):
        s, d0, d1 = (data.draw(masks(n)) for _ in range(3))
        expected = TruthTable.mux(
            TruthTable(n, s), TruthTable(n, d0), TruthTable(n, d1)
        )
        assert mux_mask(s, d0, d1, (1 << (1 << n)) - 1) == expected.mask

    @given(
        st.data(),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_compose(self, data, k, n):
        config = data.draw(masks(k))
        subs = [data.draw(masks(n)) for _ in range(k)]
        expected = TruthTable(k, config).compose(
            [TruthTable(n, sub) for sub in subs]
        )
        assert _compose_mask(config, subs, (1 << (1 << n)) - 1) == expected.mask

    @given(st.data(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_support_size(self, data, n):
        mask = data.draw(masks(n))
        assert _SUPPORT_SIZE[n][mask] == len(TruthTable(n, mask).support())
