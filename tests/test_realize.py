"""Unit tests for realization tables.

The central invariant: every table entry's step list, when evaluated
symbolically over its leaves, reproduces exactly the function it is filed
under — for every architecture and every entry.
"""

import hashlib
import json

import pytest

from repro.logic.truthtable import TruthTable, all_functions
from repro.synth.realize import (
    TABLE_BUILDER_VERSION,
    Realization,
    _build_table,
    _resolve_cells,
    baseline_table,
    compaction_table,
    lookup,
)


def evaluate_realization(realization: Realization, n_leaves: int) -> TruthTable:
    """Symbolically evaluate a realization over its leaf variables."""
    leaves = [TruthTable.input_var(n_leaves, i) for i in range(n_leaves)]
    step_values = []
    for step in realization.steps:
        ins = []
        for kind, index in step.refs:
            ins.append(leaves[index] if kind == "leaf" else step_values[index])
        step_values.append(step.config.compose(ins))
    return step_values[-1]


@pytest.mark.parametrize("arch", ["lut", "granular"])
class TestTables:
    def test_every_entry_is_correct(self, arch):
        for table_kind in (baseline_table, compaction_table):
            for (n, mask), realization in table_kind(arch).items():
                assert realization.function == TruthTable(n, mask)
                evaluated = evaluate_realization(realization, n)
                assert evaluated == realization.function, (
                    f"{arch}: entry ({n}, {mask:#x}) structure "
                    f"{realization.structure} evaluates wrong"
                )

    def test_all_2input_functions_covered(self, arch):
        table = baseline_table(arch)
        for f in all_functions(2):
            if len(f.support()) == 2:
                assert (2, f.mask) in table

    def test_compaction_extends_baseline(self, arch):
        base = baseline_table(arch)
        full = compaction_table(arch)
        assert set(base) <= set(full)

    def test_areas_positive(self, arch):
        for realization in compaction_table(arch).values():
            assert realization.area > 0
            assert realization.levels >= 1
            assert realization.n_cells >= 1


class TestCoverage:
    def test_granular_compaction_covers_all_3input(self):
        table = compaction_table("granular")
        for f in all_functions(3):
            if len(f.support()) == 3:
                assert (3, f.mask) in table

    def test_lut_baseline_covers_all_3input(self):
        table = baseline_table("lut")
        for f in all_functions(3):
            if len(f.support()) == 3:
                assert (3, f.mask) in table

    def test_granular_baseline_incomplete(self):
        # The conventional mapper cannot realize e.g. the majority function
        # in one structure; compaction's composites can.
        a, b, c = TruthTable.inputs(3)
        maj = (a & b) | (b & c) | (a & c)
        assert lookup(baseline_table("granular"), maj) is None
        found = lookup(compaction_table("granular"), maj)
        assert found is not None

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            baseline_table("fpga")


class TestLookup:
    def test_lookup_shrinks_support(self):
        # A 3-input table that only depends on inputs 0 and 2.
        a, _b, c = TruthTable.inputs(3)
        f = a & c
        found = lookup(compaction_table("granular"), f)
        assert found is not None
        # Leaves must be remapped to the original indices 0 and 2.
        leaf_indices = {
            index for step in found.steps for kind, index in step.refs if kind == "leaf"
        }
        assert leaf_indices <= {0, 2}
        assert evaluate_realization_over(found, 3) == f

    def test_lookup_miss(self):
        f = TruthTable(4, 0x6996)  # xor4
        assert lookup(baseline_table("granular"), f) is None

    def test_structure_names(self):
        a, b, c = TruthTable.inputs(3)
        nd3 = lookup(compaction_table("granular"), ~(a & b & c))
        assert nd3.structure == "ND3"
        s, d0, d1 = TruthTable.inputs(3)
        mx = lookup(compaction_table("granular"), TruthTable.mux(s, d0, d1))
        assert mx.structure == "MX"


def evaluate_realization_over(realization: Realization, n: int) -> TruthTable:
    leaves = [TruthTable.input_var(n, i) for i in range(n)]
    values = []
    for step in realization.steps:
        ins = [
            leaves[index] if kind == "leaf" else values[index]
            for kind, index in step.refs
        ]
        values.append(step.config.compose(ins))
    return values[-1]


def table_digest(table) -> str:
    """sha256 of a canonical JSON of a table, in insertion order."""
    entries = [
        [
            n, mask, r.structure, r.area, r.levels,
            [
                [s.cell_name, [s.config.n_inputs, s.config.mask],
                 [list(ref) for ref in s.refs]]
                for s in r.steps
            ],
        ]
        for (n, mask), r in table.items()
    ]
    payload = json.dumps(entries, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


#: Digest of every built table, per TABLE_BUILDER_VERSION.  Persisted
#: tables are keyed on the version, not on the builder's code.
PINNED_TABLE_DIGESTS = {
    1: {
        "granular/baseline": "4cd4d5ef54e07729e6bf56a9d29069b99a7c005e948a9db4a7b7013b7c8b42d9",
        "granular/compaction": "eb29b6771d22baab19cc8967c65663a3c9f20bc959aef9d7cbd4f49d9b81b48d",
        "lut/baseline": "e471f8b1175185586c582c64e67c4bccec29bcba60c2b0e1090d26eaa8440bf9",
        "lut/compaction": "e471f8b1175185586c582c64e67c4bccec29bcba60c2b0e1090d26eaa8440bf9",
    },
}


class TestBuilderVersionPin:
    @pytest.mark.parametrize("arch", ["granular", "lut"])
    @pytest.mark.parametrize("composite", [False, True], ids=["baseline", "compaction"])
    def test_built_table_matches_pinned_digest(self, arch, composite):
        name = f"{arch}/{'compaction' if composite else 'baseline'}"
        digest = table_digest(_build_table(_resolve_cells(arch), composite).table)
        pinned = PINNED_TABLE_DIGESTS.get(TABLE_BUILDER_VERSION, {})
        assert pinned.get(name) == digest, (
            f"the {name} realization table built by this code differs from "
            f"the one pinned for TABLE_BUILDER_VERSION={TABLE_BUILDER_VERSION}. "
            "Warm caches key persisted tables on that version alone and "
            "would keep serving the old table: bump TABLE_BUILDER_VERSION "
            "in repro/synth/realize.py and pin the new digests in "
            f"PINNED_TABLE_DIGESTS (this one: {digest})."
        )
