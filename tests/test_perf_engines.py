"""Golden-equivalence tests for the performance kernels.

Equal tables for a persisted load versus a fresh derivation, identical
NPN canonicalization for the lookup table versus the exhaustive search,
and interned truth tables.  The annealing kernel's oracle tests live in
``tests/test_sa_oracle.py``.
"""

import os
import subprocess
import sys

import pytest

from repro.flow.experiments import build_design
from repro.flow.flow import run_design
from repro.flow.options import FlowOptions
from repro.logic.npn import (
    _npn_canonical_exhaustive,
    npn_canonical_with_transform,
)
from repro.logic.truthtable import TruthTable
from repro.synth.realize import (
    _build_table,
    _resolve_cells,
    compaction_table,
    table_for_cells,
)


class TestPersistentRealizationTables:
    def _fresh(self, arch: str, composite: bool):
        return _build_table(_resolve_cells(arch), composite).table

    def test_persisted_load_equals_fresh_build(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        table_for_cells.cache_clear()
        try:
            built = compaction_table("granular")   # builds and persists
            table_for_cells.cache_clear()          # drop the in-process copy
            loaded = compaction_table("granular")  # loads the pickle
        finally:
            table_for_cells.cache_clear()
        assert loaded == built
        assert loaded == self._fresh("granular", True)
        assert any(tmp_path.rglob("*.pkl")), "table was not persisted"

    def test_worker_loaded_table_equals_fresh(self, tmp_path, monkeypatch):
        """A separate process loads the persisted table instead of rebuilding.

        The child stubs out ``_build_table`` so any rebuild attempt fails
        loudly — success proves the table came off disk — then checks the
        loaded table against a reference derivation run in this process.
        """
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        table_for_cells.cache_clear()
        try:
            compaction_table("granular")  # populate the on-disk cache
        finally:
            table_for_cells.cache_clear()
        fresh_repr = repr(sorted(self._fresh("granular", True).items()))

        child = (
            "import repro.synth.realize as R\n"
            "def _boom(*a, **k):\n"
            "    raise AssertionError('table was rebuilt, not loaded')\n"
            "R._build_table = _boom\n"
            "table = R.compaction_table('granular')\n"
            "import sys\n"
            "sys.stdout.write(repr(sorted(table.items())))\n"
        )
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env.pop("REPRO_NO_CACHE", None)
        result = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, env=env, check=True,
        )
        assert result.stdout == fresh_repr

    def test_no_cache_env_still_builds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        table_for_cells.cache_clear()
        try:
            table = compaction_table("lut")
        finally:
            table_for_cells.cache_clear()
        assert table == self._fresh("lut", True)


class TestNPNLookupTable:
    @pytest.mark.parametrize("n_inputs", [0, 1, 2, 3])
    def test_lut_matches_exhaustive_search(self, n_inputs):
        for mask in range(1 << (1 << n_inputs)):
            table = TruthTable(n_inputs, mask)
            canon, transform = npn_canonical_with_transform(table)
            ref_canon, ref_transform = _npn_canonical_exhaustive(table)
            assert canon == ref_canon
            assert transform == ref_transform
            assert transform.apply(table) == canon


class TestTruthTableInterning:
    def test_same_function_same_object(self):
        assert TruthTable(3, 0xE8) is TruthTable(3, 0xE8)
        assert TruthTable.input_var(2, 1) is TruthTable.input_var(2, 1)

    def test_operations_return_interned(self):
        a = TruthTable.input_var(2, 0)
        b = TruthTable.input_var(2, 1)
        assert (a & b) is (a & b)
        assert ~a is ~a


class TestRunDesignByName:
    FAST = FlowOptions(
        place_effort=0.05, place_iterations=1, pack_iterations=1, seed=11,
        use_cache=False,
    )

    def test_design_name_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.15")
        run = run_design("alu", "lut", self.FAST)
        assert run.design == "alu"

    def test_name_equals_explicit_netlist(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.15")
        by_name = run_design("alu", "lut", self.FAST)
        explicit = run_design(build_design("alu", 0.15), "lut", self.FAST)
        assert by_name.flow_a.die_area == explicit.flow_a.die_area
        assert by_name.flow_b.die_area == explicit.flow_b.die_area

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown design name"):
            run_design("no_such_design", "lut", self.FAST)

    def test_non_netlist_raises_type_error(self):
        with pytest.raises(TypeError, match="Netlist or a design name"):
            run_design(42, "lut", self.FAST)
