"""Golden-equivalence tests for the performance kernels.

The two hot paths rewritten for speed — the SA placement cost engine and
the persistent realization tables — each keep a slow reference
implementation.  These tests pin the fast paths to the reference ones
bit for bit: identical placements and costs for the SA engines, equal
tables for a persisted load versus a fresh derivation, and identical
NPN canonicalization for the lookup table versus the exhaustive search.
"""

import os
import random
import subprocess
import sys

import pytest

import repro.place.sa as sa
from repro.flow.experiments import build_design
from repro.flow.flow import run_design
from repro.flow.options import FlowOptions
from repro.logic.npn import (
    _npn_canonical_exhaustive,
    npn_canonical_with_transform,
)
from repro.logic.truthtable import TruthTable
from repro.place.grid import grid_for_netlist
from repro.place.sa import AnnealingPlacer
from repro.synth.realize import (
    _build_table,
    _resolve_cells,
    compaction_table,
    table_for_cells,
)

from conftest import make_ripple_design


class TestSAEngineEquivalence:
    """engine="array" must reproduce engine="object" exactly."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_identical_placements_and_costs(self, seed):
        netlist = make_ripple_design(8)
        p_obj = AnnealingPlacer(
            netlist, grid_for_netlist(netlist), seed=seed, effort=0.3,
            engine="object",
        )
        pl_obj = p_obj.place()
        p_arr = AnnealingPlacer(
            netlist, grid_for_netlist(netlist), seed=seed, effort=0.3,
            engine="array",
        )
        pl_arr = p_arr.place()
        assert pl_obj.sites == pl_arr.sites
        # Bit-identical, not approximately equal: the engines perform the
        # same float operations in the same order.
        assert p_obj.final_cost == p_arr.final_cost
        assert p_obj._engine.net_costs() == p_arr._engine.net_costs()
        # ... and the same RNG draws: the stream position matches too.
        assert p_obj.rng.getstate() == p_arr.rng.getstate()

    def test_identical_on_larger_design(self):
        netlist = build_design("alu", 0.2)
        p_obj = AnnealingPlacer(
            netlist, grid_for_netlist(netlist), seed=7, effort=0.1,
            engine="object",
        )
        pl_obj = p_obj.place()
        p_arr = AnnealingPlacer(
            netlist, grid_for_netlist(netlist), seed=7, effort=0.1,
            engine="array",
        )
        pl_arr = p_arr.place()
        assert pl_obj.sites == pl_arr.sites
        assert p_obj.final_cost == p_arr.final_cost

    def test_scalar_fallback_matches_numpy(self, monkeypatch):
        """The no-numpy rebuild path is bit-identical to the numpy one."""
        netlist = make_ripple_design(6)
        ref = AnnealingPlacer(
            netlist, grid_for_netlist(netlist), seed=5, effort=0.2,
            engine="array",
        )
        pl_ref = ref.place()
        monkeypatch.setattr(sa, "_np", None)
        fallback = AnnealingPlacer(
            netlist, grid_for_netlist(netlist), seed=5, effort=0.2,
            engine="array",
        )
        pl_fb = fallback.place()
        assert pl_ref.sites == pl_fb.sites
        assert ref.final_cost == fallback.final_cost

    def test_locked_instances_respected_by_both(self):
        netlist = make_ripple_design(4)
        name = next(iter(netlist.instances))
        for engine in ("object", "array"):
            placer = AnnealingPlacer(
                netlist, grid_for_netlist(netlist), seed=1, effort=0.1,
                locked={name: (0, 0)}, engine=engine,
            )
            assert placer.place().sites[name] == (0, 0)

    def test_engine_env_override(self, monkeypatch):
        netlist = make_ripple_design(3)
        monkeypatch.setenv(sa.ENGINE_ENV, "object")
        placer = AnnealingPlacer(netlist, grid_for_netlist(netlist))
        assert placer.engine_name == "object"

    def test_unknown_engine_rejected(self):
        netlist = make_ripple_design(3)
        with pytest.raises(ValueError, match="unknown SA cost engine"):
            AnnealingPlacer(netlist, grid_for_netlist(netlist), engine="bogus")


def make_double_pin_design():
    """A design where one net feeds two pins of the same instance.

    The AND's both inputs tie to the same net, so that instance
    contributes the net's point twice (the ``count == 2`` move path).
    """
    from repro.netlist.build import NetlistBuilder

    b = NetlistBuilder("double_pin")
    x = b.input("x")
    y = b.input("y")
    n = b.AND(x, x)
    b.output(b.XOR(n, y), "o")
    b.output(b.AND(n, x), "p")
    return b.netlist


class TestSpeculativeEngineLevel:
    """evaluate_move + commit must equal apply_move/undo bit for bit.

    These drive the two engines directly (below the placer loop) through
    identical move sequences — including swaps whose cells share a net,
    coincident-boundary boxes, and multi-pin contributions — asserting
    equal deltas after every proposal and equal per-net costs at the
    end.
    """

    def _setup(self, netlist, seed=0):
        grid = grid_for_netlist(netlist)
        p_obj = AnnealingPlacer(netlist, grid, seed=seed, engine="object")
        p_arr = AnnealingPlacer(netlist, grid, seed=seed, engine="array")
        sites_obj = p_obj._initial_sites()
        sites_arr = p_arr._initial_sites()
        assert sites_obj == sites_arr
        eng_obj = sa._ENGINES["object"](p_obj, sites_obj)
        eng_arr = sa._ENGINES["array"](p_arr, sites_arr)
        assert eng_obj.rebuild() == eng_arr.rebuild()
        return p_obj, sites_obj, eng_obj, sites_arr, eng_arr

    def _drive(self, netlist, seed=0, n_moves=400):
        p_obj, sites_obj, eng_obj, sites_arr, eng_arr = self._setup(
            netlist, seed
        )
        grid = p_obj.grid
        occupant = {s: None for s in grid.sites()}
        for name, site in sites_obj.items():
            occupant[site] = name
        rng = random.Random(1234)
        movable = p_obj._movable
        proposals = swaps = 0
        for _ in range(n_moves):
            mover = movable[rng.randrange(len(movable))]
            new_site = (rng.randrange(grid.cols), rng.randrange(grid.rows))
            old_site = sites_obj[mover]
            if new_site == old_site:
                continue
            other = occupant[new_site]
            proposals += 1
            swaps += other is not None
            # Object-engine contract: the swap is made in ``sites``
            # first, then applied (and reverted around undo).
            sites_obj[mover] = new_site
            if other is not None:
                sites_obj[other] = old_site
            delta_obj = eng_obj.apply_move(mover, other, old_site, new_site)
            delta_arr = eng_arr.evaluate_move(mover, other, new_site)
            assert delta_obj == delta_arr
            if rng.random() < 0.5:  # accept
                eng_arr.commit()
                sites_arr[mover] = new_site
                if other is not None:
                    sites_arr[other] = old_site
                occupant[new_site] = mover
                occupant[old_site] = other
            else:  # reject
                eng_obj.undo()
                sites_obj[mover] = old_site
                if other is not None:
                    sites_obj[other] = new_site
            assert sites_obj == sites_arr
        assert proposals and swaps, "drive never exercised the move paths"
        assert eng_obj.net_costs() == eng_arr.net_costs()
        assert eng_obj.rebuild() == eng_arr.rebuild()

    def test_random_drive_matches_apply_undo(self):
        self._drive(make_ripple_design(6), seed=2)

    def test_double_pin_contributions_match(self):
        self._drive(make_double_pin_design(), seed=1)

    def test_shared_net_swap_matches(self):
        """A swap between two cells on the same net merges per-net moves."""
        netlist = make_ripple_design(4)
        p_obj, sites_obj, eng_obj, sites_arr, eng_arr = self._setup(netlist)
        pair = None
        for net in netlist.nets.values():
            if net.driver is None or not net.sinks:
                continue
            a, b = net.driver[0], net.sinks[0][0]
            if a != b and a in sites_obj and b in sites_obj:
                pair = (a, b)
                break
        assert pair is not None
        a, b = pair
        old_site, new_site = sites_obj[a], sites_obj[b]
        sites_obj[a] = new_site
        sites_obj[b] = old_site
        delta_obj = eng_obj.apply_move(a, b, old_site, new_site)
        delta_arr = eng_arr.evaluate_move(a, b, new_site)
        assert delta_obj == delta_arr
        eng_arr.commit()
        assert eng_obj.net_costs() == eng_arr.net_costs()

    def test_coincident_boundary_counts_match(self):
        """Moves among coincident coordinates (multi-point boundaries)."""
        netlist = make_ripple_design(5)
        p_obj, sites_obj, eng_obj, sites_arr, eng_arr = self._setup(netlist)
        grid = p_obj.grid
        occupant = {s: None for s in grid.sites()}
        for name, site in sites_obj.items():
            occupant[site] = name
        # Walk one instance along its own row and column: every step
        # keeps one axis coordinate coincident with other cells in that
        # row/column, exercising boundary counts > 1 on add and remove.
        mover = p_obj._movable[0]
        steps = [(c, sites_obj[mover][1]) for c in range(grid.cols)]
        steps += [(sites_obj[mover][0], r) for r in range(grid.rows)]
        for new_site in steps:
            old_site = sites_obj[mover]
            if new_site == old_site:
                continue
            other = occupant[new_site]
            sites_obj[mover] = new_site
            if other is not None:
                sites_obj[other] = old_site
            delta_obj = eng_obj.apply_move(mover, other, old_site, new_site)
            delta_arr = eng_arr.evaluate_move(mover, other, new_site)
            assert delta_obj == delta_arr
            eng_arr.commit()
            sites_arr[mover] = new_site
            if other is not None:
                sites_arr[other] = old_site
            occupant[new_site] = mover
            occupant[old_site] = other
        assert eng_obj.net_costs() == eng_arr.net_costs()

    def test_rejected_evaluation_leaves_state_untouched(self):
        netlist = make_ripple_design(4)
        _p, sites_obj, _eng_obj, _sites_arr, eng_arr = self._setup(netlist)
        mover = _p._movable[0]
        target = next(
            s for s in _p.grid.sites() if s != sites_obj[mover]
        )
        before_costs = eng_arr.net_costs()
        before_pos = (list(eng_arr.pos_x), list(eng_arr.pos_y))
        before_boxes = (
            list(eng_arr.xmin), list(eng_arr.xmax),
            list(eng_arr.ymin), list(eng_arr.ymax),
            list(eng_arr.n_xmin), list(eng_arr.n_xmax),
            list(eng_arr.n_ymin), list(eng_arr.n_ymax),
        )
        occupant = {}
        for name, site in sites_obj.items():
            occupant[site] = name
        eng_arr.evaluate_move(mover, occupant.get(target), target)
        assert eng_arr.net_costs() == before_costs
        assert (list(eng_arr.pos_x), list(eng_arr.pos_y)) == before_pos
        assert before_boxes == (
            list(eng_arr.xmin), list(eng_arr.xmax),
            list(eng_arr.ymin), list(eng_arr.ymax),
            list(eng_arr.n_xmin), list(eng_arr.n_xmax),
            list(eng_arr.n_ymin), list(eng_arr.n_ymax),
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
