"""Unit tests for placement, buffering and the physical-synthesis loop."""

import pytest

from repro.cells.library import granular_plb_library
from repro.netlist.simulate import outputs_equal
from repro.netlist.validate import check
from repro.place.buffers import insert_buffers
from repro.place.grid import PlacementGrid, grid_for_netlist
from repro.place.physical_synthesis import net_criticalities, run_physical_synthesis
from repro.place.sa import AnnealingPlacer

from conftest import make_ripple_design


class TestGrid:
    def test_sizing_fits_instances(self, ripple_design):
        grid = grid_for_netlist(ripple_design)
        assert grid.n_sites >= len(ripple_design.instances)
        assert grid.pitch > 0

    def test_coordinates(self):
        grid = PlacementGrid(cols=4, rows=3, pitch=10.0)
        assert grid.center_of((0, 0)) == (5.0, 5.0)
        assert grid.width_um == 40.0
        assert grid.area_um2 == 40.0 * 30.0
        assert grid.clamp(-3, 99) == (0, 2)

    def test_pads_on_perimeter(self):
        grid = PlacementGrid(cols=4, rows=4, pitch=10.0)
        pads = grid.pad_positions([f"p{i}" for i in range(12)])
        for x, y in pads.values():
            on_edge = (
                x in (0.0, grid.width_um) or y in (0.0, grid.height_um)
                or x == pytest.approx(0.0) or y == pytest.approx(0.0)
            )
            assert on_edge or x == grid.width_um or y == grid.height_um

    def test_sites_iteration(self):
        grid = PlacementGrid(cols=2, rows=2, pitch=1.0)
        assert len(list(grid.sites())) == 4


class TestAnnealer:
    def test_all_instances_placed_uniquely(self, ripple_design):
        grid = grid_for_netlist(ripple_design)
        placement = AnnealingPlacer(ripple_design, grid, seed=3, effort=0.1).place()
        assert set(placement.sites) == set(ripple_design.instances)
        assert len(set(placement.sites.values())) == len(placement.sites)

    def test_deterministic_for_seed(self, ripple_design):
        grid = grid_for_netlist(ripple_design)
        p1 = AnnealingPlacer(ripple_design, grid, seed=5, effort=0.1).place()
        p2 = AnnealingPlacer(ripple_design, grid, seed=5, effort=0.1).place()
        assert p1.sites == p2.sites

    def test_locked_instances_stay(self, ripple_design):
        grid = grid_for_netlist(ripple_design)
        name = next(iter(ripple_design.instances))
        locked = {name: (0, 0)}
        placement = AnnealingPlacer(
            ripple_design, grid, seed=1, locked=locked, effort=0.1
        ).place()
        assert placement.sites[name] == (0, 0)

    def test_improves_over_random(self, ripple_design):
        from repro.timing.wires import hpwl

        grid = grid_for_netlist(ripple_design)

        def total_wirelength(placement):
            return sum(
                hpwl(points)
                for points in placement.net_pin_points(ripple_design).values()
            )

        quick = AnnealingPlacer(ripple_design, grid, seed=2, effort=0.02).place()
        good = AnnealingPlacer(ripple_design, grid, seed=2, effort=1.0).place()
        assert total_wirelength(good) <= total_wirelength(quick) * 1.05

    def test_grid_too_small_rejected(self, ripple_design):
        with pytest.raises(ValueError):
            AnnealingPlacer(ripple_design, PlacementGrid(2, 2, 5.0))

    def test_locked_site_outside_grid_rejected(self, ripple_design):
        # Occupancy is indexed row * cols + col: an off-grid column
        # would alias another site instead of failing.
        grid = grid_for_netlist(ripple_design)
        name = next(iter(ripple_design.instances))
        with pytest.raises(ValueError, match="inside the grid"):
            AnnealingPlacer(
                ripple_design, grid, locked={name: (grid.cols, 0)}
            )


class TestBuffers:
    def test_high_fanout_net_split(self):
        from repro.netlist.build import NetlistBuilder

        b = NetlistBuilder("fan")
        x = b.input("x")
        inv = b.NOT(x)
        outs = [b.DFF(b.NOT(inv)) for _ in range(24)]
        for i, q in enumerate(outs):
            b.output(q, f"q{i}")
        src = b.netlist.copy()
        added = insert_buffers(b.netlist, granular_plb_library(), max_fanout=8)
        assert added >= 1
        check(b.netlist)
        assert outputs_equal(src, b.netlist, n_cycles=3)

    def test_small_nets_untouched(self, ripple_design):
        work = ripple_design.copy()
        added = insert_buffers(work, granular_plb_library(), max_fanout=64)
        assert added == 0


class TestPhysicalSynthesis:
    def test_end_to_end(self, gran_lib, gran_timing):
        src = make_ripple_design(width=4)
        work = src.copy()
        result = run_physical_synthesis(
            work, gran_lib, gran_timing, period=0.5, seed=1, effort=0.1
        )
        check(result.netlist)
        assert outputs_equal(src, result.netlist, n_cycles=3)
        assert set(result.placement.sites) == set(result.netlist.instances)
        assert result.timing.critical_path_delay > 0

    def test_criticalities_normalized(self, gran_lib, gran_timing):
        src = make_ripple_design(width=4)
        result = run_physical_synthesis(
            src.copy(), gran_lib, gran_timing, period=0.5, seed=1,
            iterations=1, effort=0.1,
        )
        crit = net_criticalities(result.netlist, result.timing)
        assert crit
        assert all(0.0 <= v <= 1.0 for v in crit.values())
        assert max(crit.values()) == pytest.approx(1.0)
