"""Oracle tests for the count-free annealing kernel.

``AnnealingPlacer`` recomputes every touched net exactly on integer
sites; ``tests/sa_reference.py`` keeps the apply/undo placer with
boundary-counted boxes that it replaced.  The two must agree bit for
bit: the same sites in the same insertion order, the same per-net and
final costs, the same counters and the same RNG stream position — on
whole anneals (ripple designs, synthesized ALUs, the two-iteration
physical-synthesis loop, random netlists) and move by move (every
sampled cost delta of a long random walk, then Metropolis sweeps).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.place.physical_synthesis as physical_synthesis
from repro.flow.experiments import build_design
from repro.flow.flow import synthesize
from repro.flow.options import FlowOptions
from repro.logic.truthtable import TruthTable
from repro.netlist import NetlistBuilder
from repro.netlist.build import capture_cell
from repro.place.grid import grid_for_netlist
from repro.place.physical_synthesis import run_physical_synthesis
from repro.place.sa import AnnealingPlacer

from conftest import make_ripple_design
from sa_reference import ReferencePlacer, _ObjectCostEngine


def place_both(netlist, grid=None, **kwargs):
    grid = grid or grid_for_netlist(netlist)
    kernel = AnnealingPlacer(netlist, grid, **kwargs)
    reference = ReferencePlacer(netlist, grid, **kwargs)
    return kernel, kernel.place(), reference, reference.place()


def assert_identical(kernel, placed, reference, ref_placed):
    # Bit-identical, not approximately equal, and the sites dict in the
    # same insertion order (it feeds everything downstream).
    assert list(placed.sites.items()) == list(ref_placed.sites.items())
    assert placed.pads == ref_placed.pads
    assert kernel.final_cost == reference.final_cost
    assert kernel.net_costs() == reference.net_costs()
    assert kernel.stats == reference.stats
    assert kernel.rng.getstate() == reference.rng.getstate()


def kernel_sites(kernel):
    return {
        name: (kernel._col[i], kernel._row[i])
        for name, i in kernel._index.items()
    }


class Walk:
    """Kernel and reference started from the same initial placement."""

    def __init__(self, netlist, seed=0, **kwargs):
        grid = grid_for_netlist(netlist)
        self.kernel = AnnealingPlacer(netlist, grid, seed=seed, **kwargs)
        self.reference = ReferencePlacer(netlist, grid, seed=seed, **kwargs)
        self.total = self.kernel._start(self.kernel._initial_sites())
        self.sites = self.reference._initial_sites()
        self.occupant = {site: None for site in grid.sites()}
        for name, site in self.sites.items():
            self.occupant[site] = name
        self.engine = _ObjectCostEngine(self.reference, self.sites)
        self.reference._engine = self.engine
        assert self.engine.rebuild() == self.total

    def sample(self, n_moves, range_limit):
        """The sampling pass: every move accepted, every delta compared."""
        deltas = []
        self.kernel._sweep(range_limit, n_moves, 0.0, deltas)
        samples, ref_total = self.reference._sample_legacy(
            self.engine, self.sites, self.occupant, n_moves, self.total
        )
        assert [abs(d) for d in deltas] == samples
        for delta in deltas:
            self.total += delta
        assert self.total == ref_total
        self.check_state()
        return samples

    def sweep(self, n_moves, range_limit, temperature):
        counts = self.kernel._sweep(range_limit, n_moves, temperature)
        ref_counts = self.reference._sweep_legacy(
            self.engine, self.sites, self.occupant, range_limit, n_moves,
            temperature,
        )
        assert counts == ref_counts
        self.check_state()
        return counts

    def check_state(self):
        kernel = self.kernel
        assert kernel_sites(kernel) == {
            name: self.sites[name] for name in kernel._index
        }
        assert kernel.net_costs() == self.engine.net_costs()
        assert kernel._total() == self.engine.rebuild()
        assert kernel.rng.getstate() == self.reference.rng.getstate()
        # A rejected move puts both cells' coordinates back: every
        # instance sits at the center of the site it occupies.
        n = len(kernel._instances)
        assert kernel._x[:n] == [kernel._col_x[c] for c in kernel._col]
        assert kernel._y[:n] == [kernel._row_y[r] for r in kernel._row]


def tied_gate(builder, net):
    """An AND2 with both input pins on ``net`` (the builder would fold it)."""
    table = TruthTable.input_var(2, 0) & TruthTable.input_var(2, 1)
    cell = capture_cell(table)
    inst = builder.netlist.add_instance(
        cell, {pin: net for pin in cell.pins}, config=table
    )
    return inst.output_net


def make_double_pin_design():
    """A design where one net feeds two pins of the same instance."""
    b = NetlistBuilder("double_pin")
    x = b.input("x")
    y = b.input("y")
    n = tied_gate(b, x)
    b.output(b.XOR(n, y), "o")
    b.output(b.AND(n, x), "p")
    b.output(tied_gate(b, n), "q")
    return b.netlist


def has_duplicate_pin(netlist):
    for net in netlist.nets.values():
        names = [sink for sink, _pin in net.sinks]
        if len(names) != len(set(names)):
            return True
    return False


def synthesized_alu(arch, scale):
    options = FlowOptions(arch=arch, use_cache=False)
    return synthesize(build_design("alu", scale), options)


class TestPlacementMatchesReference:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_ripple_design(self, seed):
        netlist = make_ripple_design(8)
        assert_identical(*place_both(netlist, seed=seed, effort=0.3))

    @pytest.mark.parametrize("arch", ["granular", "lut"])
    def test_alu_scale_02(self, arch):
        netlist = synthesized_alu(arch, 0.2).netlist
        assert_identical(*place_both(netlist, seed=7, effort=0.1))

    def test_locked_instances(self):
        netlist = make_ripple_design(4)
        name = next(iter(netlist.instances))
        kernel, placed, reference, ref_placed = place_both(
            netlist, seed=1, effort=0.1, locked={name: (0, 0)}
        )
        assert placed.sites[name] == (0, 0)
        assert_identical(kernel, placed, reference, ref_placed)

    def test_weighted_nets(self):
        netlist = make_ripple_design(6)
        rng = random.Random(4)
        weights = {net: rng.choice([0.0, 0.3, 1.7]) for net in netlist.nets}
        assert_identical(*place_both(
            netlist, seed=2, effort=0.2, net_weights=weights
        ))

    def test_physical_synthesis_two_iterations(self, monkeypatch):
        """The full loop: criticality-weighted second pass plus buffers."""
        synthesis = synthesized_alu("granular", 0.3)

        def run():
            return run_physical_synthesis(
                synthesis.netlist.copy(), synthesis.library,
                synthesis.timing_library, period=0.5, seed=7,
                iterations=2, effort=0.1,
            )

        kernel = run()
        monkeypatch.setattr(
            physical_synthesis, "AnnealingPlacer", ReferencePlacer
        )
        reference = run()
        assert kernel.buffers_added > 0
        assert kernel.buffers_added == reference.buffers_added
        assert list(kernel.netlist.instances) == list(
            reference.netlist.instances
        )
        assert list(kernel.placement.sites.items()) == list(
            reference.placement.sites.items()
        )
        assert kernel.timing.arrival == reference.timing.arrival
        assert (kernel.timing.critical_path_delay
                == reference.timing.critical_path_delay)
        assert kernel.placement_stats == reference.placement_stats


class TestMoveDeltas:
    def test_sampling_walk_deltas(self):
        walk = Walk(make_ripple_design(6), seed=2)
        cols = walk.kernel.grid.cols
        samples = walk.sample(3000, cols)
        temperature = sum(samples) / len(samples)
        for range_limit in (cols, 2, 1):
            accepted, evaluated = walk.sweep(1500, range_limit, temperature)
            assert 0 < accepted < evaluated

    def test_double_pin_design(self):
        netlist = make_double_pin_design()
        assert has_duplicate_pin(netlist)
        walk = Walk(netlist, seed=1)
        walk.sample(500, walk.kernel.grid.cols)
        walk.sweep(500, 1, 0.5)

    def test_shared_net_swap(self, monkeypatch):
        """Swaps whose two cells share a net cost that net once."""
        netlist = make_ripple_design(4)
        walk = Walk(netlist, seed=5)
        moves = []
        try_move = walk.reference._try_move

        def recording_try_move(*args):
            delta, applied = try_move(*args)
            if applied:
                moves.append(walk.reference._last_move[:2])
            return delta, applied

        monkeypatch.setattr(walk.reference, "_try_move", recording_try_move)
        walk.sample(800, walk.kernel.grid.cols)
        walk.sweep(800, 2, 1.0)
        nets_of = walk.kernel._nets_of
        index = walk.kernel._index
        shared = [
            (mover, other) for mover, other in moves
            if other is not None
            and set(nets_of[index[mover]]) & set(nets_of[index[other]])
        ]
        assert shared, "walk never swapped two cells on one net"

    def test_rejected_moves_restore_coordinates(self):
        walk = Walk(make_ripple_design(5), seed=3)
        # A cold sweep rejects nearly every uphill move.
        accepted, evaluated = walk.sweep(2000, 2, 1e-6)
        assert evaluated - accepted > 1000


@st.composite
def netlists(draw):
    """Random gate-level netlists with pads, duplicate pins and DFFs."""
    b = NetlistBuilder("hyp")
    signals = [b.input(f"i{k}") for k in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(2, 16))):
        op = draw(st.sampled_from(
            ["AND", "OR", "XOR", "NAND", "MUX", "DFF", "TIE"]
        ))
        pick = st.sampled_from(signals)
        if op == "TIE":
            net = draw(pick)
            if net not in b.netlist.nets:
                continue  # a constant-folded signal
            out = tied_gate(b, net)
        elif op == "DFF":
            out = b.DFF(draw(pick))
        elif op == "MUX":
            out = b.MUX(draw(pick), draw(pick), draw(pick))
        else:
            out = getattr(b, op)(draw(pick), draw(pick))
        signals.append(out)
    outputs = draw(st.lists(st.sampled_from(signals[1:]), min_size=1,
                            max_size=4, unique=True))
    for k, signal in enumerate(outputs):
        b.output(signal, f"o{k}")
    return b.netlist


class TestRandomNetlists:
    @settings(max_examples=15, deadline=None)
    @given(netlist=netlists(), seed=st.integers(0, 2**16), data=st.data())
    def test_matches_reference(self, netlist, seed, data):
        names = list(netlist.instances)
        grid = grid_for_netlist(netlist)
        sites = list(grid.sites())
        n_locked = data.draw(st.integers(0, min(3, len(names) - 1)))
        locked_names = data.draw(st.permutations(names))[:n_locked]
        locked_sites = data.draw(st.permutations(sites))[:n_locked]
        weights = {
            net: data.draw(st.sampled_from([0.0, 0.25, 1.0, 1.9]))
            for net in netlist.nets
        }
        kwargs = dict(
            seed=seed, effort=0.1, net_weights=weights,
            locked=dict(zip(locked_names, locked_sites)),
        )
        assert_identical(*place_both(netlist, grid, **kwargs))
        walk = Walk(netlist, **kwargs)
        samples = walk.sample(300, grid.cols)
        walk.sweep(300, 1, max(1e-3, sum(samples) / len(samples)))
