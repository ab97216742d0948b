"""Simulated-annealing placement (VPR-style adaptive schedule).

Cost is criticality-weighted half-perimeter wirelength.  Moves swap a
random instance with another instance or an empty site within an adaptive
range window; the schedule follows the classic VPR recipe (temperature
from initial cost spread, cooling rate adapted to the acceptance ratio,
exit when temperature is a tiny fraction of cost-per-net).

The move kernel is *count-free*: a move recomputes the exact cost of
every net it touches from scratch — ``w * (|dx| + |dy|)`` for a
two-point net, a plain min/max scan otherwise — instead of maintaining
VPR-style cached boxes with boundary-occupancy counts.  A box depends
only on the set of points in the net, so the recompute is exact, and
the nets of real designs are tiny (2.6-3.4 points on average over the
paper's 8 full-scale cells): most counted updates empty a boundary and
need the full rescan anyway, and a bare min/max scan costs less than
half of a counted one.

All kernel state lives in flat lists indexed by integers: instances own
point indices ``0..n-1`` and I/O pads are fixed pseudo-points appended
after them, so a net is just its list of distinct point indices; sites
are per-instance column/row lists plus an occupancy list indexed by
``row * cols + col``.  An evaluated move stages both cells' new
coordinates in the point lists, sums ``new - old`` cost over the touched
nets in a fixed order (the mover's nets, then the other cell's), and
either keeps the staged coordinates and writes the new per-net costs
(accept) or puts the old coordinates back (reject).
Per-net costs are therefore exact at all times, and the per-temperature
total is a left-to-right sum of the per-net cost list.  The proposal
draws inline the fixed-range ``getrandbits`` rejection sampling that
``random.Random.randrange``/``randint`` perform internally, so they skip
the per-call argument checking while drawing the exact same bit stream.

The placer is deterministic for a given seed — including across
processes: per-move cost deltas are summed in a fixed net order derived
from netlist insertion order, never from (hash-randomized) set order —
and supports *locked* instances (used by the packing <->
physical-synthesis iteration of paper Section 3.1, where legalized cells
keep their PLB positions).  The apply/undo placer this kernel replaced
is kept in the test suite as the oracle it must match bit for bit.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..netlist.core import Netlist
from ..obs import core as _obs
from ..obs.metrics import RATIO_BUCKETS
from .grid import PlacementGrid, Site

#: Moves per temperature = MOVES_PER_CELL * n_cells ** 1.33, capped.
MOVES_PER_CELL = 1.0
MOVE_CAP_PER_TEMPERATURE = 40_000

#: Occupancy marker for a site held by a locked cell (never a swap
#: partner); ``-1`` marks an empty site, ``>= 0`` a movable instance.
_LOCKED = -2


@dataclass
class Placement:
    """Instance -> site assignment plus pad positions."""

    grid: PlacementGrid
    sites: Dict[str, Site]
    pads: Dict[str, Tuple[float, float]]

    def position_of(self, inst_name: str) -> Tuple[float, float]:
        return self.grid.center_of(self.sites[inst_name])

    def net_pin_points(self, netlist: Netlist) -> Dict[str, List[Tuple[float, float]]]:
        """Pin coordinates per net (driver, sinks, and pads)."""
        points: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in netlist.nets
        }
        for name, net in netlist.nets.items():
            if net.driver is not None:
                points[name].append(self.position_of(net.driver[0]))
            elif name in self.pads:
                points[name].append(self.pads[name])
            for sink_name, _pin in net.sinks:
                points[name].append(self.position_of(sink_name))
            if name in self.pads and net.driver is not None:
                points[name].append(self.pads[name])
        return points


def _net_cost(
    points: List[int], pos_x: List[float], pos_y: List[float], weight: float
) -> float:
    """Exact weighted half-perimeter of one net; the sweep inlines this."""
    if len(points) == 2:
        a, b = points
        return weight * (abs(pos_x[a] - pos_x[b]) + abs(pos_y[a] - pos_y[b]))
    xs = [pos_x[i] for i in points]
    ys = [pos_y[i] for i in points]
    return weight * ((max(xs) - min(xs)) + (max(ys) - min(ys)))


class AnnealingPlacer:
    """Criticality-weighted HPWL simulated annealing."""

    def __init__(
        self,
        netlist: Netlist,
        grid: PlacementGrid,
        net_weights: Optional[Mapping[str, float]] = None,
        seed: int = 0,
        locked: Optional[Mapping[str, Site]] = None,
        effort: float = 1.0,
    ):
        self.netlist = netlist
        self.grid = grid
        self.rng = random.Random(seed)
        self.net_weights = dict(net_weights or {})
        self.locked = dict(locked or {})
        self.effort = effort

        self._instances = list(netlist.instances)
        self._movable = [n for n in self._instances if n not in self.locked]
        if grid.n_sites < len(self._instances):
            raise ValueError(
                f"grid has {grid.n_sites} sites for {len(self._instances)} instances"
            )
        if not all(grid.contains(site) for site in self.locked.values()):
            raise ValueError("locked sites must lie inside the grid")
        self._index = {name: i for i, name in enumerate(self._instances)}
        self._movable_index = [self._index[name] for name in self._movable]

        # Active nets (>= 2 pin points; only these can cost anything) as
        # lists of distinct point indices, and per instance the indices
        # of its nets in netlist net order (deterministic — never
        # hash-randomized set order).  Pads are fixed points numbered
        # after the instances.
        self.pads = grid.pad_positions(list(netlist.inputs) + list(netlist.outputs))
        self._pad_x: List[float] = []
        self._pad_y: List[float] = []
        self._nets: List[str] = []
        self._points: List[List[int]] = []
        self._weight: List[float] = []
        self._nets_of: List[List[int]] = [[] for _ in self._instances]
        index = self._index
        for net_name, net in netlist.nets.items():
            pins = [index[sink_name] for sink_name, _pin in net.sinks]
            if net.driver is not None:
                pins.insert(0, index[net.driver[0]])
            pad = self.pads.get(net_name)
            if len(pins) + (pad is not None) < 2:
                continue
            k = len(self._nets)
            points = list(dict.fromkeys(pins))
            for i in points:
                self._nets_of[i].append(k)
            if pad is not None:
                points.append(len(self._instances) + len(self._pad_x))
                self._pad_x.append(pad[0])
                self._pad_y.append(pad[1])
            self._nets.append(net_name)
            self._points.append(points)
            self._weight.append(1.0 + self.net_weights.get(net_name, 0.0))

        # Populated by place(): the final exact cost, and aggregate
        # move-kernel counters (proposed = drawn proposals, evaluated =
        # proposals that reached the cost kernel, accepted = committed
        # moves) for observability and benchmarks.  "engine" is a fixed
        # label kept because design metrics (and the digests of served
        # results) include these stats.
        self.final_cost: Optional[float] = None
        self.stats: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def _initial_sites(self) -> Dict[str, Site]:
        sites: Dict[str, Site] = dict(self.locked)
        taken = set(self.locked.values())
        free = [site for site in self.grid.sites() if site not in taken]
        self.rng.shuffle(free)
        for name in self._movable:
            sites[name] = free.pop()
        return sites

    def _start(self, sites: Dict[str, Site]) -> float:
        """Load ``sites`` into the kernel state; returns the total cost."""
        grid = self.grid
        pitch = grid.pitch
        # Site-center tables: center_of((c, r)) without the per-move
        # method call (identical expression, identical bits).
        self._col_x = [(col + 0.5) * pitch for col in range(grid.cols)]
        self._row_y = [(row + 0.5) * pitch for row in range(grid.rows)]
        n = len(self._instances)
        self._col = [0] * n
        self._row = [0] * n
        self._occ = [-1] * grid.n_sites
        for name, (col, row) in sites.items():
            i = self._index.get(name)
            if i is not None:
                self._col[i] = col
                self._row[i] = row
            self._occ[row * grid.cols + col] = (
                _LOCKED if name in self.locked else i
            )
        self._x = [self._col_x[c] for c in self._col] + self._pad_x
        self._y = [self._row_y[r] for r in self._row] + self._pad_y
        self._cost = [
            _net_cost(points, self._x, self._y, w)
            for points, w in zip(self._points, self._weight)
        ]
        return self._total()

    def _total(self) -> float:
        """The exact total: per-net costs summed left to right."""
        total = 0.0
        for cost in self._cost:
            total += cost
        return total

    def net_costs(self) -> Dict[str, float]:
        """Per-net weighted cost of every active net after :meth:`place`."""
        return dict(zip(self._nets, self._cost))

    # ------------------------------------------------------------------
    def place(self) -> Placement:
        with _obs.span(
            "sa.place",
            cells=len(self._instances),
            movable=len(self._movable),
            nets=len(self._nets),
        ) as _span:
            placement = self._place(_span)
        return placement

    def _place(self, _span) -> Placement:
        sites = self._initial_sites()
        total = self._start(sites)

        if not self._movable:
            self.final_cost = total
            self.stats = {
                "engine": "array", "temperatures": 0,
                "proposed": 0, "evaluated": 0, "accepted": 0,
            }
            _span.set(final_cost=total, temperatures=0)
            return Placement(grid=self.grid, sites=sites, pads=self.pads)

        n = len(self._movable)
        moves_per_t = min(
            MOVE_CAP_PER_TEMPERATURE,
            max(200, int(self.effort * MOVES_PER_CELL * n ** 1.33)),
        )

        # Initial temperature: std-dev of cost over random perturbations.
        n_samples = min(100, moves_per_t)
        deltas: List[float] = []
        self._sweep(self.grid.cols, n_samples, 0.0, deltas)
        for delta in deltas:
            total += delta
        samples = [abs(delta) for delta in deltas]
        temperature = 20.0 * (sum(samples) / max(1, len(samples)) or 1.0)

        range_limit = float(max(self.grid.cols, self.grid.rows))
        min_temperature = 0.005 * total / max(1, len(self.netlist.nets))
        n_temperatures = 0
        proposed = n_samples
        evaluated_total = 0
        accepted_total = 0
        while temperature > max(min_temperature, 1e-9):
            # Per-temperature telemetry (accept rate, cost, moves/s) is
            # recorded at sweep granularity: one guarded check per sweep,
            # nothing in the per-move hot loop, and nothing that reads or
            # advances the RNG — traced and untraced anneals are
            # bit-identical.
            observing = _obs.active()
            sweep_temperature = temperature
            sweep_start = time.perf_counter() if observing else 0.0  # check: allow(DT002, CK003) trace timing
            accepted, evaluated = self._sweep(
                int(max(1, range_limit)), moves_per_t, temperature
            )
            ratio = accepted / max(1, moves_per_t)
            # VPR schedule.
            if ratio > 0.96:
                temperature *= 0.5
            elif ratio > 0.8:
                temperature *= 0.9
            elif ratio > 0.15:
                temperature *= 0.95
            else:
                temperature *= 0.8
            range_limit = max(1.0, range_limit * (1.0 - 0.44 + ratio))
            # Per-net costs are always exact; re-summing them each
            # temperature drops the drift of the running total.
            total = self._total()
            n_temperatures += 1
            proposed += moves_per_t
            evaluated_total += evaluated
            accepted_total += accepted
            if observing:
                sweep_seconds = time.perf_counter() - sweep_start  # check: allow(DT002, CK003) trace timing
                _obs.point(
                    "sa.temperature",
                    temperature=sweep_temperature,
                    moves=moves_per_t,
                    evaluated=evaluated,
                    accepted=accepted,
                    accept_rate=ratio,
                    cost=total,
                    range_limit=range_limit,
                    moves_per_s=(
                        moves_per_t / sweep_seconds if sweep_seconds > 0 else 0.0
                    ),
                )
                _obs.observe("sa.accept_rate", ratio, RATIO_BUCKETS)
                _obs.observe("sa.temperature.seconds", sweep_seconds)
                _obs.counter("sa.moves", moves_per_t)
                _obs.counter("sa.evaluated", evaluated)
                _obs.counter("sa.accepted", accepted)
            if ratio < 0.01 and temperature < min_temperature * 10:
                break

        self.final_cost = total
        self.stats = {
            "engine": "array",
            "temperatures": n_temperatures,
            "proposed": proposed,
            "evaluated": evaluated_total,
            "accepted": accepted_total,
        }
        _span.set(final_cost=total, temperatures=n_temperatures)
        _obs.counter("sa.placements")
        for name in self._movable:
            i = self._index[name]
            sites[name] = (self._col[i], self._row[i])
        return Placement(grid=self.grid, sites=sites, pads=self.pads)

    # ------------------------------------------------------------------
    def _sweep(
        self,
        range_limit: int,
        moves: int,
        temperature: float,
        deltas: Optional[List[float]] = None,
    ) -> Tuple[int, int]:
        """Propose ``moves`` moves at ``temperature``; (accepted, evaluated).

        With a ``deltas`` list this is the initial-temperature sampling
        pass instead: every evaluated move is accepted without a
        Metropolis draw, and every proposal's cost delta (0.0 for one
        that moves nothing) is appended.
        """
        rng = self.rng
        getrandbits = rng.getrandbits
        rng_random = rng.random
        exp = math.exp
        movable = self._movable_index
        n_mov = len(movable)
        k_mov = n_mov.bit_length()
        span = 2 * range_limit + 1
        k_span = span.bit_length()
        cols = self.grid.cols
        col_hi = cols - 1
        row_hi = self.grid.rows - 1
        col_x, row_y = self._col_x, self._row_y
        site_col, site_row, occ = self._col, self._row, self._occ
        pos_x, pos_y, cost = self._x, self._y, self._cost
        nets_of, points_of, weight = self._nets_of, self._points, self._weight
        sampling = deltas is not None
        accepted = 0
        evaluated = 0
        for _ in range(moves):
            r = getrandbits(k_mov)
            while r >= n_mov:
                r = getrandbits(k_mov)
            mi = movable[r]
            old_col = site_col[mi]
            old_row = site_row[mi]
            r = getrandbits(k_span)
            while r >= span:
                r = getrandbits(k_span)
            col = old_col - range_limit + r
            if col < 0:
                col = 0
            elif col > col_hi:
                col = col_hi
            r = getrandbits(k_span)
            while r >= span:
                r = getrandbits(k_span)
            row = old_row - range_limit + r
            if row < 0:
                row = 0
            elif row > row_hi:
                row = row_hi
            if col == old_col and row == old_row:
                if sampling:
                    deltas.append(0.0)
                continue
            new_site = row * cols + col
            oi = occ[new_site]
            if oi == _LOCKED:
                if sampling:
                    deltas.append(0.0)
                continue
            evaluated += 1

            # Stage both cells' new coordinates, then recompute every
            # touched net exactly: the mover's nets first, then the
            # other cell's.  A swap leaves the point set of a net of
            # both cells unchanged, so such a net adds exactly 0.0 to
            # the delta each time it comes up.
            old_x = pos_x[mi]
            old_y = pos_y[mi]
            new_x = col_x[col]
            new_y = row_y[row]
            pos_x[mi] = new_x
            pos_y[mi] = new_y
            if oi >= 0:
                pos_x[oi] = old_x
                pos_y[oi] = old_y
                touched = nets_of[mi] + nets_of[oi]
            else:
                touched = nets_of[mi]
            staged = []
            delta = 0.0
            for k in touched:
                points = points_of[k]
                if len(points) == 2:
                    a, b = points
                    c = weight[k] * (
                        abs(pos_x[a] - pos_x[b]) + abs(pos_y[a] - pos_y[b])
                    )
                else:
                    a = points[0]
                    xmin = xmax = pos_x[a]
                    ymin = ymax = pos_y[a]
                    for a in points:
                        x = pos_x[a]
                        if x < xmin:
                            xmin = x
                        elif x > xmax:
                            xmax = x
                        y = pos_y[a]
                        if y < ymin:
                            ymin = y
                        elif y > ymax:
                            ymax = y
                    c = weight[k] * ((xmax - xmin) + (ymax - ymin))
                delta += c - cost[k]
                staged.append((k, c))

            if sampling or delta <= 0 or rng_random() < exp(-delta / temperature):
                accepted += 1
                for k, c in staged:
                    cost[k] = c
                site_col[mi] = col
                site_row[mi] = row
                occ[new_site] = mi
                occ[old_row * cols + old_col] = oi
                if oi >= 0:
                    site_col[oi] = old_col
                    site_row[oi] = old_row
                if sampling:
                    deltas.append(delta)
            else:
                pos_x[mi] = old_x
                pos_y[mi] = old_y
                if oi >= 0:
                    pos_x[oi] = new_x
                    pos_y[oi] = new_y
        return accepted, evaluated

    # ------------------------------------------------------------------
    def benchmark_kernel(
        self, n_moves: int, temperature: float = 1.0
    ) -> Dict[str, float]:
        """Time the raw move kernel: ``n_moves`` proposals at one temperature.

        A microbenchmark entry point (no schedule, no per-temperature
        totals): builds the initial placement, then runs a single
        fixed-temperature sweep.  Returns moves proposed/evaluated/
        accepted, wall seconds, and moves per second.  Placement state
        is left behind for inspection but no :class:`Placement` is
        produced.
        """
        self._start(self._initial_sites())
        if not self._movable:
            return {"moves": 0, "evaluated": 0, "accepted": 0,
                    "seconds": 0.0, "moves_per_s": 0.0}
        range_limit = int(max(self.grid.cols, self.grid.rows))
        start = time.perf_counter()  # check: allow(DT002) microbenchmark timing
        accepted, evaluated = self._sweep(range_limit, n_moves, temperature)
        seconds = time.perf_counter() - start  # check: allow(DT002) microbenchmark timing
        return {
            "moves": n_moves,
            "evaluated": evaluated,
            "accepted": accepted,
            "seconds": seconds,
            "moves_per_s": n_moves / seconds if seconds > 0 else 0.0,
        }
