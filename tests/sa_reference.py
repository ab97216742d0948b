"""Reference oracle for the annealing placer.

``ReferencePlacer`` is the placer as it was before the count-free
kernel: one ``_NetBox`` per net carrying an exact bounding box with
boundary-occupancy counts, moves applied optimistically (O(1) box
updates, a full rebuild only when a boundary empties) and rolled back on
rejection, an exact rebuild of every box at each temperature, and
proposals drawn through ``randrange``/``randint``.  It is slow and
obviously right; the production ``AnnealingPlacer`` must agree with it
bit for bit (``tests/test_sa_oracle.py``): same sites in the same
insertion order, same per-net costs and final cost, same counters and
the same RNG stream position.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Mapping, Optional, Tuple

from repro.netlist.core import Netlist
from repro.place.grid import PlacementGrid, Site
from repro.place.sa import (
    MOVE_CAP_PER_TEMPERATURE,
    MOVES_PER_CELL,
    Placement,
)


class _NetBox:
    """Exact bounding box of a net's point multiset with boundary counts.

    ``n_*`` counts how many points sit on each boundary; removing the
    last boundary point invalidates the box (``remove`` returns False)
    and the caller rebuilds it from scratch.  Everywhere else updates
    are O(1).
    """

    __slots__ = ("xmin", "xmax", "ymin", "ymax",
                 "n_xmin", "n_xmax", "n_ymin", "n_ymax")

    def __init__(self, points: List[Tuple[float, float]]):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        self.xmin = min(xs)
        self.xmax = max(xs)
        self.ymin = min(ys)
        self.ymax = max(ys)
        self.n_xmin = xs.count(self.xmin)
        self.n_xmax = xs.count(self.xmax)
        self.n_ymin = ys.count(self.ymin)
        self.n_ymax = ys.count(self.ymax)

    def half_perimeter(self) -> float:
        return (self.xmax - self.xmin) + (self.ymax - self.ymin)

    def add(self, x: float, y: float) -> None:
        if x > self.xmax:
            self.xmax, self.n_xmax = x, 1
        elif x == self.xmax:
            self.n_xmax += 1
        if x < self.xmin:
            self.xmin, self.n_xmin = x, 1
        elif x == self.xmin:
            self.n_xmin += 1
        if y > self.ymax:
            self.ymax, self.n_ymax = y, 1
        elif y == self.ymax:
            self.n_ymax += 1
        if y < self.ymin:
            self.ymin, self.n_ymin = y, 1
        elif y == self.ymin:
            self.n_ymin += 1

    def remove(self, x: float, y: float) -> bool:
        """Remove one point; False when a boundary emptied (rebuild me)."""
        ok = True
        if x == self.xmax:
            self.n_xmax -= 1
            ok = ok and self.n_xmax > 0
        if x == self.xmin:
            self.n_xmin -= 1
            ok = ok and self.n_xmin > 0
        if y == self.ymax:
            self.n_ymax -= 1
            ok = ok and self.n_ymax > 0
        if y == self.ymin:
            self.n_ymin -= 1
            ok = ok and self.n_ymin > 0
        return ok

    def state(self) -> Tuple:
        return (self.xmin, self.xmax, self.ymin, self.ymax,
                self.n_xmin, self.n_xmax, self.n_ymin, self.n_ymax)

    def restore(self, state: Tuple) -> None:
        (self.xmin, self.xmax, self.ymin, self.ymax,
         self.n_xmin, self.n_xmax, self.n_ymin, self.n_ymax) = state


class _ObjectCostEngine:
    """The legacy cost path: one ``_NetBox`` per net, dict-keyed state.

    Moves are applied optimistically (``apply_move``) and rolled back on
    rejection (``undo``); the placer drives it through the legacy
    apply/undo loop (``speculative = False``).
    """

    name = "object"
    speculative = False

    def __init__(self, placer: "ReferencePlacer", sites: Dict[str, Site]):
        self.placer = placer
        self.sites = sites
        self.pos: Dict[str, Tuple[float, float]] = {
            name: placer.grid.center_of(site) for name, site in sites.items()
        }
        self.boxes: Dict[str, _NetBox] = {}
        self.net_cost: Dict[str, float] = {
            name: 0.0 for name in placer.netlist.nets
        }
        self._saved: List[Tuple[str, float, Tuple]] = []
        self._last_pos: Tuple = ()

    # -- exact state -----------------------------------------------------
    def _net_points(self, net_name: str) -> List[Tuple[float, float]]:
        placer = self.placer
        net = placer.netlist.nets[net_name]
        points: List[Tuple[float, float]] = []
        if net.driver is not None:
            points.append(placer.grid.center_of(self.sites[net.driver[0]]))
        if net_name in placer.pads:
            points.append(placer.pads[net_name])
        for sink_name, _pin in net.sinks:
            points.append(placer.grid.center_of(self.sites[sink_name]))
        return points

    def _build_box(self, net_name: str) -> _NetBox:
        return _NetBox(self._net_points(net_name))

    def rebuild(self) -> float:
        """Full recompute of every active net's box and cost; returns total."""
        placer = self.placer
        for net_name in placer._active_nets:
            box = self._build_box(net_name)
            self.boxes[net_name] = box
            self.net_cost[net_name] = placer._weight[net_name] * box.half_perimeter()
        return sum(self.net_cost.values())

    def net_costs(self) -> Dict[str, float]:
        """Per-net weighted cost for every active (>= 2 point) net."""
        return {net: self.net_cost[net] for net in self.placer._active_nets}

    # -- move path -------------------------------------------------------
    def apply_move(
        self, mover: str, other: Optional[str], old_site: Site, new_site: Site
    ) -> float:
        """Update positions/boxes for a swap already made in ``sites``.

        Only nets touching the moved instance(s) change, each in O(1) via
        its cached bounding box; call :meth:`undo` to roll back.
        """
        placer = self.placer
        pos = self.pos
        old_pt = pos[mover]
        new_pt = placer.grid.center_of(new_site)
        pos[mover] = new_pt
        if other is not None:
            pos[other] = old_pt
        self._last_pos = (mover, other, old_pt, new_pt)

        # Point relocations per net, in deterministic contribution order.
        changes: Dict[str, List[Tuple[Tuple[float, float], Tuple[float, float], int]]]
        changes = {}
        for net, count in placer._contrib_of[mover]:
            changes.setdefault(net, []).append((old_pt, new_pt, count))
        if other is not None:
            for net, count in placer._contrib_of[other]:
                changes.setdefault(net, []).append((new_pt, old_pt, count))

        boxes = self.boxes
        net_cost = self.net_cost
        delta = 0.0
        saved: List[Tuple[str, float, Tuple]] = []
        for net, moves in changes.items():
            box = boxes[net]
            saved.append((net, net_cost[net], box.state()))
            intact = True
            for from_pt, to_pt, count in moves:
                for _ in range(count):
                    box.add(to_pt[0], to_pt[1])
                    intact = box.remove(from_pt[0], from_pt[1]) and intact
            if not intact:
                box = self._build_box(net)
                boxes[net] = box
            cost = placer._weight[net] * box.half_perimeter()
            delta += cost - net_cost[net]
            net_cost[net] = cost
        self._saved = saved
        return delta

    def undo(self) -> None:
        mover, other, old_pt, new_pt = self._last_pos
        self.pos[mover] = old_pt
        if other is not None:
            self.pos[other] = new_pt
        for net, cost, state in self._saved:
            self.net_cost[net] = cost
            self.boxes[net].restore(state)



class ReferencePlacer:
    """Criticality-weighted HPWL annealing on the apply/undo object engine."""

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

        # Per-instance net contributions for incremental cost updates:
        # instance -> [(net, point multiplicity)], in netlist net order
        # (deterministic — never hash-randomized set order).  Only nets
        # with >= 2 points can ever have nonzero cost ("active").
        self._contrib_of: Dict[str, List[Tuple[str, int]]] = {
            name: [] for name in self._instances
        }
        self._active_nets: List[str] = []
        self._weight: Dict[str, float] = {}
        self.pads = grid.pad_positions(list(netlist.inputs) + list(netlist.outputs))
        for net_name, net in netlist.nets.items():
            counts: Dict[str, int] = {}
            if net.driver is not None:
                counts[net.driver[0]] = counts.get(net.driver[0], 0) + 1
            for sink_name, _pin in net.sinks:
                counts[sink_name] = counts.get(sink_name, 0) + 1
            n_points = sum(counts.values()) + (1 if net_name in self.pads else 0)
            if n_points < 2:
                continue
            self._active_nets.append(net_name)
            self._weight[net_name] = 1.0 + self.net_weights.get(net_name, 0.0)
            for member, count in counts.items():
                self._contrib_of[member].append((net_name, count))

        self._engine: Optional[_ObjectCostEngine] = None
        self.final_cost: Optional[float] = None
        self.stats: Dict[str, float] = {}

    def net_costs(self) -> Dict[str, float]:
        return self._engine.net_costs()

    # ------------------------------------------------------------------
    def _initial_sites(self) -> Dict[str, Site]:
        sites: Dict[str, Site] = dict(self.locked)
        taken = set(self.locked.values())
        free = [site for site in self.grid.sites() if site not in taken]
        self.rng.shuffle(free)
        for name in self._movable:
            sites[name] = free.pop()
        return sites

    # ------------------------------------------------------------------
    def place(self) -> Placement:
        sites = self._initial_sites()
        occupant: Dict[Site, Optional[str]] = {s: None for s in self.grid.sites()}
        for name, site in sites.items():
            occupant[site] = name
        engine = _ObjectCostEngine(self, sites)
        self._engine = engine
        total = engine.rebuild()

        if not self._movable:
            self.final_cost = total
            self.stats = {
                "engine": "array", "temperatures": 0,
                "proposed": 0, "evaluated": 0, "accepted": 0,
            }
            return Placement(grid=self.grid, sites=sites, pads=self.pads)

        n = len(self._movable)
        moves_per_t = min(
            MOVE_CAP_PER_TEMPERATURE,
            max(200, int(self.effort * MOVES_PER_CELL * n ** 1.33)),
        )

        # Initial temperature: std-dev of cost over random perturbations.
        n_samples = min(100, moves_per_t)
        samples, total = self._sample_legacy(
            engine, sites, occupant, n_samples, total
        )
        temperature = 20.0 * (sum(samples) / max(1, len(samples)) or 1.0)

        range_limit = float(max(self.grid.cols, self.grid.rows))
        min_temperature = 0.005 * total / max(1, len(self.netlist.nets))
        n_temperatures = 0
        proposed = n_samples
        evaluated_total = 0
        accepted_total = 0
        while temperature > max(min_temperature, 1e-9):
            accepted, evaluated = self._sweep_legacy(
                engine, sites, occupant, int(max(1, range_limit)),
                moves_per_t, temperature,
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
            # Periodic exact rebuild bounds float drift in the running total.
            total = engine.rebuild()
            n_temperatures += 1
            proposed += moves_per_t
            evaluated_total += evaluated
            accepted_total += accepted
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
        return Placement(grid=self.grid, sites=sites, pads=self.pads)

    # ------------------------------------------------------------------
    def _try_move(
        self,
        engine,
        sites: Dict[str, Site],
        occupant: Dict[Site, Optional[str]],
        range_limit: int,
    ) -> Tuple[float, bool]:
        """Propose one move; returns (delta, applied).

        The move is applied optimistically — sites/occupancy here, cost
        state inside the engine; call :meth:`_undo_move` to reject.
        """
        mover = self._movable[self.rng.randrange(len(self._movable))]
        old_site = sites[mover]
        col = old_site[0] + self.rng.randint(-range_limit, range_limit)
        row = old_site[1] + self.rng.randint(-range_limit, range_limit)
        new_site = self.grid.clamp(col, row)
        if new_site == old_site:
            return 0.0, False
        other = occupant[new_site]
        if other is not None and other in self.locked:
            return 0.0, False

        sites[mover] = new_site
        occupant[new_site] = mover
        occupant[old_site] = other
        if other is not None:
            sites[other] = old_site
        self._last_move = (mover, other, old_site, new_site)
        delta = engine.apply_move(mover, other, old_site, new_site)
        return delta, True

    def _undo_move(
        self,
        engine,
        sites: Dict[str, Site],
        occupant: Dict[Site, Optional[str]],
    ) -> None:
        mover, other, old_site, new_site = self._last_move
        sites[mover] = old_site
        occupant[old_site] = mover
        occupant[new_site] = other
        if other is not None:
            sites[other] = new_site
        engine.undo()

    # ------------------------------------------------------------------
    # Legacy loops (apply/undo engines): unchanged from the original
    # per-move path, kept as the oracle the speculative loops must match.
    def _sample_legacy(
        self,
        engine,
        sites: Dict[str, Site],
        occupant: Dict[Site, Optional[str]],
        n: int,
        total: float,
    ) -> Tuple[List[float], float]:
        samples: List[float] = []
        for _ in range(n):
            delta, applied = self._try_move(engine, sites, occupant, self.grid.cols)
            samples.append(abs(delta))
            if applied:
                total += delta
        return samples, total

    def _sweep_legacy(
        self,
        engine,
        sites: Dict[str, Site],
        occupant: Dict[Site, Optional[str]],
        range_limit: int,
        moves: int,
        temperature: float,
    ) -> Tuple[int, int]:
        """One temperature sweep via optimistic apply + undo-on-reject."""
        accepted = 0
        evaluated = 0
        for _ in range(moves):
            delta, applied = self._try_move(engine, sites, occupant, range_limit)
            if not applied:
                continue
            evaluated += 1
            if delta <= 0 or self.rng.random() < math.exp(-delta / temperature):
                accepted += 1
            else:
                self._undo_move(engine, sites, occupant)
        return accepted, evaluated
