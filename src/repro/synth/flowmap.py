"""FlowMap: depth-optimal K-feasible cut computation via max-flow/min-cut.

The paper's logic-compaction step "finds clusters of logic or supernodes
corresponding to functions with 3 or less inputs ... using a maxflow-
mincut algorithm similar to Flowmap [5]".  This module implements that
algorithm (Cong & Ding, 1994) on an arbitrary DAG:

* labels are computed in topological order; ``label(t)`` is the optimal
  mapping depth of ``t`` in unit-delay K-input clusters;
* for each node, the existence of a height-``(l_max - 1)`` K-feasible cut
  is decided by max-flow on the node-split cone network, with every node
  in the cone carrying unit capacity and all nodes of label ``l_max``
  collapsed into the sink;
* the min-cut (the supernode's input boundary) is recovered from the
  residual graph.

Nodes are indexed once in topological order and the network is never
built: augmenting paths are found depth-first on the implicit residual
graph of integer fanin/fanout lists (see ``_CutFinder``).  The cut read
off the last, failing search is the source side of the residual graph,
which is the same set after *any* maximum flow (the unique source-minimal
min cut), so the search order cannot change a label or a cut.

Cones are truncated at ``cone_cap`` nodes for very deep nodes; past the
cap, nodes at the frontier are treated as pseudo-sources (a standard
practical approximation that can only make labels conservative).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from ..obs import core as _obs

Node = Hashable

#: Default cone-size cap before frontier truncation kicks in.
DEFAULT_CONE_CAP = 3000


@dataclass
class FlowMapResult:
    """Labels and best cuts for every node."""

    labels: Dict[Node, int]
    cuts: Dict[Node, FrozenSet[Node]]

    def depth(self) -> int:
        return max(self.labels.values(), default=0)


class FlowMap:
    """FlowMap labeling over a DAG given by fanin lists.

    Parameters
    ----------
    fanins:
        Node -> fanin nodes.  Nodes absent from the mapping (or mapping to
        an empty sequence) are sources with label 0.
    k:
        Cluster input bound (3 for the paper's supernodes).
    """

    def __init__(
        self,
        fanins: Mapping[Node, Sequence[Node]],
        k: int = 3,
        cone_cap: int = DEFAULT_CONE_CAP,
    ):
        self.fanins: Dict[Node, Tuple[Node, ...]] = {
            node: tuple(fs) for node, fs in fanins.items()
        }
        self.k = k
        self.cone_cap = cone_cap

    # ------------------------------------------------------------------
    def _topological_order(self) -> List[Node]:
        indegree: Dict[Node, int] = {}
        dependents: Dict[Node, List[Node]] = {}
        nodes: Set[Node] = set(self.fanins)
        for node, fanins in self.fanins.items():
            for fanin in fanins:
                nodes.add(fanin)
        for node in nodes:
            indegree.setdefault(node, 0)
        for node, fanins in self.fanins.items():
            unique_fanins = dict.fromkeys(fanins)
            for fanin in unique_fanins:
                dependents.setdefault(fanin, []).append(node)
            indegree[node] = len(unique_fanins)
        queue = deque(sorted((n for n, d in indegree.items() if d == 0), key=repr))
        order: List[Node] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for dep in dependents.get(node, ()):  # pragma: no branch
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    queue.append(dep)
        if len(order) != len(nodes):
            raise ValueError("cycle detected in FlowMap input graph")
        return order

    # ------------------------------------------------------------------
    def compute(self) -> FlowMapResult:
        """Compute labels and min-height K-feasible cuts for all nodes."""
        order = self._topological_order()
        index = {node: i for i, node in enumerate(order)}
        finder = _CutFinder(
            [[index[f] for f in self.fanins.get(node, ())] for node in order],
            self.k,
            self.cone_cap,
        )
        label = finder.label
        labels: Dict[Node, int] = {}
        cuts: Dict[Node, FrozenSet[Node]] = {}
        with _obs.span("synth.flowmap", k=self.k) as sp:
            for t, node in enumerate(order):
                fanin_ids = finder.fanins[t]
                if not fanin_ids:
                    labels[node] = 0
                    cuts[node] = frozenset({node})
                    continue
                l_max = max(label[f] for f in fanin_ids)
                cut = finder.min_height_cut(t, l_max)
                if cut is not None:
                    label[t] = l_max
                    cuts[node] = frozenset(order[v] for v in cut)
                else:
                    label[t] = l_max + 1
                    cuts[node] = frozenset(self.fanins[node])
                labels[node] = label[t]
            counters = {
                "nodes": len(order),
                "networks": finder.networks,
                "cone_nodes": finder.cone_nodes,
                "augmentations": finder.augmentations,
            }
            sp.set(**counters)
        for name, value in counters.items():
            _obs.counter(f"flowmap.{name}", value)
        return FlowMapResult(labels=labels, cuts=cuts)


class _CutFinder:
    """Min-height cuts on an integer-indexed DAG, without a flow network.

    The node-split network of a cone is never materialized.  Node ``v``
    stands for two vertices, ``2v`` (its "in" side) and ``2v + 1`` (its
    "out" side), and the residual graph is walked straight off the fanin
    and fanout lists, the per-call cone/sink stamps and two flow records:
    ``saturated`` (split edges carrying their unit of flow) and
    ``edge_flow`` (flow on the uncapacitated fanin edges).  Edges from
    the super-source and into the sink carry no record: the searches
    never leave the sink or re-enter the source.
    """

    def __init__(self, fanins: List[List[int]], k: int, cone_cap: int):
        n = len(fanins)
        self.fanins = fanins
        self.fanouts: List[List[int]] = [[] for _ in range(n)]
        for v, fanin_ids in enumerate(fanins):
            for u in dict.fromkeys(fanin_ids):
                self.fanouts[u].append(v)
        self.k = k
        self.cone_cap = cone_cap
        self.label = [0] * n
        # Per-call stamps: in the current cone / on its sink side.
        self.stamp = 0
        self.in_cone = [0] * n
        self.sink = [0] * n
        # Per-search stamps and search-tree parents over split vertices.
        self.mark = 0
        self.seen = [0] * (2 * n)
        self.parent = [0] * (2 * n)
        self.networks = 0
        self.cone_nodes = 0
        self.augmentations = 0

    def min_height_cut(self, target: int, l_max: int) -> Optional[List[int]]:
        """A K-feasible cut of height ``l_max - 1``, or ``None``.

        The flow problem is the node-split cone network: nodes labeled
        ``l_max`` (plus ``target``) collapse into the sink, every other
        cone node has capacity 1, and sources (or frontier nodes past the
        cone cap) hang off the super-source.
        """
        fanins = self.fanins
        label = self.label
        in_cone = self.in_cone
        sink = self.sink
        self.stamp += 1
        stamp = self.stamp
        # Transitive fanin cone of ``target`` (inclusive), capped.
        cone: List[int] = []
        stack = [target]
        while stack:
            v = stack.pop()
            if in_cone[v] == stamp:
                continue
            in_cone[v] = stamp
            cone.append(v)
            if len(cone) >= self.cone_cap:
                break
            stack.extend(fanins[v])
        self.cone_nodes += len(cone)
        sink[target] = stamp
        for v in cone:
            if label[v] == l_max:
                sink[v] = stamp
        if len(cone) < self.cone_cap:
            # The walk ran dry, so every fanin of a cone node is in it.
            frontier = [v for v in cone if not fanins[v] and sink[v] != stamp]
        else:
            frontier = []
            for v in cone:
                fanin_ids = fanins[v]
                if sink[v] == stamp:
                    # Truncation cut a sink-side node off from its fanins,
                    # so a source-to-sink path is missing from the network;
                    # be conservative.
                    if any(in_cone[f] != stamp for f in fanin_ids):
                        return None
                elif not fanin_ids or any(
                    in_cone[f] != stamp for f in fanin_ids
                ):
                    frontier.append(v)
        self.networks += 1

        saturated: Set[int] = set()
        edge_flow: Dict[Tuple[int, int], int] = {}
        flow = 0
        while self._augment(frontier, saturated, edge_flow):
            flow += 1
            if flow > self.k:
                return None
        if flow == 0:
            return None

        # The search that failed to reach the sink marked exactly the
        # residual source side: the cut is every split edge leaving it,
        # ``flow`` of them.
        seen = self.seen
        mark = self.mark
        return [
            v for v in cone
            if sink[v] != stamp and seen[2 * v] == mark
            and seen[2 * v + 1] != mark
        ]

    def _augment(
        self,
        frontier: List[int],
        saturated: Set[int],
        edge_flow: Dict[Tuple[int, int], int],
    ) -> bool:
        """Push one unit along a depth-first augmenting path, if any."""
        fanins = self.fanins
        fanouts = self.fanouts
        in_cone = self.in_cone
        sink = self.sink
        stamp = self.stamp
        seen = self.seen
        parent = self.parent
        self.mark += 1
        mark = self.mark
        stack: List[int] = []
        for v in frontier:
            x = 2 * v
            seen[x] = mark
            parent[x] = -1
            stack.append(x)
        while stack:
            x = stack.pop()
            v = x >> 1
            if x & 1:
                # Out side: forward along uncapacitated fanout edges, or
                # back across a split edge that carries flow.
                for w in fanouts[v]:
                    if in_cone[w] != stamp:
                        continue
                    if sink[w] == stamp:
                        self._push(x, saturated, edge_flow)
                        return True
                    y = 2 * w
                    if seen[y] != mark:
                        seen[y] = mark
                        parent[y] = x
                        stack.append(y)
                if v in saturated and seen[x - 1] != mark:
                    seen[x - 1] = mark
                    parent[x - 1] = x
                    stack.append(x - 1)
            elif v in saturated:
                # In side of a node carrying flow: that unit arrived on a
                # fanin edge, which can be walked back.
                for u in fanins[v]:
                    y = 2 * u + 1
                    if seen[y] != mark and edge_flow.get((u, v)):
                        seen[y] = mark
                        parent[y] = x
                        stack.append(y)
            elif seen[x + 1] != mark:
                # In side of an idle node (no fanin edge into it carries
                # flow): across its split edge.
                seen[x + 1] = mark
                parent[x + 1] = x
                stack.append(x + 1)
        return False

    def _push(
        self,
        last: int,
        saturated: Set[int],
        edge_flow: Dict[Tuple[int, int], int],
    ) -> None:
        """Augment the search-tree path ending at out-vertex ``last``."""
        self.augmentations += 1
        parent = self.parent
        y = last
        x = parent[y]
        while x >= 0:
            if x >> 1 == y >> 1:
                if x & 1:
                    saturated.discard(y >> 1)
                else:
                    saturated.add(y >> 1)
            elif x & 1:
                key = (x >> 1, y >> 1)
                edge_flow[key] = edge_flow.get(key, 0) + 1
            else:
                edge_flow[(y >> 1, x >> 1)] -= 1
            y = x
            x = parent[y]


def flowmap_labels(
    fanins: Mapping[Node, Sequence[Node]], k: int = 3
) -> FlowMapResult:
    """One-shot FlowMap computation."""
    return FlowMap(fanins, k=k).compute()
