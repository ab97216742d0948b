"""Reference oracles for the synthesis kernels.

``ReferenceFlowMap`` is the straightforward FlowMap: per node it builds an
explicit dict-of-tuples node-split flow network over the cone, finds
breadth-first augmenting paths and reads the min cut from a separate
residual reachability pass.  ``reference_balance`` keys its leaf sort on
a fresh full-cone depth search per literal.  Both are slow and obviously
right; the production ``FlowMap`` and ``balance`` must agree with them
exactly (``tests/test_synth_oracles.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from repro.synth.aig import AIG, lit_inverted, lit_node
from repro.synth.flowmap import DEFAULT_CONE_CAP, FlowMap, FlowMapResult, Node


class ReferenceFlowMap(FlowMap):
    """FlowMap with an explicit flow network per node."""

    def __init__(
        self,
        fanins: Mapping[Node, Sequence[Node]],
        k: int = 3,
        cone_cap: int = DEFAULT_CONE_CAP,
    ):
        super().__init__(fanins, k=k, cone_cap=cone_cap)
        self.labels: Dict[Node, int] = {}
        self.cuts: Dict[Node, FrozenSet[Node]] = {}

    def is_source(self, node: Node) -> bool:
        return not self.fanins.get(node)

    def compute(self) -> FlowMapResult:
        for node in self._topological_order():
            if self.is_source(node):
                self.labels[node] = 0
                self.cuts[node] = frozenset({node})
                continue
            fanin_nodes = self.fanins[node]
            l_max = max(self.labels[f] for f in fanin_nodes)
            cut = self._min_height_cut(node, l_max)
            if cut is not None:
                self.labels[node] = l_max
                self.cuts[node] = cut
            else:
                self.labels[node] = l_max + 1
                self.cuts[node] = frozenset(fanin_nodes)
        return FlowMapResult(labels=dict(self.labels), cuts=dict(self.cuts))

    def _collect_cone(self, target: Node) -> Set[Node]:
        """Transitive fanin cone of ``target`` (inclusive), capped."""
        cone: Set[Node] = set()
        stack = [target]
        while stack:
            node = stack.pop()
            if node in cone:
                continue
            cone.add(node)
            if len(cone) >= self.cone_cap:
                break
            stack.extend(self.fanins.get(node, ()))
        return cone

    def _min_height_cut(
        self, target: Node, l_max: int
    ) -> FrozenSet[Node] | None:
        cone = self._collect_cone(target)
        sink_side = {
            node for node in cone
            if node == target or self.labels.get(node, 0) == l_max
        }
        for node in sink_side:
            if any(f not in cone for f in self.fanins.get(node, ())):
                return None
        capacity: Dict[Tuple, Dict[Tuple, int]] = {}

        def add_edge(u: Tuple, v: Tuple, cap: int) -> None:
            capacity.setdefault(u, {})[v] = (
                capacity.setdefault(u, {}).get(v, 0) + cap
            )
            capacity.setdefault(v, {}).setdefault(u, 0)

        SOURCE = ("$source$",)
        SINK = ("$sink$",)
        INF = 1 << 20

        for node in cone:
            if node in sink_side:
                continue
            add_edge((node, "in"), (node, "out"), 1)
            fanins = self.fanins.get(node, ())
            if not fanins or any(f not in cone for f in fanins):
                add_edge(SOURCE, (node, "in"), INF)
        for node in cone:
            for fanin in self.fanins.get(node, ()):
                if fanin not in cone:
                    continue
                head = SINK if node in sink_side else (node, "in")
                if fanin in sink_side:
                    continue
                add_edge((fanin, "out"), head, INF)

        flow = 0
        while flow <= self.k:
            parent: Dict[Tuple, Tuple] = {SOURCE: SOURCE}
            queue = deque([SOURCE])
            while queue and SINK not in parent:
                u = queue.popleft()
                for v, cap in capacity.get(u, {}).items():
                    if cap > 0 and v not in parent:
                        parent[v] = u
                        queue.append(v)
            if SINK not in parent:
                break
            v = SINK
            while v != SOURCE:
                u = parent[v]
                capacity[u][v] -= 1
                capacity[v][u] += 1
                v = u
            flow += 1
        if flow > self.k:
            return None

        reachable: Set[Tuple] = {SOURCE}
        queue = deque([SOURCE])
        while queue:
            u = queue.popleft()
            for v, cap in capacity.get(u, {}).items():
                if cap > 0 and v not in reachable:
                    reachable.add(v)
                    queue.append(v)
        cut = set()
        for node in cone:
            if node in sink_side:
                continue
            if (node, "in") in reachable and (node, "out") not in reachable:
                cut.add(node)
        if not cut or len(cut) > self.k:
            return None
        return frozenset(cut)


def reference_balance(aig: AIG) -> AIG:
    """``balance`` with a full-cone depth search as the leaf sort key."""
    fanouts: Dict[int, int] = {}
    for node in aig.and_nodes():
        for f in aig.fanins(node):
            fanouts[lit_node(f)] = fanouts.get(lit_node(f), 0) + 1
    for _, literal in aig.outputs:
        fanouts[lit_node(literal)] = fanouts.get(lit_node(literal), 0) + 1

    fresh = AIG(aig.name)
    mapping: Dict[int, int] = {0: 0}
    for name in aig.input_names:
        mapping[len(mapping)] = lit_node(fresh.add_input(name))
    new_lit_of: Dict[int, int] = {}

    def tree_leaves(literal: int, is_root: bool) -> List[int]:
        node = lit_node(literal)
        if (
            lit_inverted(literal)
            or not aig.is_and(node)
            or (not is_root and fanouts.get(node, 0) > 1)
        ):
            return [literal]
        f0, f1 = aig.fanins(node)
        return tree_leaves(f0, False) + tree_leaves(f1, False)

    def rebuild(literal: int) -> int:
        node = lit_node(literal)
        if node in new_lit_of:
            base = new_lit_of[node]
        elif not aig.is_and(node):
            base = 2 * mapping[node]
        else:
            leaves = tree_leaves(2 * node, True)
            new_leaves = sorted(
                (rebuild(leaf) for leaf in leaves),
                key=lambda lit_: _depth_of(fresh, lit_),
            )
            base = fresh.and_many(new_leaves)
            new_lit_of[node] = base
        return base ^ (literal & 1)

    for name, literal in aig.outputs:
        fresh.add_output(name, rebuild(literal))
    return fresh


def _depth_of(aig: AIG, literal: int) -> int:
    """Longest path from ``literal``'s node down to an input, by DFS."""
    node = lit_node(literal)
    depth = 0
    stack = [(node, 0)]
    seen: Dict[int, int] = {}
    while stack:
        current, d = stack.pop()
        if current in seen and seen[current] >= d:
            continue
        seen[current] = d
        depth = max(depth, d)
        if aig.is_and(current):
            f0, f1 = aig.fanins(current)
            stack.append((lit_node(f0), d + 1))
            stack.append((lit_node(f1), d + 1))
    return depth
