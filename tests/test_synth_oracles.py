"""FlowMap and ``balance`` against their reference oracles.

The production kernels are rewritten for speed; these tests hold them to
exact agreement with the straightforward versions in
``tests/flowmap_reference.py``: same labels, same cuts and the same dict
order from FlowMap, the same AIG arrays from ``balance``.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cells.library import granular_plb_library, lut_plb_library
from repro.flow.experiments import build_design
from repro.obs import core as obs_core
from repro.synth.aig import AIG
from repro.synth.compaction import _instance_graph
from repro.synth.flowmap import FlowMap
from repro.synth.from_netlist import CombCore, extract_core
from repro.synth.optimize import balance, optimize
from repro.synth.techmap import map_core

from flowmap_reference import ReferenceFlowMap, reference_balance


@st.composite
def dags(draw):
    """Fanin mappings with duplicate fanins and unlisted sources."""
    n_sources = draw(st.integers(min_value=1, max_value=6))
    names = [f"s{i}" for i in range(n_sources)]
    fanins = {}
    for name in names:
        # Unlisted sources appear only as someone's fanin.
        if draw(st.booleans()):
            fanins[name] = ()
    for i in range(draw(st.integers(min_value=1, max_value=45))):
        picks = draw(st.lists(
            st.integers(min_value=0, max_value=len(names) - 1),
            min_size=1, max_size=5,
        ))
        node = f"n{i}"
        fanins[node] = tuple(names[p] for p in picks)
        names.append(node)
    return fanins


def assert_same_flowmap(fanins, k, cone_cap=None):
    kwargs = {} if cone_cap is None else {"cone_cap": cone_cap}
    new = FlowMap(fanins, k=k, **kwargs).compute()
    ref = ReferenceFlowMap(fanins, k=k, **kwargs).compute()
    assert new.labels == ref.labels
    assert new.cuts == ref.cuts
    assert list(new.labels) == list(ref.labels)
    assert list(new.cuts) == list(ref.cuts)


class TestFlowMapOracle:
    @given(dags(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_random_dags(self, fanins, k):
        assert_same_flowmap(fanins, k)

    @given(
        dags(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_tiny_cone_cap(self, fanins, k, cone_cap):
        assert_same_flowmap(fanins, k, cone_cap)

    def test_duplicate_fanins_and_unlisted_sources(self):
        fanins = {
            "a": ("x", "x", "y"),
            "b": ("a", "y", "a"),
            "c": ("a", "b", "z", "b"),
            "d": ("c", "c"),
        }
        for k in range(1, 5):
            assert_same_flowmap(fanins, k)

    def test_truncated_sink_side_gives_up(self):
        # A chain of 2-input nodes over one shared source: every node
        # shares its fanins' label, so a cap of 2 cuts a sink-side node
        # off from its fanins and the early ``None`` labels it l_max + 1.
        fanins = {"n0": ("s", "t")}
        for i in range(1, 8):
            fanins[f"n{i}"] = (f"n{i - 1}", "s")
        assert_same_flowmap(fanins, k=3, cone_cap=2)
        capped = FlowMap(fanins, k=3, cone_cap=2).compute()
        full = FlowMap(fanins, k=3).compute()
        assert capped.labels["n7"] > full.labels["n7"]


@pytest.mark.parametrize("arch,libfn", [
    ("granular", granular_plb_library), ("lut", lut_plb_library),
])
def test_shipped_design_instance_graph(arch, libfn):
    """The first compaction pass's graph of ALU at scale 0.3."""
    core = extract_core(build_design("alu", scale=0.3))
    core = CombCore(
        aig=optimize(core.aig),
        primary_inputs=core.primary_inputs,
        primary_outputs=core.primary_outputs,
        dffs=core.dffs,
    )
    fanins = _instance_graph(map_core(core, arch, libfn()))
    assert len(fanins) > 100
    assert_same_flowmap(fanins, k=3)


def test_flowmap_span_reports_sizes():
    fanins = {"a": ("x", "y"), "b": ("a", "z"), "c": ("a", "b")}
    obs_core.reset()
    assert obs_core.begin()
    try:
        FlowMap(fanins, k=3).compute()
    finally:
        events = obs_core.drain()
    spans = [e for e in events
             if e["ev"] == "span" and e["name"] == "synth.flowmap"]
    assert len(spans) == 1
    attrs = spans[0]["attrs"]
    assert attrs["nodes"] == 6
    assert attrs["networks"] >= 1
    assert attrs["cone_nodes"] >= attrs["networks"]
    assert attrs["augmentations"] >= 1
    counters = {e["name"]: e["value"] for e in events
                if e["ev"] == "counter"}
    assert counters["flowmap.nodes"] == 6


@st.composite
def aigs(draw):
    """Random AIGs with shared, inverted and deep AND trees."""
    aig = AIG("random")
    literals = [aig.add_input(f"i{i}")
                for i in range(draw(st.integers(min_value=1, max_value=6)))]
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        picks = draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(literals) - 1),
                st.booleans(),
            ),
            min_size=2, max_size=5,
        ))
        operands = [literals[p] ^ int(inv) for p, inv in picks]
        literals.append(aig.and_many(operands) ^ draw(st.integers(0, 1)))
    for j in range(draw(st.integers(min_value=1, max_value=4))):
        aig.add_output(
            f"o{j}",
            literals[draw(st.integers(min_value=0,
                                      max_value=len(literals) - 1))],
        )
    return aig


class TestBalanceOracle:
    @given(aigs())
    @settings(max_examples=150, deadline=None)
    def test_random_aigs(self, aig):
        new = balance(aig)
        ref = reference_balance(aig)
        assert new.fanin0 == ref.fanin0
        assert new.fanin1 == ref.fanin1
        assert new.outputs == ref.outputs

    def test_chain(self):
        aig = AIG("chain")
        inputs = [aig.add_input(f"i{i}") for i in range(12)]
        acc = inputs[0]
        for literal in inputs[1:]:
            acc = aig.and2(acc, literal)
        aig.add_output("o", acc)
        new, ref = balance(aig), reference_balance(aig)
        assert (new.fanin0, new.fanin1) == (ref.fanin0, ref.fanin1)
        assert new.depth() == 4
