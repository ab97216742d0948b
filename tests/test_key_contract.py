"""Property tests for the cache-key / perf-knob contract.

The contract under test, driven off ``dataclasses.fields(FlowOptions)``
so a newly added field is covered automatically:

* every field NOT in PERF_KNOBS perturbs ``request_key`` — a semantic
  change can never be served a stale coalesced result;
* every field IN PERF_KNOBS leaves ``request_key`` unchanged — a knob
  flip can never force a spurious recompute;
* ``utilization`` (dead config before this audit existed) genuinely
  reaches flow-a die sizing and the physical stage key;
* the serve-side submittable list stays derived, not hand-listed.
"""

from dataclasses import fields as dataclass_fields
from dataclasses import replace

import pytest

from conftest import make_ripple_design

from repro.flow.cache import StageCache
from repro.flow.flow import request_key, stage_keys
from repro.flow.options import PERF_KNOBS, FlowOptions
from repro.place.grid import grid_for_netlist
from repro.serve.jobs import _SUBMITTABLE_OPTIONS


NETLIST = make_ripple_design()
CACHE = StageCache(enabled=False)
FIELD_NAMES = sorted(f.name for f in dataclass_fields(FlowOptions))


def perturbed(options, name):
    """A copy of ``options`` with field ``name`` changed to a new,
    still-valid value."""
    value = getattr(options, name)
    if name == "arch":
        return replace(options, arch="lut" if value != "lut" else "granular")
    if name == "schedule":
        return replace(
            options, schedule="cell" if value != "cell" else "stage"
        )
    if isinstance(value, bool):
        return replace(options, **{name: not value})
    if isinstance(value, int):
        return replace(options, **{name: value + 1})
    if isinstance(value, float):
        return replace(options, **{name: value * 2 + 0.125})
    raise AssertionError(
        f"no perturbation strategy for field {name!r} "
        f"({type(value).__name__}); extend perturbed()"
    )


class TestRequestKeyContract:
    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_field_perturbs_key_iff_semantic(self, name):
        base = FlowOptions()
        before = request_key(CACHE, NETLIST, base)
        after = request_key(CACHE, NETLIST, perturbed(base, name))
        if name in PERF_KNOBS:
            assert after == before, (
                f"perf knob {name!r} changed request_key; a knob flip "
                f"would force a spurious recompute"
            )
        else:
            assert after != before, (
                f"semantic field {name!r} left request_key unchanged; "
                f"a stale coalesced result could be served"
            )

    def test_knob_set_names_real_fields(self):
        assert PERF_KNOBS <= set(FIELD_NAMES)

    def test_request_key_is_deterministic(self):
        base = FlowOptions()
        assert request_key(CACHE, NETLIST, base) == request_key(
            CACHE, NETLIST, FlowOptions()
        )


class TestUtilizationIsLive:
    def test_utilization_sizes_the_flow_a_die(self):
        relaxed = grid_for_netlist(NETLIST, utilization=0.5)
        packed = grid_for_netlist(NETLIST, utilization=0.9)
        assert relaxed.area_um2 > packed.area_um2

    def test_utilization_perturbs_physical_key_onward(self):
        base = FlowOptions()
        before = stage_keys(CACHE, NETLIST, base)
        after = stage_keys(
            CACHE, NETLIST, replace(base, utilization=0.55)
        )
        assert before["synthesis"] == after["synthesis"]
        for stage in ("physical", "route_a", "packing", "route_b"):
            assert before[stage] != after[stage], stage


class TestSubmittableDerivation:
    def test_submittable_options_follow_the_contract(self):
        expected = sorted(
            (set(FIELD_NAMES) - PERF_KNOBS - {"arch"}) | {"check"}
        )
        assert sorted(_SUBMITTABLE_OPTIONS) == expected

    def test_check_knob_is_resubmittable(self):
        # The regression this family exists for: 'check' is a perf
        # knob (excluded from keys) yet explicitly submittable.
        assert "check" in PERF_KNOBS
        assert "check" in _SUBMITTABLE_OPTIONS
