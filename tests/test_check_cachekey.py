"""Tests for the CK cache-key coherence family (repro.check.cachekey).

Each ERROR rule gets a corrupted-fixture test: a synthetic mini-flow
with a seeded incoherence (a read the key chain misses, an ambient
input in stage-reachable code, a drifted PERF_KNOBS contract) that the
analyzer must flag — plus the clean twin it must not flag, suppression
behavior, the CLI integration (`--self --rules CK`, grouped
--list-rules, SARIF), and the clean-on-HEAD guarantee that the shipped
flow has no incoherencies left.
"""

import json

import pytest

from repro.check import (
    REGISTRY,
    analyze_cache_keys,
    static_stage_model,
)
from repro.check.cachekey import analyze_source
from repro.cli import main


def rules_of(findings):
    return sorted(f.rule_id for f in findings)


# A self-contained two-stage flow with a coherent key chain:
# alpha keys width (and reads it), beta chains on alpha and keys/reads
# depth, verbose is a declared perf knob.
CLEAN = '''
PERF_KNOBS = frozenset({"verbose"})

STAGES = ("alpha", "beta")

STAGE_KEY_PARENT = {"alpha": None, "beta": "alpha"}


class FlowOptions:
    width: int = 4
    depth: int = 2
    verbose: bool = False


def stage_cache_key(cache, stage, options, parent_key=None):
    if stage == "alpha":
        return cache.key("alpha", options.width)
    if stage == "beta":
        return cache.key("beta", parent_key, options.depth)
    raise ValueError(stage)


def _run_alpha(options):
    return options.width * 2


def _run_beta(artifact, options):
    return artifact + options.depth


def compute_stage(stage, options, artifacts):
    if stage == "alpha":
        return _run_alpha(options)
    if stage == "beta":
        return _run_beta(artifacts["alpha"], options)
    raise ValueError(stage)
'''


class TestFixtureCoherence:
    def test_clean_fixture_has_no_findings(self):
        assert analyze_source(CLEAN) == []

    def test_module_without_anchors_is_silent(self):
        assert analyze_source("def helper(x):\n    return x\n") == []

    def test_syntax_error_is_reported_not_raised(self):
        findings = analyze_source("def broken(:\n")
        assert len(findings) == 1
        assert "parse" in findings[0].message.lower()


class TestCK001ReadNotKeyed:
    def test_read_outside_key_chain_flags(self):
        # alpha reads depth, but depth is keyed only in beta — alpha's
        # chain is {width}, so cached alpha results go stale.
        bad = CLEAN.replace(
            "return options.width * 2",
            "return options.width * options.depth",
        )
        findings = analyze_source(bad)
        assert "CK001" in rules_of(findings)
        (f,) = [f for f in findings if f.rule_id == "CK001"]
        assert "'alpha'" in f.message and "depth" in f.message

    def test_chain_covers_parent_keys(self):
        # beta reading width is fine: width is keyed in alpha, and
        # beta's key chains on alpha's.
        ok = CLEAN.replace(
            "return artifact + options.depth",
            "return artifact + options.depth + options.width",
        )
        assert rules_of(analyze_source(ok)) == []

    def test_interprocedural_read_is_found(self):
        # The read happens two calls below the stage entry, with the
        # options object passed whole.
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "def _deep(options):\n"
            "    return options.depth\n\n\n"
            "def _mid(options):\n"
            "    return _deep(options)\n\n\n"
            "def _run_alpha(options):\n"
            "    return options.width * _mid(options)",
        )
        assert "CK001" in rules_of(analyze_source(bad))


class TestCK002Drift:
    def test_unread_key_component_warns(self):
        bad = CLEAN.replace(
            'return cache.key("beta", parent_key, options.depth)',
            'return cache.key("beta", parent_key, options.depth, '
            "options.width)",
        )
        findings = [
            f for f in analyze_source(bad) if f.rule_id == "CK002"
        ]
        assert findings and "never read" in findings[0].message

    def test_dead_options_field_warns(self):
        bad = CLEAN.replace(
            "depth: int = 2",
            "depth: int = 2\n    ghost: int = 0",
        )
        findings = [
            f for f in analyze_source(bad) if f.rule_id == "CK002"
        ]
        assert findings and "ghost" in findings[0].message

    def test_perf_knob_is_not_dead_config(self):
        # verbose is neither read nor keyed, but it is a declared knob.
        assert rules_of(analyze_source(CLEAN)) == []


class TestCK003Impurity:
    def test_env_read_in_stage_code_flags(self):
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "import os\n\n\n"
            "def _run_alpha(options):\n"
            '    fudge = int(os.environ.get("FUDGE", "1"))\n'
            "    return options.width * fudge",
        )
        findings = [
            f for f in analyze_source(bad) if f.rule_id == "CK003"
        ]
        assert findings and "environ" in findings[0].message

    def test_wall_clock_in_stage_code_flags(self):
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "import time\n\n\n"
            "def _run_alpha(options):\n"
            "    return options.width * int(time.time())",
        )
        assert "CK003" in rules_of(analyze_source(bad))

    def test_mutable_global_registry_flags(self):
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "_REGISTRY = {}\n\n\n"
            "def register(name, value):\n"
            "    _REGISTRY[name] = value\n\n\n"
            "def _run_alpha(options):\n"
            '    return _REGISTRY.get("bias", 0) + options.width',
        )
        findings = [
            f for f in analyze_source(bad) if f.rule_id == "CK003"
        ]
        assert findings and "_REGISTRY" in findings[0].message

    def test_unreachable_impurity_is_ignored(self):
        # The env read sits in a helper no stage entry can reach.
        ok = CLEAN + (
            "\n\nimport os\n\n\n"
            "def cli_helper():\n"
            '    return os.environ.get("COLUMNS", "80")\n'
        )
        assert rules_of(analyze_source(ok)) == []

    def test_allow_comment_suppresses(self):
        bad = CLEAN.replace(
            "def _run_alpha(options):\n    return options.width * 2",
            "import os\n\n\n"
            "def _run_alpha(options):\n"
            '    fudge = int(os.environ.get("FUDGE", "1"))'
            "  # check: allow(CK003)\n"
            "    return options.width * fudge",
        )
        assert rules_of(analyze_source(bad)) == []


class TestCK004KnobDrift:
    def test_missing_perf_knobs_flags(self):
        bad = CLEAN.replace(
            'PERF_KNOBS = frozenset({"verbose"})\n', ""
        )
        findings = [
            f for f in analyze_source(bad) if f.rule_id == "CK004"
        ]
        assert findings and "PERF_KNOBS" in findings[0].message

    def test_stale_knob_name_flags(self):
        bad = CLEAN.replace(
            'frozenset({"verbose"})', 'frozenset({"verbose", "ghost"})'
        )
        findings = [
            f for f in analyze_source(bad) if f.rule_id == "CK004"
        ]
        assert findings and "ghost" in findings[0].message

    def test_keyed_knob_flags(self):
        bad = CLEAN.replace(
            'return cache.key("alpha", options.width)',
            'return cache.key("alpha", options.width, options.verbose)',
        )
        findings = [
            f for f in analyze_source(bad) if f.rule_id == "CK004"
        ]
        assert findings and "verbose" in findings[0].message

    def test_submittable_knobs_must_be_subset(self):
        bad = CLEAN + '\n_SUBMITTABLE_PERF_KNOBS = ("width",)\n'
        findings = [
            f for f in analyze_source(bad) if f.rule_id == "CK004"
        ]
        assert findings and "width" in findings[0].message


class TestHeadIsCoherent:
    def test_shipped_flow_has_no_ck_findings(self):
        assert analyze_cache_keys() == []

    def test_static_model_matches_flow_contract(self):
        model = static_stage_model()
        assert model is not None
        assert model.stages == (
            "synthesis", "physical", "route_a", "packing", "route_b",
        )
        assert model.parents["route_b"] == "packing"
        # The paper-relevant incoherencies this PR fixed stay fixed:
        assert "utilization" in model.keyed["physical"]
        assert "check" in model.perf_knobs
        # The coherence invariant itself: every stage-read field is
        # either in the stage's key chain or a declared perf knob.
        for stage in model.stages:
            covered = model.keyed_chain(stage) | model.perf_knobs
            assert model.reads[stage] <= covered, stage


class TestCli:
    def test_list_rules_groups_ck(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "CK  cache-key coherence" in out
        for rule_id in ("CK001", "CK002", "CK003", "CK004", "CK005"):
            assert rule_id in out

    def test_self_ck_family_is_clean(self, capsys):
        assert main(
            ["check", "--self", "--rules", "CK",
             "--fail-on", "warning"]
        ) == 0
        assert "cache-key coherence" in capsys.readouterr().out

    def test_self_ck_sarif(self, capsys):
        assert main(
            ["-q", "check", "--self", "--rules", "CK", "--sarif"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []

    def test_family_selector_expands(self):
        ids = REGISTRY.validate_selection({"CK"})
        assert {"CK001", "CK002", "CK003", "CK004", "CK005"} <= ids

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            REGISTRY.validate_selection({"CK999"})
