"""Tests for the policy registry."""

import pytest

from repro.cluster.policies import POLICIES, POLICY_ORDER, PolicyConfig, get_policy


class TestRegistry:
    def test_paper_seven_plus_two_extensions(self):
        assert len(POLICIES) == 9
        assert len(POLICY_ORDER) == 7
        assert set(POLICY_ORDER) < set(POLICIES)
        assert set(POLICIES) - set(POLICY_ORDER) == {"ncap.percore", "adrenaline"}

    def test_extension_policy_definitions(self):
        percore = POLICIES["ncap.percore"]
        assert percore.per_core
        assert (percore.governor, percore.cstates, percore.cpuidle_governor) == (
            "ondemand", True, "menu",
        )
        assert (percore.ncap, percore.fcons) == ("hw", 5)
        adrenaline = POLICIES["adrenaline"]
        assert adrenaline.per_core
        assert (adrenaline.governor, adrenaline.cstates, adrenaline.cpuidle_governor) == (
            "adrenaline", True, "menu",
        )
        assert not adrenaline.uses_ncap
        assert not any(POLICIES[name].per_core for name in POLICY_ORDER)

    def test_paper_policy_definitions(self):
        assert POLICIES["perf"].governor == "performance"
        assert not POLICIES["perf"].cstates
        assert POLICIES["ond"].governor == "ondemand"
        assert not POLICIES["ond"].cstates
        assert POLICIES["perf.idle"].cstates
        assert POLICIES["ond.idle"].cstates

    def test_ncap_policies_run_atop_ond_idle(self):
        for name in ("ncap.sw", "ncap.cons", "ncap.aggr"):
            policy = POLICIES[name]
            assert policy.governor == "ondemand"
            assert policy.cstates
            assert policy.uses_ncap

    def test_fcons_values(self):
        assert POLICIES["ncap.cons"].fcons == 5
        assert POLICIES["ncap.aggr"].fcons == 1

    def test_variants(self):
        assert POLICIES["ncap.sw"].ncap == "sw"
        assert POLICIES["ncap.cons"].ncap == "hw"

    def test_get_policy_by_name_and_passthrough(self):
        policy = get_policy("perf")
        assert policy.name == "perf"
        assert get_policy(policy) is policy

    def test_get_policy_unknown(self):
        with pytest.raises(KeyError):
            get_policy("turbo")


class TestPolicyConfig:
    def test_ncap_config_carries_fcons(self):
        config = POLICIES["ncap.aggr"].ncap_config()
        assert config is not None and config.fcons == 1

    def test_non_ncap_has_no_config(self):
        assert POLICIES["perf"].ncap_config() is None

    def test_base_config_overridable(self):
        from repro.core import NCAPConfig

        base = NCAPConfig(rht_rps=99_000)
        config = POLICIES["ncap.cons"].ncap_config(base)
        assert config.rht_rps == 99_000
        assert config.fcons == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig("x", governor="turbo")
        with pytest.raises(ValueError):
            PolicyConfig("x", ncap="firmware")
        with pytest.raises(ValueError, match="chip-wide"):
            PolicyConfig("x", governor="ondemand", ncap="sw", per_core=True)
        with pytest.raises(ValueError, match="per_core"):
            PolicyConfig("x", governor="adrenaline")
