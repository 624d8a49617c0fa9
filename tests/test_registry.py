"""Tests for the policy registry."""

import pytest

from repro.core import available_policies, make_policy
from repro.core.fixed import FixedPriorityPolicy
from repro.core.registry import (
    policy_class,
    reads_me,
    register_policy,
    registered_policies,
)


class TestLookup:
    def test_paper_names_resolve(self):
        for name in ("FCFS", "RF", "HF-RF", "RR", "LREQ"):
            assert make_policy(name).name == name

    def test_case_insensitive(self):
        assert make_policy("hf-rf").name == "HF-RF"

    def test_me_policies_need_values(self):
        with pytest.raises(TypeError):
            make_policy("ME")
        assert make_policy("ME", me_values=[1.0]).name == "ME"
        assert make_policy("ME-LREQ", me_values=[1.0]).name == "ME-LREQ"

    def test_only_me_and_me_lreq_read_me(self):
        readers = {name for name in registered_policies()
                   if policy_class(name).reads_me}
        assert readers == {"ME", "ME-LREQ"}
        # builds its own vector online, so takes no profile
        assert not policy_class("ME-LREQ-ONLINE").reads_me
        assert reads_me("me-lreq") and not reads_me("ME-LREQ-ONLINE")
        assert not reads_me("FIX-3210") and not reads_me("NO-SUCH")

    def test_me_values_reach_only_policies_that_read_it(self):
        assert make_policy("HF-RF", me_values=(1.0, 2.0)).name == "HF-RF"
        online = make_policy("ME-LREQ-ONLINE", me_values=(5.0, 2.0))
        assert online.me_values == (1.0,)  # not the profile
        assert make_policy("FIX-10", me_values=(1.0, 2.0)).order == (1, 0)
        assert make_policy("ME", me_values=(1.0, 2.0)).me_values == (1.0, 2.0)
        with pytest.raises(ValueError, match="requires me_values"):
            make_policy("ME-LREQ", me_values=None)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("WFQ")

    def test_available_lists_fix_placeholder(self):
        names = available_policies()
        assert "HF-RF" in names
        assert "ME-LREQ" in names
        assert "FIX-<order>" in names


class TestFixParsing:
    def test_fix_orders(self):
        p = make_policy("FIX-3210")
        assert isinstance(p, FixedPriorityPolicy)
        assert p.order == (3, 2, 1, 0)
        assert p.name == "FIX-3210"

    def test_fix_two_core(self):
        assert make_policy("FIX-10").order == (1, 0)

    def test_fix_bad_spec(self):
        with pytest.raises(ValueError):
            make_policy("FIX-abc")


class TestRegistration:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            @register_policy("HF-RF")
            class Dup:  # pragma: no cover - never instantiated
                pass
