import numpy as np
import pytest
from conftest import local_channel_assemblage

from steercert import gallery
from steercert.channels import ChoiOp, choi_of_kraus, random_kraus_channel
from steercert.assemblages import Assemblage, Scenario
from steercert.channel_assemblages import (
    ChannelAssemblage,
    to_choi_assemblage,
    verify_asym_ns,
    verify_ns_channel,
)


def test_bell_cnot_members_match_frozen_table():
    l = gallery.bell_cnot_assemblage()
    expected = gallery.bell_cnot_expected_members()
    for pos, mat in expected.items():
        np.testing.assert_allclose(l.member(*pos), mat, atol=1e-12)


def test_bell_cnot_is_no_signaling():
    report = verify_ns_channel(gallery.bell_cnot_assemblage())
    assert report.ok
    assert report.trace_condition_deviation < 1e-9


def test_full_ns_implies_relaxed_ns():
    # acceptance property on both bundled fixtures
    for l in (gallery.bell_cnot_assemblage(), gallery.tilted_cnot_assemblage()):
        assert verify_ns_channel(l).ok
        assert verify_asym_ns(l).ok


def test_verify_ns_channel_reports_setting_dependent_totals():
    l = gallery.bell_cnot_assemblage()
    members = l.members.copy()
    members[l.scenario.index((0, 0), (1, 0))] *= 1.1
    report = verify_ns_channel(ChannelAssemblage(l.scenario, members))
    assert not report.ok
    names = [v.constraint for v in report.assemblage_report.violations]
    assert "total at x=(0, 0) vs x=(1, 0)" in names
    assert "total trace at x=(1, 0)" in names


def test_local_channel_assemblage_is_ns(rng):
    scen = Scenario((2, 2), (2, 2), (2, 2))
    k1 = choi_of_kraus(random_kraus_channel(rng, 2, 2))
    half = ChoiOp((2,), (2,), 0.5 * k1.matrix)
    maps = (half, half)
    # tables[i][j]: party i under hidden variable j (deterministic, mixed)
    tables = (np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]]),
              np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]))
    l = local_channel_assemblage(tables, maps, scen)
    assert verify_ns_channel(l).ok
    assert verify_asym_ns(l).ok


def test_local_channel_assemblage_needs_cptp_total(rng):
    scen = Scenario((1, 1), (1, 1), (2, 2))
    k1 = choi_of_kraus(random_kraus_channel(rng, 2, 2))
    bad = ChoiOp((2,), (2,), 0.5 * k1.matrix)
    with pytest.raises(ValueError):
        local_channel_assemblage((np.ones((1, 1, 1)), np.ones((1, 1, 1))),
                                 (bad,), scen)


def test_verify_asym_ns_detects_first_party_signaling():
    l = gallery.bell_cnot_assemblage()
    members = l.members.copy()
    # rescale two non-proportional members at x=1 so the sum over A's
    # outcomes at b=0 starts to depend on A's setting
    members[l.scenario.index((0, 0), (1, 0))] *= 1.5
    members[l.scenario.index((1, 1), (1, 0))] *= 0.5
    broken = ChannelAssemblage(l.scenario, members)
    report = verify_asym_ns(broken)
    assert not report.ok
    assert any("sum over a" in v.constraint for v in report.violations)


def test_to_choi_assemblage_shares_matrices():
    l = gallery.bell_cnot_assemblage()
    s = to_choi_assemblage(l)
    pos = ((1, 1), (1, 1))
    np.testing.assert_allclose(s.member(*pos), l.member(*pos))
    assert s.scenario == l.scenario
    # a channel assemblage is an assemblage; its Choi form is a plain one
    assert isinstance(l, Assemblage) and type(s) is Assemblage
