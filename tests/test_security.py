import numpy as np
import pytest

from steercert import gallery
from steercert.core import DEFAULT_TOL
from steercert.assemblages import canonicalize_pure
from steercert.channel_assemblages import ChannelAssemblage
from steercert.security import correlations, eavesdropper_pinning, perfect_key_check


@pytest.fixture(scope="module")
def bell_table():
    return correlations(gallery.bell_cnot_assemblage(),
                        gallery.key_input_state(), gallery.key_measurement())


@pytest.fixture(scope="module")
def bell_pure():
    return canonicalize_pure(gallery.bell_cnot_assemblage())


def test_correlations_refuse_a_negative_probability():
    l = gallery.bell_cnot_assemblage()
    members = l.members.copy()
    # p(0, 1, 0 | 0, 0, 0) is d_in = 2 times the (out 0, in 0) diagonal entry
    # of the member at (0, 1 | 0, 0), which is zero: this takes it to -1e-7
    members[l.scenario.index((0, 1), (0, 0)), 0, 0] -= 5e-8
    dipped = ChannelAssemblage(l.scenario, members)
    rho, charlie = gallery.key_input_state(), gallery.key_measurement()
    # entries are judged against the tolerance the table is computed with
    with pytest.raises(ValueError, match="probabilities must be nonnegative"):
        correlations(dipped, rho, charlie, 1e-9)
    table = correlations(dipped, rho, charlie, 1e-6)
    assert table[0, 0, 0, 0, 1, 0] == pytest.approx(-1e-7, rel=1e-6)


def test_key_setting_statistics(bell_table):
    assert bell_table.shape == (2, 2, 1, 2, 2, 2) and bell_table.dtype == float
    assert bell_table[0, 0, 0, 0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert bell_table[0, 0, 0, 1, 1, 1] == pytest.approx(0.5, abs=1e-12)
    for (a, b, c) in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1)]:
        assert bell_table[0, 0, 0, a, b, c] == pytest.approx(0.0, abs=1e-12)


def test_normalization_of_all_settings(bell_table):
    sums = bell_table.sum(axis=(3, 4, 5))
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_perfect_key_check(bell_table):
    assert perfect_key_check(bell_table, 0, 0)
    # other settings mix outcomes and cannot give a perfect key
    assert not perfect_key_check(bell_table, 1, 0)
    assert not perfect_key_check(bell_table, 1, 1)


def test_perfect_key_check_fails_on_nan(bell_table):
    table = bell_table.copy()
    table[0, 0, 0, 0, 1, 0] = np.nan
    assert not perfect_key_check(table, 0, 0)


def test_perfect_key_requires_binary_outcomes():
    with pytest.raises(ValueError, match="requires binary outcomes throughout"):
        perfect_key_check(np.full((1, 1, 1, 3, 3, 3), 1 / 27), 0, 0)


def test_pinning_certifies_key_setting(bell_pure):
    cert = eavesdropper_pinning(bell_pure, 0, 0)
    assert cert.certified
    assert set(cert.pinned_positions) == {(a, b) for a in range(2) for b in range(2)}
    assert cert.free_positions == ()


def test_pinning_declines_free_setting(bell_pure):
    cert = eavesdropper_pinning(bell_pure, 1, 0)
    assert not cert.certified
    assert len(cert.free_positions) == 4


@pytest.mark.parametrize("x_key, y_key", [(-1, 0), (2, 0), (0, -1), (0, 2)])
def test_pinning_rejects_keys_outside_the_settings(bell_pure, x_key, y_key):
    with pytest.raises(ValueError, match="is not a setting"):
        eavesdropper_pinning(bell_pure, x_key, y_key)


def test_pinning_json_roundtrip(bell_pure):
    doc = eavesdropper_pinning(bell_pure, 0, 0).to_json()
    assert doc["certified"] is True
    assert doc["key_settings"] == [0, 0]
    assert doc["certificate"]["verdict"] == "NON_UNIQUE"


@pytest.mark.parametrize("x_key, y_key", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_pinning_reports_its_margin(bell_pure, x_key, y_key):
    pin = eavesdropper_pinning(bell_pure, x_key, y_key)
    pinned_reach, free_reach = pin.certificate.pin_margin
    assert pinned_reach < DEFAULT_TOL.abs_tol < free_reach
    # on example 1 the pinned entries are rounding noise and the free ones 1/2
    assert pinned_reach < 1e-15 and free_reach == pytest.approx(0.5)
    assert pin.to_json()["certificate"]["pin_margin"] == [pinned_reach, free_reach]
