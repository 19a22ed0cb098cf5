import numpy as np
import pytest

from steercert import gallery
from steercert.assemblages import canonicalize_pure
from steercert.channel_assemblages import to_choi_assemblage
from steercert.security import (
    CorrelationTable,
    correlations,
    eavesdropper_pinning,
    perfect_key_check,
)


@pytest.fixture(scope="module")
def bell_table():
    return correlations(gallery.bell_cnot_assemblage(),
                        gallery.key_input_state(), gallery.key_measurement())


@pytest.fixture(scope="module")
def bell_pure():
    return canonicalize_pure(to_choi_assemblage(gallery.bell_cnot_assemblage()))


def test_correlation_table_validation():
    with pytest.raises(ValueError):
        CorrelationTable(np.zeros((2, 2, 2, 2, 2)))
    with pytest.raises(ValueError):
        CorrelationTable(-np.ones((1, 1, 1, 2, 2, 2)))


def test_key_setting_statistics(bell_table):
    assert bell_table.prob(0, 0, 0, 0, 0, 0) == pytest.approx(0.5, abs=1e-12)
    assert bell_table.prob(1, 1, 1, 0, 0, 0) == pytest.approx(0.5, abs=1e-12)
    for (a, b, c) in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1)]:
        assert bell_table.prob(a, b, c, 0, 0, 0) == pytest.approx(0.0, abs=1e-12)


def test_normalization_of_all_settings(bell_table):
    sums = bell_table.table.sum(axis=(3, 4, 5))
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_perfect_key_check(bell_table):
    assert perfect_key_check(bell_table, 0, 0)
    # other settings mix outcomes and cannot give a perfect key
    assert not perfect_key_check(bell_table, 1, 0)
    assert not perfect_key_check(bell_table, 1, 1)


def test_perfect_key_requires_binary_outcomes():
    with pytest.raises(ValueError):
        perfect_key_check(CorrelationTable(np.full((1, 1, 1, 3, 3, 3), 1 / 27)),
                          0, 0)


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
