import numpy as np
import pytest
from conftest import apply_channel_on_subsystems, random_density

from steercert import gallery
from steercert.channels import (
    ChoiOp,
    KrausChannel,
    Povm,
    State,
    apply_choi,
    choi_from_map,
    choi_of_kraus,
    choi_of_unitary,
    projective_povm,
    pure_state,
    random_kraus_channel,
    verify_cptp,
)


def kraus_apply(k: KrausChannel, x: np.ndarray) -> np.ndarray:
    return sum(op @ x @ op.conj().T for op in k.kraus_ops)


def test_state_validation():
    with pytest.raises(ValueError):
        State((2,), np.diag([0.5, -0.5]))
    with pytest.raises(ValueError):
        State((2,), np.diag([0.7, 0.7]))
    s = pure_state((2,), [1, 1])
    assert np.trace(s.matrix) == pytest.approx(1.0)


def test_state_and_choi_matrices_are_read_only_copies():
    matrix = np.diag([1.0, 0.0]).astype(complex)
    held = [State((2,), matrix).matrix, ChoiOp((1,), (2,), matrix).matrix]
    matrix[0, 0] = 0  # not changed through the caller's array
    for m in held:
        assert m[0, 0] == 1 and m.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0


def test_povm_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        Povm(2, [[eye, eye]])  # sums to 2*I
    p = projective_povm([[np.array([1, 0]), np.array([0, 1])]])
    assert p.dim == 2 and p.effects.shape == (1, 2, 2, 2) and p.effects.dtype == complex
    assert p.covers(1, 2) and not p.covers(2, 2) and not p.covers(1, 3)


def _diagonals(*settings):
    return [[np.diag(d) for d in setting] for setting in settings]


@pytest.mark.parametrize("effects, message", [
    # a setting whose sum is off comes before a later effect that is not PSD
    (_diagonals([[1, 1], [0, 0.5]], [[1.5, 1], [-0.5, 0]]),
     "effects of setting 0 do not sum to identity"),
    # an effect that is not PSD comes before its own setting's sum
    (_diagonals([[1, 0], [0, 1]], [[1, 1.5], [0, -0.5]], [[2, 2], [0, 0]]),
     r"effect \(1,1\) is not PSD"),
    # a setting with no effect sums to zero
    (np.zeros((1, 0, 2, 2)), "effects of setting 0 do not sum to identity"),
    # a wrong shape is one message for the whole array
    (_diagonals([[1, 0, 0], [0, 1, 1]]),
     r"effects have shape \(1, 2, 3, 3\), expected \(settings, outcomes, 2, 2\)"),
    (np.eye(2)[None], r"effects have shape \(1, 2, 2\)"),
    # a NaN passes every bound, since each comparison with it is false
    (_diagonals([[1, np.nan], [0, 1]]), "non-finite entry in effects"),
])
def test_povm_names_its_first_fault(effects, message):
    with pytest.raises(ValueError, match=message):
        Povm(2, effects)


def test_povm_effects_are_read_only():
    effects = np.array(_diagonals([[1, 0], [0, 1]]), dtype=complex)
    p = Povm(2, effects)
    with pytest.raises(ValueError, match="read-only"):
        p.effects[0, 0, 0, 0] = 0
    effects[0, 0, 0, 0] = 0  # nor is it changed through the caller's array
    assert p.effects[0, 0, 0, 0] == 1


def test_projective_povm_is_the_outer_product_of_each_ket(rng):
    kets = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    kets = np.linalg.qr(kets)[0].transpose(0, 2, 1)  # orthonormal rows per setting
    p = projective_povm(kets)
    for x, basis in enumerate(kets):
        for a, ket in enumerate(basis):
            assert p.effects[x, a].tobytes() == np.outer(ket, ket.conj()).tobytes()


def test_kraus_completeness():
    with pytest.raises(ValueError):
        KrausChannel(2, 2, (0.5 * np.eye(2),))
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel(2, 2, ())
    with pytest.raises(ValueError, match="non-finite entry in Kraus operators"):
        KrausChannel(2, 2, (np.diag([1, np.nan]),))


def test_kraus_ops_are_one_read_only_copy():
    ops = np.eye(3, 2)[None]  # one isometry from dimension 2 to 3
    k = KrausChannel(2, 3, ops)
    assert k.kraus_ops.shape == (1, 3, 2) and k.kraus_ops.dtype == complex
    with pytest.raises(ValueError, match="read-only"):
        k.kraus_ops[0, 0, 0] = 0
    ops[0, 0, 0] = 0  # nor is it changed through the caller's array
    assert k.kraus_ops[0, 0, 0] == 1


@pytest.mark.parametrize("ops", [
    ([[1, 0], [0, 1]], [[1, 0]]),
    ([[1, 0], [0]],),
    (np.eye(2), np.eye(3)),
    (np.eye(2)[None],),
    np.eye(2),
], ids=["ragged-list", "ragged-operator", "two-shapes", "one-too-deep", "no-operator-axis"])
def test_kraus_channel_refuses_a_wrongly_shaped_list(ops):
    with pytest.raises(ValueError, match="Kraus operator has mismatched shape"):
        KrausChannel(2, 2, ops)


def kron_lift_choi(k: KrausChannel) -> np.ndarray:
    """``sum_k (K_k (x) 1) phi (K_k (x) 1)^†``, phi the maximally
    entangled projector on the input and a copy of it."""
    v = np.eye(k.in_dim).reshape(-1)  # sum_i |ii>
    phi = np.outer(v, v) / k.in_dim
    lifts = [np.kron(op, np.eye(k.in_dim)) for op in k.kraus_ops]
    return sum(lift @ phi @ lift.conj().T for lift in lifts)


@pytest.mark.parametrize("in_dim, out_dim", [(2, 2), (3, 3), (2, 3), (3, 2), (4, 1)])
def test_choi_of_kraus_matches_the_kronecker_lift(rng, in_dim, out_dim):
    for _ in range(10):
        k = random_kraus_channel(rng, in_dim, out_dim)
        assert np.max(np.abs(choi_of_kraus(k).matrix - kron_lift_choi(k))) <= 1e-15


def test_choi_of_a_permutation_unitary_is_exact():
    # the gallery's CNOT interaction: vec(u) has entries 0 and 1, so every
    # Choi entry is exactly 0 or 1/8
    _, _, channel, _ = gallery.bell_cnot_realization()
    assert np.isin(channel.matrix, [0, 1 / 8]).all()


def test_random_kraus_channel_needs_room_for_an_isometry(rng):
    with pytest.raises(ValueError, match=r"out_dim \* n_kraus >= 3, got 1 \* 1"):
        random_kraus_channel(rng, 3, 1, 1)
    k = random_kraus_channel(rng, 3, 1, 3)  # the smallest that fits
    assert verify_cptp(choi_of_kraus(k)).ok


def test_identity_channel_choi():
    c = choi_of_unitary(np.eye(2))
    np.testing.assert_allclose(c.matrix, [[0.5, 0, 0, 0.5], [0] * 4, [0] * 4,
                                          [0.5, 0, 0, 0.5]])
    report = verify_cptp(c)
    assert report.ok and report.cp and report.tp


def test_choi_roundtrip_random_channels(rng):
    # acceptance property: Choi / inverse-Choi agree with the Kraus action
    for _ in range(100):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        k = random_kraus_channel(rng, din, dout)
        c = choi_of_kraus(k)
        assert verify_cptp(c).ok
        x = rng.normal(size=(din, din)) + 1j * rng.normal(size=(din, din))
        direct = kraus_apply(k, x)
        via_choi = apply_choi(c, x)
        assert np.max(np.abs(direct - via_choi)) < 1e-9


def test_choi_from_map_matches_kraus(rng):
    k = random_kraus_channel(rng, 3, 2)
    c1 = choi_of_kraus(k)
    c2 = choi_from_map(lambda x: kraus_apply(k, x), (3,), (2,))
    np.testing.assert_allclose(c1.matrix, c2.matrix, atol=1e-12)


def test_cptp_iff_choi_conditions(rng):
    # transpose map: TP but not CP (Choi has a negative eigenvalue)
    transpose = choi_from_map(lambda x: x.T, (2,), (2,))
    report = verify_cptp(transpose)
    assert not report.cp and report.tp and report.min_eigenvalue < -1e-3
    # scaled channel: CP but not TP
    k = random_kraus_channel(rng, 2, 2)
    c = choi_of_kraus(k)
    scaled = ChoiOp((2,), (2,), 0.9 * c.matrix)
    report = verify_cptp(scaled)
    assert report.cp and not report.tp
    assert report.tp_deviation == pytest.approx(0.05, abs=1e-9)


def test_choi_dims_must_match():
    with pytest.raises(ValueError, match=r"matrix shape \(6, 6\) does not match dims \(2, 2\)"):
        ChoiOp((2,), (2,), np.zeros((6, 6)))
    with pytest.raises(ValueError, match="Choi matrix must be Hermitian"):
        ChoiOp((2,), (2,), np.triu(np.ones((4, 4))))


def test_apply_channel_on_subsystems_matches_global(rng):
    # applying on the first subsystem equals conjugating by U (x) 1
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    c = choi_of_unitary(u)
    rho = random_density(rng, (2, 3)).matrix
    out = apply_channel_on_subsystems(c, rho, (2, 3), targets=[0])
    big = np.kron(u, np.eye(3))
    np.testing.assert_allclose(out, big @ rho @ big.conj().T, atol=1e-10)


def test_apply_channel_on_subsystems_permutes(rng):
    # applying on the last subsystem moves its output to the front
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    c = choi_of_unitary(u)
    rho = random_density(rng, (3, 2)).matrix
    out = apply_channel_on_subsystems(c, rho, (3, 2), targets=[1])
    swap = np.zeros((6, 6))
    for i in range(3):
        for j in range(2):
            swap[j * 3 + i, i * 2 + j] = 1.0
    big = np.kron(np.eye(3), u)
    expected = swap @ (big @ rho @ big.conj().T) @ swap.T  # on (2, 3)
    np.testing.assert_allclose(out, expected, atol=1e-10)
