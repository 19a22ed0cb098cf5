"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE n: PASS|FAIL`` line (run pytest
with ``-s`` or read captured output) before asserting, so a red run still
reports every criterion.  Tolerances are pinned in ``TOL`` and in the
explicit bounds below.
"""

import numpy as np
from conftest import random_kraus_channel

from steercert import gallery
from steercert.core import Tolerances, nullspace
from steercert.channels import (
    ChoiOp,
    apply_choi,
    choi_from_map,
    choi_of_kraus,
    verify_cptp,
)
from steercert.assemblages import (
    LhsModel,
    NoLhs,
    Scenario,
    canonicalize_pure,
    lhs_assemblage,
    pure_lhs_decide,
    verify_ns,
)
from steercert.channel_assemblages import verify_asym_ns, verify_ns_channel
from steercert.certificates import (
    ConstraintMode,
    Verdict,
    build_constraint_system,
    decomposition_analysis,
    inflexibility_structural_check,
)
from steercert.security import correlations, eavesdropper_pinning, perfect_key_check

TOL = Tolerances(abs_tol=1e-9, rank_rel_tol=1e-8, nnls_residual_tol=1e-7)
MATRIX_TOL = 1e-9


def report(n: int, ok: bool, detail: str = ""):
    from conftest import acceptance_lines

    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    acceptance_lines.append(line)


def test_criterion_1_example_reproduction():
    """Realization produces the frozen Bell-type Choi member table."""
    l = gallery.bell_cnot_assemblage()
    expected = gallery.bell_cnot_expected_members()
    dev = max(float(np.max(np.abs(l.member(*pos) - mat)))
              for pos, mat in expected.items())
    phi = gallery.KET_PHI
    member = l.member((0, 0), (0, 0))
    dev00 = float(np.max(np.abs(member - 0.5 * np.outer(phi, phi.conj()))))
    ok = dev < MATRIX_TOL and dev00 < MATRIX_TOL
    report(1, ok, f"max member deviation {dev:.2e}")
    assert dev < MATRIX_TOL
    assert dev00 < MATRIX_TOL


def test_criterion_2_no_signaling_verification():
    """Example passes the channel no-signaling family with Tr-out = 1/d."""
    result = verify_ns_channel(gallery.bell_cnot_assemblage(), TOL.abs_tol)
    ok = result.ok and result.trace_condition_deviation < 1e-9
    report(2, ok, f"max violation {result.assemblage_report.max_violation:.2e}, "
                  f"trace deviation {result.trace_condition_deviation:.2e}")
    assert result.assemblage_report.ok
    assert result.trace_condition_deviation < 1e-9


def test_criterion_3_full_mode_extremality():
    """Full-mode analysis certifies uniqueness; structural check agrees."""
    pure = canonicalize_pure(gallery.bell_cnot_assemblage(), TOL)
    cert = decomposition_analysis(pure, ConstraintMode.FULL_NS, TOL)
    witness_settings = inflexibility_structural_check(pure, TOL)
    ok = (cert.verdict is Verdict.UNIQUE_EXTREME and cert.nullity == 0
          and witness_settings == (1, 1))
    report(3, ok, f"nullity {cert.nullity}, structural witness {witness_settings}")
    assert cert.verdict is Verdict.UNIQUE_EXTREME
    assert cert.nullity == 0
    assert witness_settings == (1, 1)


def test_criterion_4_relaxed_mode_non_extremality():
    """Relaxed-mode analysis: explicit convex split, pinned key setting.

    The published coefficient pair (3/2, 1/2 and its mirror on the
    (a, b | 1, 0) block) must solve the system and average to the
    reference, the key-setting coordinates must all be pinned, and the
    solution space is expected to be two-dimensional.
    """
    pure = canonicalize_pure(gallery.bell_cnot_assemblage(), TOL)
    cert = decomposition_analysis(pure, ConstraintMode.ASYM_NS, TOL)
    plus, minus = gallery.nonextremal_split_coefficients()
    cols = cert.system.columns
    c_plus = np.array([plus[pos] for pos in cols])
    c_minus = np.array([minus[pos] for pos in cols])
    split_residual = max(cert.system.residual_of(c_plus),
                         cert.system.residual_of(c_minus))
    avg_dev = float(np.max(np.abs((c_plus + c_minus) / 2 - cert.system.reference)))
    key_pinned = {pos for pos in cols if pos[1] == (0, 0)} <= set(cert.pinned)
    ok = (cert.verdict is Verdict.NON_UNIQUE and split_residual < 1e-9
          and avg_dev < 1e-9 and key_pinned and cert.nullity == 2)
    report(4, ok, f"nullity {cert.nullity}, split residual {split_residual:.2e}, "
                  f"key setting pinned {key_pinned}")
    assert cert.verdict is Verdict.NON_UNIQUE
    assert split_residual < 1e-9
    assert avg_dev < 1e-9
    assert key_pinned
    assert cert.nullity == 2


# Scalar consequences of the relaxed constraints on the tilted pattern,
# written over per-column coefficients (e, f, g, h) that scale the y=0 and
# y=1 column members: rows (coeff_e, coeff_f, coeff_g, coeff_h), each with
# right-hand side zero.
TILTED_SCALAR_RELATIONS = [
    (9 / 5, 6 / 5, -3 / 2, -3 / 2),
    (4, -4, -5, 5),
    (1, 1, -1, -1),
]


def test_criterion_5_tilted_reproduction_and_extremality():
    """Tilted-basis assemblage: frozen kets, unique coefficients, and the
    three scalar consequences lie in the reduced constraint row space."""
    l = gallery.tilted_cnot_assemblage()
    expected = gallery.tilted_cnot_expected_kets()
    dev = max(
        float(np.max(np.abs(l.member(*pos) - np.outer(k, k.conj()))))
        for pos, k in expected.items())
    pure = canonicalize_pure(l, TOL)
    cert = decomposition_analysis(pure, ConstraintMode.ASYM_NS, TOL)
    coeffs = cert.system.reference / np.array(
        [np.linalg.norm(expected[pos]) ** 2 for pos in cert.system.columns])
    coeff_dev = float(np.max(np.abs(coeffs - 1)))

    # Reduce the homogeneous rows onto one coefficient per (b, y) column
    # group; the scalar relations must be implied, i.e. lie in the reduced
    # row space.
    system = build_constraint_system(pure, ConstraintMode.ASYM_NS)
    homogeneous = np.abs(system.rhs) < 1e-12
    a_h = system.matrix[homogeneous]
    groups = [(0, 0), (1, 0), (0, 1), (1, 1)]  # (b, y) order: e, f, g, h
    reduce_map = np.zeros((len(system.columns), 4))
    for j, ((_, b), (_, y)) in enumerate(system.columns):
        reduce_map[j, groups.index((b, y))] = system.reference[j]
    m4 = a_h @ reduce_map
    max_row_residual = 0.0
    for relation in TILTED_SCALAR_RELATIONS:
        r = np.asarray(relation, dtype=float)
        coeffs_ls, *_ = np.linalg.lstsq(m4.T, r, rcond=None)
        max_row_residual = max(max_row_residual,
                               float(np.max(np.abs(m4.T @ coeffs_ls - r))))

    ok = (dev < MATRIX_TOL and cert.verdict is Verdict.UNIQUE_EXTREME
          and coeff_dev < 1e-9 and max_row_residual < 1e-9)
    report(5, ok, f"member deviation {dev:.2e}, coefficient deviation "
                  f"{coeff_dev:.2e}, row-space residual {max_row_residual:.2e}")
    assert dev < MATRIX_TOL
    assert cert.verdict is Verdict.UNIQUE_EXTREME
    assert coeff_dev < 1e-9
    assert max_row_residual < 1e-9


def test_criterion_6_key_security():
    """Perfect key statistics at (0, 0); pinning certifies (0, 0) only."""
    l = gallery.bell_cnot_assemblage()
    table = correlations(l, gallery.key_input_state(), gallery.key_measurement())
    p000 = table[0, 0, 0, 0, 0, 0]
    p111 = table[0, 0, 0, 1, 1, 1]
    key_ok = perfect_key_check(table, 0, 0, TOL.abs_tol)
    pure = canonicalize_pure(l, TOL)
    cert_key = eavesdropper_pinning(pure, 0, 0, TOL)
    cert_other = eavesdropper_pinning(pure, 1, 0, TOL)
    ok = (abs(p000 - 0.5) < 1e-12 and abs(p111 - 0.5) < 1e-12 and key_ok
          and cert_key.certified and not cert_other.certified)
    report(6, ok, f"p000 {p000:.12f}, p111 {p111:.12f}, "
                  f"pinned at (0,0): {cert_key.certified}, "
                  f"at (1,0): {cert_other.certified}")
    assert abs(p000 - 0.5) < 1e-12
    assert abs(p111 - 0.5) < 1e-12
    assert key_ok
    assert cert_key.certified
    assert not cert_other.certified


def test_criterion_7_lhs_decision():
    """No local model for the steering fixture; constructed local fixture
    round-trips through its recovered model."""
    pure = canonicalize_pure(gallery.bell_cnot_assemblage(), TOL)
    steering_verdict = pure_lhs_decide(pure, TOL)

    scen = Scenario((2, 2), (2, 2), (2, 2))
    phi = gallery.KET_PHI
    flip = gallery.KET_PHI_FLIP
    states = np.array([np.outer(phi, phi.conj()), np.outer(flip, flip.conj())])
    det0 = np.array([[1.0, 0.0], [1.0, 0.0]])
    det1 = np.array([[0.0, 1.0], [0.0, 1.0]])
    # disjoint deterministic supports keep every member rank one; each
    # party's tables are stacked over the two hidden variables
    tables = (np.array([det0, det1]), np.array([det0, det1]))
    model = LhsModel(np.array([0.4, 0.6]), states, tables)
    local = lhs_assemblage(model, scen)
    local_verdict = pure_lhs_decide(canonicalize_pure(local, TOL), TOL)
    roundtrip_dev = None
    if isinstance(local_verdict, LhsModel):
        rebuilt = lhs_assemblage(local_verdict, scen)
        roundtrip_dev = max(
            float(np.max(np.abs(rebuilt.member(*pos) - local.member(*pos))))
            for pos in scen.positions())

    ok = (isinstance(steering_verdict, NoLhs)
          and isinstance(local_verdict, LhsModel)
          and roundtrip_dev is not None and roundtrip_dev < 1e-9)
    report(7, ok, f"steering verdict {type(steering_verdict).__name__}, "
                  f"local round-trip deviation {roundtrip_dev}")
    assert isinstance(steering_verdict, NoLhs)
    assert isinstance(local_verdict, LhsModel)
    assert roundtrip_dev < 1e-9


def test_criterion_8_property_suites():
    """Randomized invariants: Choi round-trips, CPTP equivalence, quantum
    realizations never signal, full no-signaling implies the relaxed
    family, and the kernel/NNLS helpers honor their contracts."""
    rng = np.random.default_rng(7)
    failures = []

    # Choi / inverse-Choi round-trip on 100 random channels, d <= 3
    worst = 0.0
    for _ in range(100):
        din, dout = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        k = random_kraus_channel(rng, din, dout)
        c = choi_of_kraus(k)
        x = rng.normal(size=(din, din)) + 1j * rng.normal(size=(din, din))
        direct = sum(op @ x @ op.conj().T for op in k.kraus_ops)
        worst = max(worst, float(np.max(np.abs(
            direct - apply_choi(c, x)))))
        if not verify_cptp(c, TOL.abs_tol).ok:
            failures.append("random channel failed CPTP check")
    if worst >= 1e-9:
        failures.append(f"Choi round-trip deviation {worst:.2e}")

    # CPTP <=> Choi conditions, including both counterexample directions
    transpose = choi_from_map(lambda x: x.T, (2,), (2,))
    if verify_cptp(transpose).cp or not verify_cptp(transpose).tp:
        failures.append("transpose map misclassified")
    c = choi_of_kraus(random_kraus_channel(rng, 2, 2))
    scaled = ChoiOp((2,), (2,), 0.9 * c.matrix)
    if not verify_cptp(scaled).cp or verify_cptp(scaled).tp:
        failures.append("scaled channel misclassified")

    # 100 random quantum realizations pass verify_ns
    from test_assemblages import random_realized_assemblage
    scen = Scenario((2, 2), (2, 2), (2,))
    for _ in range(100):
        if not verify_ns(random_realized_assemblage(rng, scen)).ok:
            failures.append("quantum realization signaled")
            break

    # full no-signaling pass implies relaxed pass on the bundled fixtures
    for l in (gallery.bell_cnot_assemblage(), gallery.tilted_cnot_assemblage()):
        if verify_ns_channel(l).ok and not verify_asym_ns(l).ok:
            failures.append("full pass without relaxed pass")

    # nullspace and NNLS contracts on randomized systems
    for _ in range(20):
        g = rng.normal(size=(6, 4))
        g[:, 3] = g[:, 0] - 2 * g[:, 1]  # force one dependency
        basis = nullspace(g)
        if basis.shape[0] < 1 or np.max(np.abs(g @ basis.T)) > 1e-9:
            failures.append("nullspace contract violated")
            break
    from steercert.core import nnls
    for _ in range(20):
        m = rng.normal(size=(8, 4))
        x_true = np.abs(rng.normal(size=4))
        x, res = nnls(m, m @ x_true)
        if res > 1e-8 or np.any(x < 0):
            failures.append("nnls contract violated")
            break

    ok = not failures
    report(8, ok, "; ".join(failures) if failures else
           f"worst Choi round-trip deviation {worst:.2e}")
    assert not failures
