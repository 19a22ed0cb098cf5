import tracemalloc
from importlib import resources

import compile_oracle as oracle
import numpy as np
import pytest
from conftest import pure_realization

from steercert import certificates, gallery
from steercert.assemblages import Assemblage, Scenario, canonicalize_pure, verify_ns
from steercert.channel_assemblages import verify_asym_ns
from steercert.certificates import (UnsatisfiedReference, build_constraint_system,
                                    decomposition_analysis)
from steercert.constraints import (ConstraintMode, Family, Reduction, _reduce, asym_ns,
                                   evaluate, family, full_ns, magnitudes,
                                   no_signaling_factors)
from steercert.core import ScenarioError, psd_deviation
from steercert.documents import parse


def relabel_mutant(s: Assemblage) -> Assemblage:
    """Cyclically shift party 1's outcome wherever party 0's setting is 1:
    totals per setting are unchanged, but the marginals signal."""
    k = s.scenario.outcomes[1]
    members = []
    for a, x in s.scenario.positions():
        src = list(a)
        if x[0] == 1:
            src[1] = (a[1] + 1) % k
        members.append(s.member(src, x))
    return Assemblage(s.scenario, members)


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 2),
                                   (3, 2, 3, 2)])
def test_verifier_and_builder_share_the_family(rng, shape):
    # the reference coefficients solve the built system exactly when the
    # verifier finds no violation
    for entangled in (True, False):
        s = pure_realization(rng, *shape, entangled)
        for candidate in (s, relabel_mutant(s)):
            system = build_constraint_system(canonicalize_pure(candidate),
                                             ConstraintMode.FULL_NS)
            solved = system.residual_of(system.reference) <= 1e-9
            assert verify_ns(candidate).ok == solved
        assert verify_ns(s).ok and not verify_ns(relabel_mutant(s)).ok


@pytest.mark.parametrize("shape, entangled, nullity, pinned", [
    ((3, 2, 2, 2), False, 26, 0),
    ((3, 3, 2, 2), True, 0, 216),
])
def test_three_party_certificates_keep_their_nullity(shape, entangled, nullity,
                                                     pinned):
    # values computed by the builder that enumerated the family by hand
    s = pure_realization(np.random.default_rng(3), *shape, entangled)
    cert = decomposition_analysis(canonicalize_pure(s), ConstraintMode.FULL_NS)
    assert (cert.nullity, len(cert.pinned)) == (nullity, pinned)


def test_relaxed_family_needs_two_parties_and_channel_dims():
    with pytest.raises(ValueError, match="two parties"):
        asym_ns(Scenario((2, 2, 2), (2, 2, 2), (2, 2)))
    with pytest.raises(ValueError, match="d_out, d_in"):
        asym_ns(Scenario((2, 2), (2, 2), (4,)))


def test_channel_family_needs_channel_dims():
    with pytest.raises(ScenarioError, match="d_out, d_in"):
        family(Scenario((2,), (2,), (2,)), ConstraintMode.NS_CHANNEL)


def test_family_names_follow_report_order():
    fam = full_ns(Scenario((2, 2), (2, 2), (2,)))
    names = list(fam.names)
    assert names[0] == "marginal I=(0,) a=(0,) x=(0,): settings (0,) vs (1,)"
    assert names[-4:] == ["total trace at x=(1, 1)", "total at x=(0, 0) vs x=(0, 1)",
                          "total at x=(0, 0) vs x=(1, 0)",
                          "total at x=(0, 0) vs x=(1, 1)"]
    relaxed = verify_asym_ns(gallery.bell_cnot_assemblage())
    assert relaxed.ok and relaxed.max_violation == 0.0


def _coefficients(fam, reduction):
    """The zero-target coefficient rows with ``reduction``, from ``parts``."""
    rows = []
    for part in fam.parts:
        if part.reduction is reduction and part.target is None:
            for positions in part.positions:
                rows.append(np.zeros(len(list(fam.scenario.positions()))))
                np.add.at(rows[-1], positions, part.signs)
    return np.array(rows)


FACTOR_GRID = [  # (settings, outcomes, trusted dims)
    ((2,), (3,), (2,)), ((1,), (3,), (2,)), ((3,), (1,), (2,)),
    ((2, 3), (3, 2), (2,)), ((1, 2, 3), (3, 2, 2), (2,)), ((2, 1), (1, 3), (2,)),
    ((2, 2, 2, 2), (2, 2, 2, 2), (2,)),
    ((2, 2), (2, 2), (2, 2)), ((2, 3), (3, 2), (2, 2)), ((3, 2), (2, 3), (1, 2)),
    ((1, 2), (2, 1), (2, 1)), ((2, 1), (3, 2), (2, 3)),
    ((2, 1), (2, 2), (2, 2)), ((2, 1, 3), (2, 3, 2), (2, 2)),
]


def _whole_families(settings, outcomes, dims):
    """Each family defined on the scenario, with the oracle's constraints."""
    def families():
        scen = Scenario(settings, outcomes, dims)
        pairs = [(full_ns(scen), oracle.full_ns(scen))]
        if len(dims) == 2:
            pairs.append((family(scen, ConstraintMode.NS_CHANNEL),
                          oracle.full_ns(scen) + [oracle.output_trace_condition(scen)]))
        if len(dims) == 2 and len(settings) == 2:
            pairs.append((asym_ns(scen), oracle.asym_ns(scen)))
        return pairs
    return families


def _sub_family(make, settings, outcomes, dims, keep):
    """The parts of ``make``'s family that ``keep(name, reduction, target)``
    accepts, judged by their first constraint, with the oracle's
    constraints that it accepts."""
    def families():
        scen = Scenario(settings, outcomes, dims)
        parts = tuple(part for part in make(scen).parts
                      if keep(next(iter(part.names())), part.reduction, part.target))
        want = [c for c in getattr(oracle, make.__name__)(scen)
                if keep(c.name, c.reduction, c.target)]
        return [(Family(scen, parts), want)]
    return families


def _marginals(inside):
    return lambda name, reduction, target: name.startswith(f"marginal I={inside} ")


def _totals(name, reduction, target):
    return name.startswith("total")


FACTOR_CASES = [pytest.param(_whole_families(*grid), id="-".join(map(str, grid)))
                for grid in FACTOR_GRID] + [
    pytest.param(_sub_family(full_ns, (2, 3), (3, 2), (2,), _marginals((0,))),
                 id="full-marginals-I=(0,)"),
    pytest.param(_sub_family(full_ns, (2, 2, 3), (3, 2, 2), (2,), _marginals((0, 2))),
                 id="full-marginals-I=(0, 2)"),
    pytest.param(_sub_family(full_ns, (2, 3), (3, 2), (2,), _totals), id="full-totals"),
    pytest.param(_sub_family(full_ns, (2, 2, 3), (2, 3, 2), (2,), _totals),
                 id="full-totals-three-parties"),
    pytest.param(_sub_family(asym_ns, (2, 3), (3, 2), (2, 2),
                             lambda name, reduction, target:
                             target is None or reduction is Reduction.NONE),
                 id="asym-without-output-trace-condition"),
    pytest.param(_sub_family(asym_ns, (3, 2), (2, 3), (2, 2),
                             lambda name, reduction, target:
                             reduction is Reduction.OUTPUT_TRACE),
                 id="asym-output-traced-only"),
]


@pytest.mark.parametrize("families", FACTOR_CASES)
def test_factor_bases_are_the_constraint_list(families):
    # the party-factor rows and kernel against the family's own coefficient
    # blocks, ranked by an SVD here
    for fam, _ in families():
        # the kernel's columns, as rows over positions() order
        k = fam.certificate_kernel.T
        zero_blocks = [(reduction, rows) for reduction, rows, targets
                       in fam.certificate_rows if targets is None]
        parts = [part for part in fam.parts if len(part.positions)]
        assert bool(zero_blocks) == any(part.target is None for part in parts)
        if not any(part.target is None and part.reduction is Reduction.NONE
                   for part in parts):
            # the whole space
            np.testing.assert_allclose(k.T @ k, np.eye(len(k)), atol=1e-12)
        for reduction, rows in zero_blocks:
            coef = _coefficients(fam, reduction)
            _, s, vt = np.linalg.svd(coef)
            rank = int(np.count_nonzero(s > s[0] * 1e-10))
            assert len(rows) == rank
            whole = np.vstack([rows, k]) if reduction is Reduction.NONE else rows
            np.testing.assert_allclose(whole @ whole.T, np.eye(len(whole)), atol=1e-12)
            # the block annihilates the complement of its rows
            complement = np.eye(coef.shape[1]) - rows.T @ rows
            np.testing.assert_allclose(coef @ complement, 0, atol=1e-12)
            if reduction is Reduction.NONE:
                np.testing.assert_allclose(coef @ k.T, 0, atol=1e-12)
                np.testing.assert_allclose(k.T @ k, vt[rank:].T @ vt[rank:], atol=1e-12)


def _array_equal(got, want):
    """``np.array_equal``, through tuples and ``None``."""
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(_array_equal(g, w) for g, w in zip(got, want)))
    if want is None or isinstance(want, (Reduction, slice)):
        return got == want
    return np.array_equal(got, want)


# the six multiparty-certify scenarios, then the two where a one-shot
# command paid most for the dense compile
ORACLE_SCENARIOS = [(3, 2, 2, 2), (3, 3, 2, 2), (3, 2, 3, 2), (3, 2, 2, 3), (4, 2, 2, 2),
                    (3, 3, 3, 2), (4, 3, 2, 2), (3, 3, 4, 2)]
ORACLE_CASES = FACTOR_CASES + [
    pytest.param(_whole_families((m,) * n, (k,) * n, (d,)), id=f"{n}{m}{k}{d}")
    for n, m, k, d in ORACLE_SCENARIOS]


@pytest.mark.parametrize("families", ORACLE_CASES)
def test_compile_matches_the_dense_oracle(families):
    # the arrays compiled party by party, to the last bit, against the
    # formed basis and the dense kept-row product
    for fam, constraints in families():
        scen = fam.scenario
        assert list(fam.names) == [c.name for c in constraints]
        assert len(fam) == len(constraints)
        assert _array_equal(fam.terms, oracle.terms(scen, constraints))
        assert _array_equal(fam._segments, oracle.segments(scen, constraints))
        blocks, kernel, hits, kept = oracle.certificate(scen, constraints)
        assert _array_equal(tuple(hit for _, hit, _, _ in fam._certificate[0]), hits)
        assert _array_equal(fam._certificate[1], kept)
        assert _array_equal(fam._contractions, oracle.contractions(scen, hits, kept))
        # the oracle's kernel rows, over positions() order, as columns
        full = fam.certificate_kernel
        assert _array_equal(full, kernel.T)
        assert full.flags.c_contiguous and not full.flags.writeable
        assert _array_equal(fam.certificate_rows, blocks)


@pytest.mark.parametrize("shape, bound_mb", [((4, 3, 2, 2), 16), ((3, 3, 3, 2), 5)],
                         ids=str)
def test_first_compile_memory_is_bounded(shape, bound_mb):
    # the dense compile peaked at 143.8 MB and 18.1 MB here: it formed the
    # basis, square in the positions, and the coefficients over them
    n, m, k, d = shape
    scen = Scenario((m,) * n, (k,) * n, (d,))
    tracemalloc.start()
    try:
        fam = full_ns(scen)
        fam._contractions, fam._segments
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20


def test_warm_certificate_holds_a_k_and_its_gram_factors():
    # a warm verdict at (3,3,3,2) holds A K (3.1 MB), one party-by-party
    # contraction (2 MB) and the Gram factors; a copy of the kernel per
    # verdict, a whole gather index and copies of A K and of the Gram
    # matrix took the peak to 8.3 MB
    pure = canonicalize_pure(pure_realization(np.random.default_rng(11), 3, 3, 3, 2))
    assert len(pure.support) == 729
    decomposition_analysis(pure, ConstraintMode.FULL_NS)  # compiles the family
    tracemalloc.start()
    try:
        cert = decomposition_analysis(pure, ConstraintMode.FULL_NS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.nullity == 0
    assert peak <= 6.5 * 2**20


def test_cold_full_support_verdict_forms_no_kernel_basis():
    # a full support with nullity 0 ranks A K straight from the party
    # factors, so the (729, 343) kernel basis (2.0 MB) is never formed; a
    # cold verdict that formed it peaked at 7.8 MB here
    pure = canonicalize_pure(pure_realization(np.random.default_rng(11), 3, 3, 3, 2))
    family.cache_clear()  # a fresh family, compiled inside the traced call
    tracemalloc.start()
    try:
        cert = decomposition_analysis(pure, ConstraintMode.FULL_NS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.system.columns) == 729 and cert.nullity == 0
    assert "certificate_kernel" not in cert.system.family.__dict__
    assert peak <= 7 * 2**20


def test_factor_bases_take_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    fam = full_ns(Scenario((3,) * 3, (3,) * 3, (2,)))
    assert [len(rows) for _, rows, _ in fam.certificate_rows] == [386, 27]
    assert fam.certificate_kernel.shape == (729, 343)


@pytest.mark.parametrize("settings, outcomes", [((3, 3, 3), (2, 2, 2)), ((2, 3), (3, 1)),
                                                ((1, 2, 3), (3, 2, 2))])
def test_no_signaling_factors_span_the_full_family_kernel(settings, outcomes):
    scen = Scenario(settings, outcomes, (2,))
    factors = no_signaling_factors(scen)
    for q, m, k in zip(factors, settings, outcomes):
        assert q.shape == (m * (k - 1) + 1, m * k)
        np.testing.assert_allclose(q @ q.T, np.eye(len(q)), atol=1e-14)
    # Q over positions in positions() order: the Kronecker product of each
    # party's factor at (x_i, a_i)
    rows = []
    for a, x in scen.positions():
        row = np.ones(1)
        for q, k, ai, xi in zip(factors, outcomes, a, x):
            row = np.kron(row, q[:, xi * k + ai])
        rows.append(row)
    q = np.array(rows)
    k = full_ns(scen).certificate_kernel
    assert q.shape == k.shape
    np.testing.assert_allclose(q @ q.T, k @ k.T, atol=1e-13)


def oracle_magnitudes(fam, members):
    """Each constraint's deviation by ``np.add.at`` over the family's terms,
    one reduction at a time: the body :func:`magnitudes` had before it
    summed segments."""
    scen = fam.scenario
    stack = np.asarray(members, dtype=complex)
    rows, cols, signs = fam.terms
    given = [(part.reduction, part.target) for part in fam.parts for _ in part.positions]
    out = np.empty(len(given))
    for reduction in {r for r, _ in given}:
        chosen = np.array([r is reduction for r, _ in given])
        reduced = _reduce(stack, reduction, scen.trusted_dims)
        sums = np.zeros((len(chosen),) + reduced.shape[1:], dtype=reduced.dtype)
        picked = chosen[rows]
        scale = signs[picked].reshape((-1,) + (1,) * (reduced.ndim - 1))
        np.add.at(sums, rows[picked], scale * reduced[cols[picked]])
        for i in np.flatnonzero(chosen):
            target = given[i][1]
            if target is not None:
                sums[i] -= target
        dev = np.abs(sums[chosen]).reshape(int(chosen.sum()), -1)
        out[chosen] = dev.max(axis=1)
    return out


def oracle_violations(fam, members, tol):
    """The violation names :func:`evaluate` reported before, in order."""
    psd = zip(fam.scenario.positions(), psd_deviation(members))
    names = [f"member {a}|{x} PSD" for (a, x), v in psd if v > tol]
    return names + [name for name, v in zip(fam.names, oracle_magnitudes(fam, members))
                    if v > tol]


def _channel_fixture():
    data = resources.files("steercert").joinpath("data")
    return parse(data.joinpath("example1_channel_assemblage.json").read_bytes()).payload


def _not_psd(members, rng):
    """``members`` with a third of them pushed below PSD by a random
    Hermitian matrix."""
    out = np.array(members)
    for i in rng.choice(len(out), size=max(1, len(out) // 3), replace=False):
        g = rng.normal(size=out.shape[1:]) + 1j * rng.normal(size=out.shape[1:])
        out[i] -= (g + g.conj().T) / 4
    return out


def _kernel_cases():
    rng = np.random.default_rng(19)
    cases = []
    for shape in [(2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 2), (3, 2, 3, 2), (3, 3, 3, 2),
                  (4, 2, 2, 2)]:
        s = pure_realization(rng, *shape)
        fam = full_ns(s.scenario)
        cases += [(f"{shape}", fam, s.members, False),
                  (f"{shape}-mutant", fam, relabel_mutant(s).members, True),
                  (f"{shape}-not-psd", fam, _not_psd(s.members, rng), True)]
    channel = _channel_fixture()
    scen, members = channel.scenario, channel.members
    mutant = relabel_mutant(Assemblage(scen, members)).members
    families = [("full", full_ns(scen)), ("asym", asym_ns(scen)),
                ("ns-channel", family(scen, ConstraintMode.NS_CHANNEL))]
    for name, fam in families:
        cases += [(f"channel-{name}", fam, members, False),
                  (f"channel-{name}-mutant", fam, mutant, True),
                  (f"channel-{name}-not-psd", fam, _not_psd(members, rng), True),
                  (f"channel-{name}-scaled", fam, 3 * members, True)]
    return cases


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name, fam, members, fails", KERNEL_CASES,
                         ids=[c[0] for c in KERNEL_CASES])
def test_segment_sums_match_the_scattered_oracle(name, fam, members, fails):
    want = oracle_magnitudes(fam, members)
    np.testing.assert_allclose(magnitudes(fam, members), want, rtol=0,
                               atol=1e-15 * max(1.0, want.max()))
    for tol in (1e-9, 1e-3):
        report = evaluate(fam, members, tol)
        assert [v.constraint for v in report.violations] == \
            oracle_violations(fam, members, tol)
    report = evaluate(fam, members, 1e-9)
    assert report.ok is not fails
    if "not-psd" in name:
        assert report.violations[0].constraint.endswith(" PSD")


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 2), (3, 2, 3, 2)],
                         ids=str)
def test_segment_sums_and_the_oracle_name_one_unsatisfied_constraint(shape, monkeypatch):
    # A relabeled mutant has constraints whose deviations are equal in exact
    # arithmetic; the two summation orders round them differently, and the
    # named constraint must not follow that rounding.
    for seed in range(6):
        s = relabel_mutant(pure_realization(np.random.default_rng([seed, *shape]), *shape))
        pure = canonicalize_pure(s)
        messages = []
        for deviations in (magnitudes, oracle_magnitudes):
            monkeypatch.setattr(certificates, "magnitudes", deviations)
            with pytest.raises(UnsatisfiedReference) as info:
                decomposition_analysis(pure, ConstraintMode.FULL_NS)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
