import numpy as np
import pytest
from conftest import pure_realization

from steercert import gallery
from steercert.assemblages import Assemblage, Scenario, canonicalize_pure, verify_ns
from steercert.channel_assemblages import verify_asym_ns
from steercert.certificates import build_constraint_system, decomposition_analysis
from steercert.constraints import ConstraintMode, asym_ns, full_ns


def relabel_mutant(s: Assemblage) -> Assemblage:
    """Cyclically shift party 1's outcome wherever party 0's setting is 1:
    totals per setting are unchanged, but the marginals signal."""
    k = s.scenario.outcomes[1]
    members = []
    for a, x in s.scenario.positions():
        src = list(a)
        if x[0] == 1:
            src[1] = (a[1] + 1) % k
        members.append(s.member(src, x).data)
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


def test_family_names_follow_report_order():
    fam = full_ns(Scenario((2, 2), (2, 2), (2,)))
    names = [c.name for c in fam.constraints]
    assert names[0] == "marginal I=(0,) a=(0,) x=(0,): settings (0,) vs (1,)"
    assert names[-4:] == ["total trace at x=(1, 1)", "total at x=(0, 0) vs x=(0, 1)",
                          "total at x=(0, 0) vs x=(1, 0)",
                          "total at x=(0, 0) vs x=(1, 1)"]
    relaxed = verify_asym_ns(gallery.bell_cnot_assemblage())
    assert relaxed.ok and relaxed.max_violation == 0.0
