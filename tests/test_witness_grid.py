"""Every NON_UNIQUE witness lies in the set its certificate names.

Seeded realizations of two and three parties, of states and of channels,
with one to three settings per party (one-setting parties included), two
or three outcomes and a trusted qubit or qutrit, are certified by
``steercert extremality``, as documents.  In some, the first party's state
is orthogonal to its first measurement vector at setting 0, so every
member at that setting and outcome is zero and the certificate is ranked
on a partial support.  Each side of a NON_UNIQUE witness pair, written
back as a document of the kind the realization makes (an assemblage, or a
channel assemblage), must pass ``steercert verify`` in the certificate's
own set: ``ns`` for a state, ``ns-channel`` for a channel under ``--mode
full``, ``asym-ns`` under ``--mode asym``.  The two sides must average to
the reference coefficients and differ, at no pinned column.  Every nullity
must equal the nullity of the system's matrix
(:func:`.constraints.vectorize`) ranked by a dense SVD at the same
relative threshold.
"""

import contextlib
import io
import json

import numpy as np
import orjson
from conftest import haar_unitary
from hypothesis import HealthCheck, example, given, settings, strategies as st

from steercert import cli, documents
from steercert.core import DEFAULT_TOL
from steercert.channels import choi_of_unitary, projective_povm, pure_state
from steercert.assemblages import (Assemblage, Scenario, assemblage_from_realization,
                                   canonicalize_pure)
from steercert.channel_assemblages import ChannelAssemblage, chanasm_from_realization
from steercert.certificates import ConstraintMode, build_constraint_system

VERIFY_MODE = {"full": "ns", "ns-channel": "ns-channel", "asym": "asym-ns"}


def realization(settings, k, d, channel, zeroed, seed) -> documents.Realization:
    """Projective measurements in Haar-random bases on a Haar-random pure
    state; for a channel, the parties' state and one half of a maximally
    entangled pair of ``d``-level systems go through a Haar-random unitary
    interaction.  ``zeroed``: the first party's factor of the state is
    projected off its first measurement vector at setting 0, and a channel's
    interaction leaves that party alone, so each member at that setting and
    outcome is zero."""
    rng = np.random.default_rng([seed, k, channel, *settings, d, zeroed])
    n = len(settings)
    bases = [[haar_unitary(rng, k).T for _ in range(m)] for m in settings]
    povms = tuple(projective_povm(b) for b in bases)
    dims = (k,) * n + (d,)
    if channel:
        # identity on the first party when zeroed, so its state's zero stays
        interaction = choi_of_unitary(
            np.kron(np.eye(k), haar_unitary(rng, k ** (n - 1) * d)) if zeroed
            else haar_unitary(rng, k ** n * d), dims, dims)
    psi = haar_unitary(rng, k ** n * (1 if channel else d))[:, 0].reshape(k, -1)
    if zeroed:
        u = bases[0][0][0]  # the first party's first ket at setting 0
        psi = psi - np.outer(u, u.conj() @ psi)
        psi /= np.linalg.norm(psi)
    if not channel:
        state = pure_state(dims, psi.ravel())
        return documents.Realization(Scenario(settings, (k,) * n, (d,)), state, povms)
    return documents.Realization(Scenario(settings, (k,) * n, (d, d)),
                                 pure_state(dims[:n], psi.ravel()), povms, interaction)


def run_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--output", "json", *argv])
    return code, json.loads(out.getvalue())


@st.composite
def cases(draw):
    n, channel = draw(st.sampled_from([2, 3])), draw(st.booleans())
    # a three-party channel at three outcomes has a 2 916-square Choi matrix
    k = 2 if channel and n == 3 else draw(st.sampled_from([2, 3]))
    mode = draw(st.sampled_from(["full", "asym"])) if channel and n == 2 else "full"
    # a qutrit channel only at two parties and two outcomes: 12-square
    # Kraus space, where three outcomes would make the Choi matrix 729-square
    d = draw(st.sampled_from([2, 3])) if not channel or (n, k) == (2, 2) else 2
    return (tuple(draw(st.integers(1, 3)) for _ in range(n)), k, d, channel, mode,
            draw(st.booleans()), draw(st.integers(0, 2)))


# Two-party channels whose second party has one setting: ranked among all
# no-signaling assemblages, without the output-trace condition, their
# certificates were NON_UNIQUE with witnesses that are not channel
# assemblages.  And one-setting qutrit channels, NON_UNIQUE in both channel
# sets.
EXAMPLES = [(settings, 2, 2, True, "full", False, seed)
            for settings in ((2, 1), (1, 1), (3, 1)) for seed in range(3)] + [
    ((1, 1), 3, 2, True, mode, False, 0) for mode in ("full", "asym")]


def _examples(test):
    for case in EXAMPLES:
        test = example(case=case)(test)
    return test


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=cases())
@_examples
def test_witnesses_lie_in_the_certified_set(tmp_path, case):
    settings_, k, d, channel, mode, zeroed, seed = case
    real = realization(settings_, k, d, channel, zeroed, seed)
    path, cert_path = tmp_path / "realization.json", tmp_path / "certificate.json"
    # orjson: a channel realization's Choi matrix has up to 105 000 entries
    path.write_bytes(orjson.dumps(documents.serialize(real)))
    code, report = run_json("extremality", "--mode", mode, str(path),
                            "--certificate-out", str(cert_path))
    assert code == 0, report
    cert = json.loads(cert_path.read_text())
    assert cert["mode"] == ("asym" if mode == "asym" else
                            "ns-channel" if channel else "full")

    assemblage = (chanasm_from_realization(real.state, real.povms, real.channel,
                                           real.scenario) if channel else
                  assemblage_from_realization(real.state, real.povms, real.scenario))
    system = build_constraint_system(canonicalize_pure(assemblage),
                                     ConstraintMode(cert["mode"]))
    assert (len(system.columns) < len(list(real.scenario.positions()))) is zeroed
    s = np.linalg.svd(system.matrix, compute_uv=False)
    rank = int(np.count_nonzero(s > DEFAULT_TOL.rank_rel_tol * s[0]))
    assert cert["nullity"] == system.matrix.shape[1] - rank

    if cert["verdict"] == "UNIQUE_EXTREME":
        return
    assert [[list(a), list(x)] for a, x in system.columns] == cert["columns"]
    plus, minus = np.array(cert["witness_pair"])
    np.testing.assert_allclose((plus + minus) / 2, system.reference, rtol=0,
                               atol=DEFAULT_TOL.abs_tol)
    moved = np.abs(plus - minus) > DEFAULT_TOL.abs_tol
    assert moved.any()
    assert not any(moved[system.columns.index((tuple(a), tuple(x)))]
                   for a, x in cert["pinned"])
    kind = ChannelAssemblage if channel else Assemblage
    for side in cert["witness_pair"]:
        members = np.zeros_like(assemblage.members)
        members[system.at] = np.array(side)[:, None, None] * system.units
        witness = tmp_path / "witness.json"
        witness.write_text(documents.dumps(kind(real.scenario, members)))
        argv = ("--mode", "asym-ns") if mode == "asym" else ()
        code, report = run_json("verify", *argv, str(witness))
        assert report["details"]["mode"] == VERIFY_MODE[cert["mode"]]
        assert code == 0, report["details"]
