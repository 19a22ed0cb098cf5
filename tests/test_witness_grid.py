"""Every NON_UNIQUE witness lies in the set its certificate names.

Seeded realizations of two and three parties, of states and of channels,
with one to three settings per party (one-setting parties included) and
two or three outcomes, are certified by ``steercert extremality``, as
documents.  Each side of a NON_UNIQUE witness pair, written back as a
document of the kind the realization makes (an assemblage, or a channel
assemblage), must pass ``steercert verify`` in the certificate's own set:
``ns`` for a state, ``ns-channel`` for a channel under ``--mode full``,
``asym-ns`` under ``--mode asym``.  The two sides must average to the
reference coefficients and differ, at no pinned column.  Every nullity
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


def realization(settings, k, channel, seed) -> documents.Realization:
    """Projective measurements in Haar-random bases on a Haar-random pure
    state; for a channel, the parties' state and one half of a maximally
    entangled qubit pair go through a Haar-random unitary interaction."""
    rng = np.random.default_rng([seed, k, channel, *settings])
    n = len(settings)
    povms = tuple(projective_povm([haar_unitary(rng, k).T for _ in range(m)])
                  for m in settings)
    if not channel:
        state = pure_state((k,) * n + (2,), haar_unitary(rng, k ** n * 2)[:, 0])
        return documents.Realization(Scenario(settings, (k,) * n, (2,)), state, povms)
    dims = (k,) * n + (2,)
    interaction = choi_of_unitary(haar_unitary(rng, k ** n * 2), dims, dims)
    state = pure_state((k,) * n, haar_unitary(rng, k ** n)[:, 0])
    return documents.Realization(Scenario(settings, (k,) * n, (2, 2)), state, povms,
                                 interaction)


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
    return (tuple(draw(st.integers(1, 3)) for _ in range(n)), k, channel, mode,
            draw(st.integers(0, 2)))


# Two-party channels whose second party has one setting: ranked among all
# no-signaling assemblages, without the output-trace condition, their
# certificates were NON_UNIQUE with witnesses that are not channel
# assemblages.  And one-setting qutrit channels, NON_UNIQUE in both channel
# sets.
EXAMPLES = [(settings, 2, True, "full", seed)
            for settings in ((2, 1), (1, 1), (3, 1)) for seed in range(3)] + [
    ((1, 1), 3, True, mode, 0) for mode in ("full", "asym")]


def _examples(test):
    for case in EXAMPLES:
        test = example(case=case)(test)
    return test


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=cases())
@_examples
def test_witnesses_lie_in_the_certified_set(tmp_path, case):
    settings_, k, channel, mode, seed = case
    real = realization(settings_, k, channel, seed)
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
