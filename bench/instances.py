"""Seeded steering instances, written as steercert JSON documents.

Everything here is plain numpy and json: the documents are built without
calling steercert, so the program under test only ever receives bytes.

Each workload is a fixed list of cases.  A case is one instance class
(scenario, construction, and for ``cli-channel`` the command line).  A
round runs every case once; the harness runs complete rounds, so every
run sees the same mix of cases whatever the program's speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

POOL = 3  # distinct seeded instances per case; round r uses instance r % POOL

# Every member of a generated instance has at least this trace.  The
# program treats members below its absolute tolerance (1e-9) as zero, which
# would change the support pattern and so the frozen nullity and pinned set;
# draws that come within three decades of that are redrawn from the same
# seeded stream.
WEIGHT_FLOOR = 1e-6


@dataclass(frozen=True)
class Case:
    """One instance class of a workload.

    ``form`` is how the instance is built: ``entangled`` or ``product``
    pure states (realizations or assemblages), ``channel`` assemblages from
    a Haar-random interaction, ``mutant`` (signaling), ``malformed`` (bad
    input), ``fixture`` (a bundled data file) or ``reproduce`` (no
    document).  ``argv`` is the CLI command for ``cli-channel`` cases.
    """

    name: str
    form: str
    n: int = 0
    m: int = 0
    k: int = 0
    d: int = 0
    doc: str = ""  # document kind, or fixture file name, or reproduce target
    argv: tuple = ()
    defect: str = ""  # malformed variant
    expect: dict = field(default_factory=dict)  # answers the construction decides


# --- random quantum objects -------------------------------------------------

def haar_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng, dim):
    """Haar-random unitary; its columns form a Haar-random basis."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def party_bases(rng, n, m, k):
    """bases[i][x] is a k x k unitary whose column a is party i's ket a|x."""
    return [[haar_unitary(rng, k) for _ in range(m)] for _ in range(n)]


def pure_state(rng, n, k, d, entangled):
    if entangled:
        return haar_ket(rng, k ** n * d)
    psi = haar_ket(rng, d)
    for _ in range(n):
        psi = np.kron(haar_ket(rng, k), psi)
    return psi


def member_kets(psi, bases, n, m, k, rest):
    """Unnormalized trusted kets <a_1|x_1 ... a_n|x_n| (x) 1 |psi>.

    ``psi`` lives on ``(k,) * n + (rest,)``.  Returns {(a, x): ket}.
    """
    tensor = psi.reshape((k,) * n + (rest,))
    kets = {}
    for x in product(range(m), repeat=n):
        # Contract party 0 first; after each step the next party is axis 0.
        per_a = {(): tensor}
        for i in range(n):
            basis = bases[i][x[i]]
            nxt = {}
            for prefix, t in per_a.items():
                proj = np.tensordot(basis.conj().T, t, axes=([1], [0]))
                for a in range(k):
                    nxt[prefix + (a,)] = proj[a]
            per_a = nxt
        for a, v in per_a.items():
            kets[(a, x)] = v.reshape(-1)
    return kets


def channel_member_kets(rng, m, k, d):
    """Two untrusted parties share a Haar-random pure state; a Haar-random
    unitary couples both of them to the trusted input.  Members are Choi
    matrices on (d_out, d_in): one half of a maximally entangled pair goes
    through the interaction and the other half is kept as the input label.
    """
    psi_ab = haar_ket(rng, k * k)
    u = haar_unitary(rng, k * k * d)
    phi = np.eye(d).reshape(-1) / np.sqrt(d)  # on (trusted input, reference)
    joint = np.kron(psi_ab, phi).reshape(k * k * d, d)
    out = (u @ joint).reshape(-1)  # on (A, B, d_out, reference)
    bases = party_bases(rng, 2, m, k)
    return member_kets(out, bases, 2, m, k, d * d)


def shift_party1(members, k):
    """Signaling mutant: cyclically shift party 1's outcome label wherever
    party 0's setting is 1.  Member totals per setting are unchanged."""
    out = {}
    for (a, x), v in members.items():
        if x[0] == 1:
            src = list(a)
            src[1] = (a[1] + 1) % k
            out[(a, x)] = members[(tuple(src), x)]
        else:
            out[(a, x)] = v
    return out


# --- JSON documents -----------------------------------------------------------

def matrix_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def envelope(kind, payload):
    return {"kind": kind, "version": 1, "payload": payload}


def scenario_json(n, m, k, trusted_dims):
    return {"settings": [m] * n, "outcomes": [k] * n,
            "trusted_dims": list(trusted_dims)}


def realization_doc(psi, bases, n, m, k, d):
    povms = [{"dim": k,
              "effects": [[matrix_json(np.outer(b[:, a], b[:, a].conj()))
                           for a in range(k)] for b in bases[i]]}
             for i in range(n)]
    return envelope("realization", {
        "scenario": scenario_json(n, m, k, (d,)),
        "state": {"dims": [k] * n + [d], "matrix": matrix_json(np.outer(psi, psi.conj()))},
        "povms": povms,
    })


def assemblage_doc(kets, n, m, k, trusted_dims, kind="assemblage"):
    key = "choi" if kind == "channel_assemblage" else "member"
    members = [{"a": list(a), "x": list(x), key: matrix_json(np.outer(v, v.conj()))}
               for (a, x), v in sorted(kets.items())]
    return envelope(kind, {"scenario": scenario_json(n, m, k, trusted_dims),
                           "members": members})


def malformed(rng, defect):
    """A seeded bad input.  Every variant must give exit code 3."""
    psi, bases = pure_state(rng, 2, 2, 2, True), party_bases(rng, 2, 2, 2)
    if defect == "povm-dim":
        doc = realization_doc(psi, bases, 2, 2, 2, 2)
        doc["payload"]["povms"][int(rng.integers(2))]["dim"] = 3
        return json.dumps(doc).encode()
    doc = assemblage_doc(member_kets(psi, bases, 2, 2, 2, 2), 2, 2, 2, (2,))
    members = doc["payload"]["members"]
    if defect == "ragged-member":
        members[int(rng.integers(len(members)))]["member"][int(rng.integers(2))].pop()
    elif defect == "truncated-json":
        raw = json.dumps(doc).encode()
        return raw[: int(rng.integers(10, len(raw) - 10))]
    elif defect == "missing-scenario":
        del doc["payload"]["scenario"]
    elif defect == "outside-position":
        members[int(rng.integers(len(members)))]["a"] = [2, 0]
    else:
        raise ValueError(f"unknown defect {defect}")
    return json.dumps(doc).encode()


# --- workloads ----------------------------------------------------------------

MP_SCENARIOS = [(3, 2, 2, 2), (3, 3, 2, 2), (3, 2, 3, 2), (3, 2, 2, 3), (4, 2, 2, 2),
                (3, 3, 3, 2)]
BL_ENTANGLED = [(3, 3), (4, 3), (3, 4), (5, 3), (4, 4)]
BL_PRODUCT = [(3, 3), (4, 3), (3, 4)]


def _tag(*dims):
    return "".join(str(v) for v in dims)


def multiparty_cases():
    """All entangled cases, then the products, then the mutants, so that the
    three long cases are spread over the round."""
    cases = [Case(f"{_tag(*sc)}-entangled", "entangled", *sc, "realization",
                  expect={"ns": True, "lhs": False}) for sc in MP_SCENARIOS]
    cases += [Case(f"{_tag(*sc)}-product", "product", *sc, "realization",
                   expect={"ns": True, "lhs": True, "verdict": "NON_UNIQUE"})
              for sc in MP_SCENARIOS if sc != (3, 3, 3, 2)]  # ~13 s in LHS
    cases += [Case(f"{_tag(*sc)}-mutant", "mutant", *sc, "assemblage",
                   expect={"ns": False}) for sc in MP_SCENARIOS]
    return cases


def bipartite_cases():
    cases = [Case(f"{_tag(m, k)}-entangled", "entangled", 2, m, k, 2, "assemblage",
                  expect={"ns": True, "lhs": False}) for m, k in BL_ENTANGLED]
    cases += [Case(f"{_tag(m, k)}-product", "product", 2, m, k, 2, "assemblage",
                   expect={"ns": True, "lhs": True, "verdict": "NON_UNIQUE"})
              for m, k in BL_PRODUCT]
    # One signaling mutant keeps the case count odd, so the median lands
    # inside one case's samples rather than between two cases.
    cases.append(Case("43-mutant", "mutant", 2, 4, 3, 2, "assemblage",
                      expect={"ns": False}))
    return cases


CHANNEL_CA = "example1_channel_assemblage.json"


def cli_cases():
    cases = [
        Case("fixture-ca-verify", "fixture", doc=CHANNEL_CA, argv=("verify",)),
        Case("fixture-ca-verify-asym", "fixture", doc=CHANNEL_CA,
             argv=("verify", "--mode", "asym-ns")),
        Case("fixture-ca-extremality-full", "fixture", doc=CHANNEL_CA,
             argv=("extremality", "--mode", "full")),
        Case("fixture-ca-security", "fixture", doc=CHANNEL_CA, argv=("security-cert",)),
        Case("fixture-example1-extremality-asym", "fixture", doc="example1.json",
             argv=("extremality", "--mode", "asym")),
        Case("fixture-appendix-lhs", "fixture", doc="appendix.json", argv=("lhs",)),
    ]
    cases += [Case(f"reproduce-{t}", "reproduce", doc=t, argv=("reproduce", t))
              for t in ("example1", "asym-nonextremal", "appendix", "key")]
    channel_cmds = {
        (2, 2, 2): [("verify",), ("extremality", "--mode", "asym"), ("security-cert",)],
        (4, 2, 2): [("verify", "--mode", "asym-ns"), ("extremality", "--mode", "full"),
                    ("lhs",), ("security-cert",)],
        (2, 3, 3): [("verify",), ("extremality", "--mode", "full"),
                    ("extremality", "--mode", "asym"), ("lhs",)],
    }
    for (m, k, d), cmds in channel_cmds.items():
        for argv in cmds:
            expect = {}
            if argv[0] == "verify":
                expect = {"exit": 0}
            elif argv[0] == "lhs":
                expect = {"exit": 0, "lhs": False}
            cases.append(Case(f"channel-{_tag(m, k, d)}-{'-'.join(a.lstrip('-') for a in argv)}",
                              "channel", 2, m, k, d, "channel_assemblage", argv, expect=expect))
    for (m, k, d), argv in [((2, 2, 2), ("verify",)),
                            ((2, 3, 3), ("verify", "--mode", "asym-ns"))]:
        cases.append(Case(f"mutant-{_tag(m, k, d)}-{argv[-1]}", "mutant", 2, m, k, d,
                          "channel_assemblage", argv, expect={"exit": 1}))
    cases.append(Case("mutant-fixture-ca-verify-asym", "mutant", doc=CHANNEL_CA,
                      argv=("verify", "--mode", "asym-ns"), expect={"exit": 1}))
    for defect, commands in [("ragged-member", ("verify", "extremality", "lhs")),
                             ("povm-dim", ("verify", "extremality", "lhs")),
                             ("truncated-json", ("verify",)),
                             ("missing-scenario", ("extremality",)),
                             ("outside-position", ("lhs",))]:
        for cmd in commands:
            cases.append(Case(f"malformed-{defect}-{cmd}", "malformed", argv=(cmd,),
                              defect=defect, expect={"exit": 3}))
    return cases


WORKLOADS = {
    "multiparty-certify": multiparty_cases,
    "bipartite-lhs": bipartite_cases,
    "cli-channel": cli_cases,
}


def load_fixture(src, name):
    return (src / "steercert" / "data" / name).read_bytes()


def mutate_channel_fixture(raw):
    """Apply :func:`shift_party1` to a two-party channel assemblage document."""
    doc = json.loads(raw)
    scen = doc["payload"]["scenario"]
    (m0, m1), (k0, k1) = scen["settings"], scen["outcomes"]
    side = int(np.prod(scen["trusted_dims"]))
    zero = matrix_json(np.zeros((side, side)))
    given = {(tuple(e["a"]), tuple(e["x"])): e["choi"] for e in doc["payload"]["members"]}
    full = {(a, x): given.get((a, x), zero)
            for a in product(range(k0), range(k1)) for x in product(range(m0), range(m1))}
    doc["payload"]["members"] = [{"a": list(a), "x": list(x), "choi": mat}
                                 for (a, x), mat in sorted(shift_party1(full, k1).items())]
    return json.dumps(doc).encode()


def document(case: Case, seed: int, index: int, src: Path):
    """Document bytes for instance ``index`` of ``case`` (None if none)."""
    if case.form == "reproduce":
        return None
    if case.form == "fixture":
        return load_fixture(src, case.doc)
    if case.form == "mutant" and not case.n:
        return mutate_channel_fixture(load_fixture(src, case.doc))
    rng = np.random.default_rng([seed % 2**63, index, *case.name.encode()])
    if case.form == "malformed":
        return malformed(rng, case.defect)
    n, m, k, d = case.n, case.m, case.k, case.d
    while True:  # redraw until every member clears WEIGHT_FLOOR (full support)
        if case.doc == "channel_assemblage":
            kets = channel_member_kets(rng, m, k, d)
        else:
            psi = pure_state(rng, n, k, d, case.form != "product")
            bases = party_bases(rng, n, m, k)
            kets = member_kets(psi, bases, n, m, k, d)
        if min(np.vdot(v, v).real for v in kets.values()) >= WEIGHT_FLOOR:
            break
    if case.form == "mutant":
        kets = shift_party1(kets, k)
    if case.doc == "realization":
        doc = realization_doc(psi, bases, n, m, k, d)
    elif case.doc == "channel_assemblage":
        doc = assemblage_doc(kets, n, m, k, (d, d), "channel_assemblage")
    else:
        doc = assemblage_doc(kets, n, m, k, (d,))
    return json.dumps(doc).encode()


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())
