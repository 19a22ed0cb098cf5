import importlib.resources as resources
import json

import numpy as np
import pytest

from steercert import documents, gallery
from steercert.channels import KrausChannel, choi_of_kraus
from steercert.channel_assemblages import to_choi_assemblage, verify_ns_channel
from steercert.documents import DocumentError, Realization, parse, serialize


def data_bytes(name: str) -> bytes:
    return resources.files("steercert").joinpath("data").joinpath(name).read_bytes()


def roundtrip(obj):
    first = documents.dumps(obj)
    doc = parse(first)
    second = documents.dumps(serialize(doc.payload))
    assert first == second
    return doc


def test_roundtrip_state_povm_channel():
    rho, povms, channel, _ = gallery.bell_cnot_realization()
    assert roundtrip(rho).kind == "state"
    assert roundtrip(povms[0]).kind == "povm"
    doc = roundtrip(channel)
    assert doc.kind == "channel"
    np.testing.assert_allclose(doc.payload.matrix, channel.matrix)


def test_roundtrip_assemblages():
    l = gallery.bell_cnot_assemblage()
    assert roundtrip(l).kind == "channel_assemblage"
    assert roundtrip(to_choi_assemblage(l)).kind == "assemblage"


def test_roundtrip_realization():
    rho, povms, channel, scen = gallery.bell_cnot_realization()
    doc = roundtrip(Realization(scen, rho, povms, channel))
    assert doc.kind == "realization"
    assert doc.payload.scenario == scen


def test_zero_members_are_implicit():
    l = gallery.bell_cnot_assemblage()
    raw = serialize(l)
    listed = {(tuple(m["a"]), tuple(m["x"])) for m in raw["payload"]["members"]}
    assert ((0, 1), (0, 0)) not in listed and ((1, 0), (0, 0)) not in listed
    parsed = parse(raw).payload
    zero = parsed.member((0, 1), (0, 0))
    np.testing.assert_allclose(zero, 0)


def test_bundled_fixtures_parse():
    real = parse(data_bytes("example1.json")).payload
    assert isinstance(real, Realization)
    assert real.channel is not None
    chanasm = parse(data_bytes("example1_channel_assemblage.json")).payload
    assert verify_ns_channel(chanasm).ok
    appendix = parse(data_bytes("appendix.json")).payload
    assert appendix.scenario == gallery.bell_cnot_scenario()


def test_parse_rejects_malformed_json():
    with pytest.raises(DocumentError, match="byte offset"):
        parse(b'{"kind": "state",')


def test_parse_rejects_unknown_kind():
    with pytest.raises(DocumentError):
        parse({"kind": "wavefunction", "version": 1, "payload": {}})


def test_parse_rejects_wrong_version():
    with pytest.raises(DocumentError):
        parse({"kind": "state", "version": 2,
               "payload": {"dims": [2], "matrix": []}})


def test_schema_errors_carry_paths():
    bad = {"kind": "povm", "version": 1,
           "payload": {"dim": 2, "effects": [[[[1, 0]]]]}}
    with pytest.raises(DocumentError) as err:
        parse(bad)
    assert err.value.path.startswith("$")


_HALF = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
_EYE = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def _povm_document(effects) -> dict:
    return {"kind": "povm", "version": 1, "payload": {"dim": 2, "effects": effects}}


@pytest.mark.parametrize("effects, at, lengths", [
    ([[_HALF, _HALF], [_EYE]], 1, "(1) than setting 0 (2)"),
    ([[_EYE], [_EYE], [_EYE, [[[0, 0], [0, 0]]] * 2]], 2, "(2) than setting 0 (1)"),
])
def test_ragged_povm_effects_are_located(effects, at, lengths):
    with pytest.raises(DocumentError) as err:
        parse(_povm_document(effects))
    assert err.value.path == f"$.payload.effects[{at}]"
    assert str(err.value).endswith(f"setting {at} has a different number of effects {lengths}")
    rho, povms, channel, scen = gallery.bell_cnot_realization()
    raw = serialize(Realization(scen, rho, povms, channel))
    raw["payload"]["povms"][1]["effects"] = effects
    with pytest.raises(DocumentError) as err:
        parse(raw)
    assert err.value.path == f"$.payload.povms[1].effects[{at}]"


def test_povm_effects_are_one_array():
    povm = parse(_povm_document([[_HALF, _HALF], [_EYE, [[[0, 0], [0, 0]]] * 2]])).payload
    assert povm.effects.shape == (2, 2, 2, 2) and not povm.effects.flags.writeable
    np.testing.assert_array_equal(povm.effects[1, 0], np.eye(2))
    with pytest.raises(DocumentError) as err:  # a fault past setting 0 is located
        parse(_povm_document([[_HALF, _HALF], [_EYE, [[[0, 0]] * 2] * 3]]))
    assert err.value.path == "$.payload.effects[1][1]"


def test_povm_with_no_effects():
    with pytest.raises(DocumentError, match=r"^\$\.payload: effects of setting 0 do not "
                                            "sum to identity$"):
        parse(_povm_document([[]]))
    povm = parse(_povm_document([])).payload
    assert povm.effects.shape == (0, 0, 2, 2)


def test_parse_rejects_invalid_state():
    bad = {"kind": "state", "version": 1,
           "payload": {"dims": [2],
                       "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [0.5, 0.0]]]}}
    with pytest.raises(DocumentError):
        parse(bad)


def test_parse_rejects_position_outside_scenario():
    raw = serialize(to_choi_assemblage(gallery.bell_cnot_assemblage()))
    raw["payload"]["members"][0]["a"] = [5, 0]
    with pytest.raises(DocumentError, match="outside the scenario"):
        parse(raw)


def test_first_position_outside_scenario_names_its_member():
    raw = serialize(to_choi_assemblage(gallery.bell_cnot_assemblage()))
    raw["payload"]["members"][2]["x"] = [0, 2]
    raw["payload"]["members"][3]["a"] = [0]
    with pytest.raises(DocumentError) as info:
        parse(raw)
    assert info.value.path == "$.payload.members[2]"
    assert str(info.value).endswith("outside the scenario")


def test_position_listed_twice_names_its_second_member():
    raw = serialize(to_choi_assemblage(gallery.bell_cnot_assemblage()))
    members = raw["payload"]["members"]
    members.insert(3, dict(members[1], member=members[0]["member"]))
    members.append(dict(members[0]))
    with pytest.raises(DocumentError) as info:
        parse(raw)
    assert info.value.path == "$.payload.members[3]"
    assert str(info.value).endswith("is listed twice")


def test_channel_needs_kraus_or_choi():
    with pytest.raises(DocumentError, match="kraus.*choi|choi.*kraus"):
        parse({"kind": "channel", "version": 1,
               "payload": {"in_dim": 2, "out_dim": 2}})


def _kraus_document(**faults) -> dict:
    """Amplitude damping in Kraus form; ``faults`` replaces operators."""
    ops = [[[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]],
           [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]]]
    for k, op in faults.items():
        ops[int(k[1:])] = op
    return {"kind": "channel", "version": 1,
            "payload": {"in_dim": 2, "out_dim": 2, "kraus": ops}}


def test_kraus_document_parses_to_the_choi_of_its_operators():
    doc = parse(_kraus_document())
    k = KrausChannel(2, 2, (np.array([[1, 0], [0, 0.8]]), np.array([[0, 0.6], [0, 0]])))
    assert doc.payload.matrix.tobytes() == choi_of_kraus(k).matrix.tobytes()


@pytest.mark.parametrize("op, path, message", [
    ([[[0, 0], [0.6, 0]], [[0, 0]]], "$.payload.kraus[1]",
     "Kraus operator has mismatched shape"),
    ([[[0, 0], [0.6, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]], "$.payload.kraus[1]",
     "Kraus operator has mismatched shape"),
    ([[[0, 0], [float("inf"), 0]], [[0, 0], [0, 0]]], "$.payload.kraus[1][0][1]",
     "non-finite entry"),
    ([[[0, 0], [10 ** 400, 0]], [[0, 0], [0, 0]]], "$.payload.kraus[1][0][1]",
     "entry out of range"),
], ids=["ragged", "wrong-shape", "non-finite", "out-of-range"])
def test_kraus_fault_is_named_at_its_operator(op, path, message):
    with pytest.raises(DocumentError, match=message) as err:
        parse(_kraus_document(k1=op))
    assert err.value.path == path


def test_dumps_is_deterministic():
    l = gallery.bell_cnot_assemblage()
    assert documents.dumps(l) == documents.dumps(l)
    assert json.loads(documents.dumps(l))["version"] == 1


def test_domain_errors_become_document_errors():
    ragged_kraus = {"kind": "channel", "version": 1,
                    "payload": {"in_dim": 2, "out_dim": 2,
                                "kraus": [[[[1, 0], [0, 0]], [[0, 0]]]]}}
    with pytest.raises(DocumentError) as err:
        parse(ragged_kraus)
    assert err.value.path == "$.payload.kraus[0]"
    rho, povms, channel, scen = gallery.bell_cnot_realization()
    raw = serialize(Realization(scen, rho, povms, channel))
    raw["payload"]["povms"][1]["dim"] = 3
    with pytest.raises(DocumentError) as err:
        parse(raw)
    assert err.value.path == "$.payload.povms[1].effects[0][0]"
    raw = serialize(gallery.bell_cnot_assemblage())
    raw["payload"]["scenario"]["trusted_dims"] = [2, 1, 2]
    with pytest.raises(DocumentError) as err:
        parse(raw)
    assert err.value.path == "$.payload.scenario.trusted_dims"
