"""The document walk decides and names faults as jsonschema does.

``documents.parse`` checks a document with one walk of ``SCHEMA``, which
both decides it and names its first fault; jsonschema, kept here as the
oracle, must agree.  Hypothesis mutates the bundled fixtures and a
generated assemblage (``conftest.mutated``); the values it writes in
include integer-valued floats, booleans, numeric strings and three-element
pairs.  The walk and jsonschema must agree on accept or reject; a document
with one fault must get jsonschema's message and path, and one with
several faults one of jsonschema's errors.  The walk checks all the
members of an assemblage as one list, so a fault in any one member must
still be found and named, and its number of calls must not grow with the
number of members.  A document nested deeper than the decoders or the
repr of a fault reach is a fault at ``$``, never a ``RecursionError``.
``_matrix_in`` reads a matrix in bulk; it must give the same array, byte
for byte, or the same error as the entry-by-entry reader it replaced,
which is kept here as the reference.

``parse`` decodes text with orjson and falls back to the standard ``json``
module where orjson refuses the text or the walk refuses orjson's tree.
The parse that decoded with ``json`` alone is kept here as the reference:
over mutated document bytes, written with the numbers and literals the two
decoders read differently, ``parse`` must give byte-identical arrays or the
same error.  It must also leave the garbage collector as it found it.
"""

import cmath
import copy
import dataclasses
import functools
import gc
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import Draft202012Validator

from conftest import BASES, mutated, pure_realization
from steercert import cli, documents, gallery
from steercert.assemblages import Assemblage
from steercert.channel_assemblages import ChannelAssemblage, to_choi_assemblage
from steercert.channels import ChoiOp, Povm, State
from steercert.documents import SCHEMA, Document, DocumentError, Realization, _matrix_in

ENVELOPE = Draft202012Validator(SCHEMA)
PAYLOADS = {kind: Draft202012Validator(schema) for kind, schema in SCHEMA["$defs"].items()}
VALUES = st.sampled_from([float("nan"), float("inf"), True, False, None, "x", "1", "0.5",
                          -1, 0, 1, 2, 2 ** 70, 10 ** 400, 0.0, 1.0, 2.0, 1.5, -0.0,
                          [], {}, [[1, 0]], [1, 0, 0], [0.5, 0.5, 0.5]])


def _jsonschema_errors(doc) -> list:
    """jsonschema's errors of a document as ``(message, path)``: those of its
    envelope, or, when there are none, those of its payload."""
    errors = list(ENVELOPE.iter_errors(doc))
    prefix = "$"
    if not errors:
        errors, prefix = list(PAYLOADS[doc["kind"]].iter_errors(doc["payload"])), "$.payload"
    return [(error.message, prefix + "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                                             for p in error.absolute_path))
            for error in errors]


def _walk_error(doc):
    """The walk's fault of a document as ``(message, path)``, or None."""
    try:
        documents._checked(doc)
    except DocumentError as error:
        return str(error)[len(error.path) + 2:], error.path
    return None


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(VALUES))
def test_walk_agrees_with_jsonschema(doc):
    errors, error = _jsonschema_errors(doc), _walk_error(doc)
    assert (error is None) == (not errors)
    if len(errors) == 1:
        assert error == errors[0]
    elif errors:
        assert error in errors


def _gallery_documents() -> list:
    rho, povms, channel, scen = gallery.bell_cnot_realization()
    tilted = gallery.tilted_cnot_realization()
    objects = [rho, *povms, channel, Realization(scen, rho, povms, channel),
               Realization(tilted[3], *tilted[:3]), gallery.bell_cnot_assemblage(),
               to_choi_assemblage(gallery.bell_cnot_assemblage()),
               gallery.tilted_cnot_assemblage(), gallery.key_input_state(),
               gallery.key_measurement(), gallery.computational_hadamard_povm()]
    return [documents.serialize(obj) for obj in objects]


@pytest.mark.parametrize("doc", BASES + _gallery_documents(), ids=lambda doc: doc["kind"])
def test_walk_accepts_fixtures_and_gallery_objects(doc):
    assert documents._fault_in(doc) is None


@pytest.mark.parametrize("instance, schema, accepted", [
    (1.0, {"type": "integer"}, True),  # as jsonschema reads it
    (-2.0 ** 62, {"type": "integer"}, True),
    (2.0 ** 63, {"type": "integer"}, False),  # unlike jsonschema: orjson's range
    (-2.0 ** 63, {"type": "integer"}, False),
    (float("inf"), {"type": "integer"}, False),
    (True, {"type": "integer"}, False),
    (True, {"type": "number"}, False),
    (1.0, SCHEMA["properties"]["version"], True),
    (True, SCHEMA["properties"]["version"], False),
    ([1, True], documents._DIMS, False),
    ([1, 2.0], documents._DIMS, True),
    ([[[1, 0], [0, True]]], documents._MATRIX, False),
])
def test_walk_decides_integers_and_booleans(instance, schema, accepted):
    assert (documents._walk([instance], schema) is None) is accepted


def test_integer_valued_floats_pass_the_walk():
    raw = documents.serialize(to_choi_assemblage(gallery.bell_cnot_assemblage()))
    expected = documents.parse(raw).payload.members
    raw["version"] = 1.0
    raw["payload"]["scenario"]["settings"] = [2.0, 2]
    for entry in raw["payload"]["members"]:
        entry["a"] = [float(v) for v in entry["a"]]
    assert np.array_equal(documents.parse(raw).payload.members, expected)


def _keywords(schema):
    """Every keyword of a schema node and of the nodes below it."""
    yield from schema
    subs = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values()]
    for sub in subs + ([schema["items"]] if "items" in schema else []):
        yield from _keywords(sub)


def test_walk_implements_every_keyword_of_the_schema():
    used = set(_keywords(SCHEMA))
    assert used <= {*documents._LEAVES, "properties", "items", "$schema", "$defs"}
    assert set(documents._LEAVES) <= used


@pytest.mark.parametrize("kind, field", [("realization", "dim"), ("channel", "in_dim"),
                                         ("channel", "out_dim")])
def test_integer_valued_float_dims_are_read_as_integers(kind, field):
    rho, povms, channel, scen = gallery.bell_cnot_realization()
    if kind == "realization":
        raw = documents.serialize(Realization(scen, rho, povms, channel))
        place = raw["payload"]["povms"][0]
    else:
        kraus = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]
        raw = {"kind": "channel", "version": 1,
               "payload": {"in_dim": 2, "out_dim": 2, "kraus": kraus}}
        place = raw["payload"]
    expected = documents.dumps(documents.parse(raw).payload)
    place[field] = float(place[field])
    assert documents.dumps(documents.parse(raw).payload) == expected


@functools.cache
def _assemblage_document(n, m, k, d) -> dict:
    """A document of an (n, m, k, d) assemblage, every member listed."""
    rng = np.random.default_rng([n, m, k, d])
    return documents.serialize(pure_realization(rng, n, m, k, d))


def _put_fault(entry, fault):
    if fault == "bool":
        entry["member"][0][1][0] = True
    elif fault == "string":
        entry["member"][1][0][1] = "0.5"
    elif fault == "pair of three":
        entry["member"][1][1] = [0.5, 0.0, 0.0]
    else:
        del entry["a"]


@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize("fault", ["bool", "string", "pair of three", "missing a"])
def test_fault_in_one_member_is_found_and_named(fault, place):
    raw = copy.deepcopy(_assemblage_document(3, 3, 3, 2))
    members = raw["payload"]["members"]
    assert len(members) == 729
    j = {"first": 0, "middle": 364, "last": 728}[place]
    _put_fault(members[j], fault)
    assert documents._fault_in(raw) is not None
    with pytest.raises(DocumentError) as info:
        documents.parse(raw)
    member, path = f"$.payload.members[{j}]", info.value.path
    assert path.startswith(member) and path[len(member):][:1] in ("", ".", "[")


def test_walk_calls_follow_the_schema_not_the_members(monkeypatch):
    walk, calls = documents._walk, []

    def counted(instances, schema):
        calls.append(len(instances))
        return walk(instances, schema)

    monkeypatch.setattr(documents, "_walk", counted)
    counts = {}
    for size in [(2, 2, 2, 2), (3, 3, 3, 2)]:
        payload = _assemblage_document(*size)["payload"]
        calls.clear()
        assert documents._walk([payload], SCHEMA["$defs"]["assemblage"]) is None
        assert max(calls) >= len(payload["members"])  # the members in one call
        counts[len(payload["members"])] = len(calls)
    assert list(counts) == [16, 729]
    assert counts[16] == counts[729]


# Places in the channel assemblage fixture where nested arrays are written:
# three the schema constrains and one it does not.
NESTED = {
    "kind": lambda doc: (doc, "kind"),
    "index": lambda doc: (doc["payload"]["members"][0], "a"),
    "choi entry": lambda doc: (doc["payload"]["members"][0]["choi"][0], 0),
    "unconstrained": lambda doc: (doc["payload"], "note"),
}


@pytest.mark.parametrize("depth", [500, 990, 1025, 100_000])
@pytest.mark.parametrize("place", sorted(NESTED))
def test_deep_nesting_is_an_input_error_only_where_constrained(place, depth, tmp_path,
                                                               capsys):
    doc = copy.deepcopy(BASES[2])
    node, key = NESTED[place](doc)
    node[key] = "@"
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace('"@"', "[" * depth + "]" * depth))
    code = cli.main(["--output", "json", "verify", str(path)])
    report = json.loads(capsys.readouterr().out)
    if place == "unconstrained":
        assert code == 0
    else:
        assert code == 3 and report["details"]["error"].startswith("$")


def test_deep_nesting_in_a_loaded_document_is_a_fault_at_the_root():
    doc, nested = copy.deepcopy(BASES[2]), []
    for _ in range(100_000):
        nested = [nested]
    doc["kind"] = nested  # its repr, in the message, recurses too deep
    with pytest.raises(DocumentError) as info:
        documents.parse(doc)
    assert str(info.value) == "$: nesting too deep"


def _reference_complex_in(pair, path):
    try:
        re, im = pair
    except ValueError:
        raise DocumentError("entry is not a [re, im] pair", path)
    try:
        value = complex(re, im)
    except OverflowError:
        raise DocumentError("entry out of range", path)
    if not cmath.isfinite(value):
        raise DocumentError("non-finite entry", path)
    return value


def _reference_matrix_in(rows, path) -> np.ndarray:
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DocumentError("matrix must be square", path)
    return np.array([[_reference_complex_in(v, f"{path}[{i}][{j}]")
                      for j, v in enumerate(row)]
                     for i, row in enumerate(rows)], dtype=complex)


def _outcome(reader, rows):
    try:
        arr = reader(rows, "$.m")
    except Exception as exc:  # the reference raises TypeError on a string entry
        return type(exc).__name__, str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


NUMBERS = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=False,
                                                              allow_infinity=False))
BAD_ENTRIES = st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False,
                               None, "1", "0.5", 10 ** 400, -10 ** 400])
BAD_PAIRS = st.sampled_from([[], [1.0], [1.0, 0.0, 0.0], 0.5, "ab", None, [[1, 0], [0, 1]]])


@st.composite
def matrices(draw):
    """A square matrix of finite ``[re, im]`` pairs with up to two faults:
    a wrong entry, a wrong pair, a short row, or a missing row."""
    r = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.lists(NUMBERS, min_size=2, max_size=2),
                                  min_size=r, max_size=r), min_size=r, max_size=r))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1)) if rows else None
        fault = draw(st.sampled_from(["entry", "pair", "row", "rows"]))
        if i is None or not rows[i]:
            continue
        j = draw(st.integers(0, len(rows[i]) - 1))
        if fault == "entry" and isinstance(rows[i][j], list) and len(rows[i][j]) == 2:
            rows[i][j][draw(st.integers(0, 1))] = draw(BAD_ENTRIES)
        elif fault == "pair":
            rows[i][j] = draw(BAD_PAIRS)
        elif fault == "row":
            rows[i].pop()
        elif fault == "rows":
            rows.pop(i)
    return rows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rows=matrices())
def test_bulk_matrix_reader_matches_entry_by_entry(rows):
    assert _outcome(_matrix_in, rows) == _outcome(_reference_matrix_in, rows)


def _reference_parse(data):
    """The parse that decoded with ``json`` alone, as ``(kind, version,
    payload, member_at)``."""
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at byte offset {exc.pos}: {exc.msg}")
    documents._checked(raw)
    kind = raw["kind"]
    try:
        payload, member_at = documents._PARSERS[kind](raw["payload"])
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(str(exc), "$.payload")
    return kind, raw["version"], payload, member_at


def _arrays(payload) -> list:
    """Every array a parsed payload holds, in a fixed order."""
    if isinstance(payload, (Assemblage, ChannelAssemblage)):
        return [payload.members]
    if isinstance(payload, (State, ChoiOp)):
        return [payload.matrix]
    if isinstance(payload, Povm):
        return [payload.effects]
    channel = [] if payload.channel is None else _arrays(payload.channel)
    return [payload.state.matrix, *(a for p in payload.povms for a in _arrays(p)), *channel]


def _parsed(reader, data):
    try:
        kind, version, payload, member_at = reader(data)
    except DocumentError as exc:
        return "DocumentError", str(exc), exc.path
    except Exception as exc:  # a decoder's own error, as both raise it
        return type(exc).__name__, str(exc)
    arrays = _arrays(payload) + ([] if member_at is None else [member_at])
    return kind, type(version), version, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _new_parse(data):
    doc = documents.parse(data)
    return doc.kind, doc.version, doc.payload, doc.member_at


# Numbers and literals the two decoders read differently: orjson reads an
# integer outside [-2**63, 2**64) as a float and refuses NaN, Infinity, a
# number beyond the float range and a lone surrogate.  "@..." strings are
# written into the text as the bare literal after them.
DECODED = [2 ** 64, -2 ** 63 - 1, 2 ** 70, 10 ** 400, 2 ** 64 - 1, -2 ** 63, 2 ** 63,
           float("nan"), float("inf"), -float("inf"), 1e300, 5e-324, -0.0, 0.1, 1.0,
           True, None, "\ud800", "@1e400", "@-1e400", "@1E2", "@-0", "@0.1e1",
           "@123456789012345678901234567890"]
TEXTS = {
    "utf-8": lambda text: text.encode(),
    "str": lambda text: text,
    "bom": lambda text: b"\xef\xbb\xbf" + text.encode(),
    "bom-str": lambda text: "\ufeff" + text,
    "utf-16": lambda text: text.encode("utf-16"),
    "utf-32-le": lambda text: text.encode("utf-32-le"),
    "trailing": lambda text: text.encode() + b" {}",
    "cut": lambda text: text.encode()[:-1],
}


def _text(doc) -> str:
    text = json.dumps(doc)
    for literal in DECODED:
        if isinstance(literal, str) and literal.startswith("@"):
            text = text.replace(json.dumps(literal), literal[1:])
    return text


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(st.sampled_from(DECODED)), form=st.sampled_from(sorted(TEXTS)))
def test_orjson_parse_matches_the_json_parse(doc, form):
    data = TEXTS[form](_text(doc))
    assert _parsed(_new_parse, data) == _parsed(_reference_parse, data)


def _channel_assemblage_document() -> dict:
    return documents.serialize(to_choi_assemblage(gallery.bell_cnot_assemblage()))


# An integer field and a matrix entry of each document kind with members.
PLACES = {
    "version": lambda doc: (doc, "version"),
    "settings": lambda doc: (doc["payload"]["scenario"]["settings"], 0),
    "index": lambda doc: (doc["payload"]["members"][1]["a"], 0),
    "entry": lambda doc: (doc["payload"]["members"][1]["member"][0][0], 0),
    "imaginary": lambda doc: (doc["payload"]["members"][2]["member"][1][0], 1),
}


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("value", DECODED, ids=repr)
def test_each_number_and_literal_parses_as_json_reads_it(value, place):
    doc = _channel_assemblage_document()
    node, key = PLACES[place](doc)
    node[key] = value
    for form, write in TEXTS.items():
        data = write(_text(doc))
        assert _parsed(_new_parse, data) == _parsed(_reference_parse, data), form


@pytest.mark.parametrize("place, path", [("settings", "$.payload.scenario.settings[0]"),
                                         ("index", "$.payload.members[1].a[0]")])
def test_a_float_beyond_orjsons_integer_range_is_not_an_integer(place, path):
    doc = _channel_assemblage_document()
    node, key = PLACES[place](doc)
    node[key] = 1e300
    for form in ("utf-8", "str", "bom", "utf-16", "utf-32-le"):
        with pytest.raises(DocumentError) as info:
            documents.parse(TEXTS[form](_text(doc)))
        assert str(info.value) == f"{path}: 1e+300 is not of type 'integer'", form


def _faults() -> dict:
    valid = documents.dumps(_channel_assemblage_document()).encode()
    schema = _channel_assemblage_document()
    schema["payload"]["members"][0]["a"] = ["0", 0]
    domain = _channel_assemblage_document()
    domain["payload"]["members"].append(domain["payload"]["members"][0])  # listed twice
    return {"valid": valid, "invalid JSON": valid[:-1],
            "schema": json.dumps(schema).encode(), "domain": json.dumps(domain).encode()}


FAULTS = _faults()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", sorted(FAULTS))
def test_parse_pauses_the_collector_and_restores_it(case, enabled, monkeypatch):
    decode, during = documents.orjson.loads, []

    def watched(data):
        during.append(gc.isenabled())
        return decode(data)

    monkeypatch.setattr(documents.orjson, "loads", watched)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            documents.parse(FAULTS[case])
        except DocumentError:
            assert case != "valid"
        else:
            assert case == "valid"
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_document_keeps_no_decoded_tree():
    assert [f.name for f in dataclasses.fields(Document)] == \
        ["kind", "version", "payload", "member_at"]
    doc = documents.parse(FAULTS["valid"])
    entries = json.loads(FAULTS["valid"])["payload"]["members"]
    assert doc.member_at.tolist() == [doc.payload.scenario.index(e["a"], e["x"])
                                      for e in entries]
