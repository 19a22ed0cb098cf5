"""JSON document schema, parsing and serialization.

One envelope for every payload kind::

    {"kind": "...", "version": 1, "payload": {...}}

Complex scalars serialize as two-element ``[re, im]`` arrays, matrices as
row-major nested arrays, dims as integer arrays.  Missing assemblage
positions are zero members.

``SCHEMA`` is the one definition of a valid document.  ``parse`` checks a
document with ``_conforms``, a walk of ``SCHEMA``; only when that check
says no does it import jsonschema, which either names the fault and its
JSON path or accepts what the walk leaves to it.  The walk is batched: it
checks a *list* of instances against a schema node one keyword at a time,
and ``properties`` and ``items`` recurse once on the gathered
sub-instances of the whole list, so the number of calls follows the depth
of the schema, not the number of members.  The parsers then read the
matrices of an assemblage or of a POVM, and each Kraus operator, with one
``np.array`` call and fall back to one matrix or one entry at a time only
to name the first fault.  A position listed twice in an assemblage is a
fault at its second listing.

``parse`` decodes bytes or str with orjson.  It decodes them again with
the standard ``json`` module, and goes on with that tree, in two cases
only: orjson refuses the text (``NaN`` and ``Infinity`` literals, a
number beyond the float range, a byte order mark, UTF-16 or UTF-32, a
lone surrogate), or the walk refuses orjson's tree (orjson reads an
integer outside [-2**63, 2**64) as a float, which an integer field
rejects).  Every fault is therefore named by ``json`` or by jsonschema,
and on the accepted path the walk runs once.  The whole parse runs with the cyclic garbage collector paused:
the decoded tree holds no cycle and is freed before ``parse`` returns,
so a collection during the parse could free nothing.  No decoded tree
outlives ``parse``; a ``Document`` keeps the scenario index of each
``members`` entry in its place.
"""

from __future__ import annotations

import cmath
import functools
import gc
import json
from dataclasses import dataclass
from itertools import chain, islice
from math import prod

import numpy as np
import orjson

from .core import Op
from .channels import ChoiOp, KrausChannel, Povm, State, choi_of_kraus
from .assemblages import Assemblage, Scenario
from .channel_assemblages import ChannelAssemblage


class DocumentError(ValueError):
    """Schema violation or inconsistent payload, with a JSON-path location."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
_MATRIX = {"type": "array", "items": {"type": "array", "items": _COMPLEX}}
_DIMS = {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1}
_SCENARIO = {
    "type": "object",
    "required": ["settings", "outcomes", "trusted_dims"],
    "properties": {
        "settings": _DIMS,
        "outcomes": _DIMS,
        "trusted_dims": _DIMS,
    },
}
_STATE = {
    "type": "object",
    "required": ["dims", "matrix"],
    "properties": {
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "matrix": _MATRIX,
    },
}
_POVM_PAYLOAD = {
    "type": "object",
    "required": ["dim", "effects"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "effects": {"type": "array", "items": {"type": "array", "items": _MATRIX}},
    },
}
_CHANNEL_PAYLOAD = {
    "type": "object",
    "required": ["in_dim", "out_dim"],
    "properties": {
        "in_dim": {"type": "integer", "minimum": 1},
        "out_dim": {"type": "integer", "minimum": 1},
        "in_dims": _DIMS,
        "out_dims": _DIMS,
        "kraus": {"type": "array", "items": _MATRIX},
        "choi": _MATRIX,
    },
}
_INDEX_VEC = {"type": "array", "items": {"type": "integer", "minimum": 0}}
_MEMBER = {
    "type": "object",
    "required": ["a", "x"],
    "properties": {
        "a": _INDEX_VEC,
        "x": _INDEX_VEC,
        "member": _MATRIX,
        "choi": _MATRIX,
    },
}
_ASSEMBLAGE = {
    "type": "object",
    "required": ["scenario", "members"],
    "properties": {
        "scenario": _SCENARIO,
        "members": {"type": "array", "items": _MEMBER},
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind", "version", "payload"],
    "properties": {
        "kind": {
            "enum": ["state", "povm", "channel", "assemblage",
                     "channel_assemblage", "realization"],
        },
        "version": {"const": 1},
        "payload": {"type": "object"},
    },
    "$defs": {
        "state": _STATE,
        "povm": _POVM_PAYLOAD,
        "channel": _CHANNEL_PAYLOAD,
        "assemblage": _ASSEMBLAGE,
        "channel_assemblage": _ASSEMBLAGE,
        "realization": {
            "type": "object",
            "required": ["scenario", "state", "povms"],
            "properties": {
                "scenario": _SCENARIO,
                "state": _STATE,
                "povms": {"type": "array", "items": _POVM_PAYLOAD},
                "channel": _CHANNEL_PAYLOAD,
            },
        },
    },
}


_TYPES = {"object": {dict}, "array": {list}, "integer": {int}, "number": {int, float}}


def _of(vs, kind) -> list:
    """The members of ``vs`` of one JSON type (``bool`` is not a number)."""
    types = _TYPES[kind]
    return vs if set(map(type, vs)) <= types else [v for v in vs if type(v) in types]


def _at_least(vs, s) -> bool:
    if set(map(type, vs)) <= {int}:  # the least integer decides, no NaN among them
        return min(vs) >= s
    return all(v >= s for v in _of(vs, "number"))


# One check per keyword SCHEMA uses; each reads (instances, keyword value)
# and holds when every instance satisfies the keyword.  Keywords that
# constrain one JSON type pass any other type, as in JSON Schema.
_KEYWORDS = {
    "$schema": lambda vs, s: True,  # annotations, no constraint on the instance
    "$defs": lambda vs, s: True,
    "type": lambda vs, s: type(s) is str and set(map(type, vs)) <= _TYPES.get(s, set()),
    "required": lambda vs, s: all(map(set(s).issubset, _of(vs, "object"))),
    "properties": lambda vs, s: all(
        _conform_all([v[key] for v in _of(vs, "object") if key in v], sub)
        for key, sub in s.items()),
    "items": lambda vs, s: _conform_all(list(chain.from_iterable(_of(vs, "array"))), s),
    "minItems": lambda vs, s: min(map(len, _of(vs, "array")), default=s) >= s,
    "maxItems": lambda vs, s: max(map(len, _of(vs, "array")), default=s) <= s,
    "minimum": _at_least,
    "enum": lambda vs, s: all(any(type(v) is type(e) and v == e for e in s) for v in vs),
    "const": lambda vs, s: all(type(v) is type(s) and v == s for v in vs),
}


def _conform_all(instances: list, schema) -> bool:
    """Whether every one of ``instances`` passes :func:`_conforms`.

    One keyword at a time over the whole list: ``properties`` and ``items``
    gather the sub-instances of every instance and recurse once, so the
    number of calls follows the depth of ``schema``, not the size of the
    instances (all the members of an assemblage are one list).
    """
    if not instances:
        return True
    for key, value in schema.items():
        check = _KEYWORDS.get(key)
        if check is None or not check(instances, value):
            return False
    return True


def _conforms(instance, schema) -> bool:
    """A fast, conservative check of ``instance`` against a node of ``SCHEMA``.

    True means jsonschema accepts the instance too.  False means it may not:
    a keyword this check does not implement, an integer written as ``1.0``,
    or a real fault; ``parse`` then asks jsonschema.
    """
    return _conform_all([instance], schema)


@dataclass(frozen=True)
class Document:
    kind: str
    version: int
    payload: object  # parsed domain object
    # The scenario index of each ``members`` entry, in document order, for
    # an assemblage or a channel assemblage; None for other kinds.
    member_at: np.ndarray = None


def _complex_in(pair, path):
    try:
        re, im = pair
    except ValueError:
        raise DocumentError("entry is not a [re, im] pair", path)
    try:
        value = complex(re, im)  # a string raises TypeError, left to the schema
    except OverflowError:  # an integer beyond the float range
        raise DocumentError("entry out of range", path)
    if not cmath.isfinite(value):
        raise DocumentError("non-finite entry", path)
    return value


def _pairs_in(data, shape: tuple):
    """``data`` as a complex array of ``shape``, read by one ``np.array``
    call, or None if it is not an array of that shape of finite ``[re, im]``
    pairs.  A string or a null among the entries gives another dtype kind;
    a boolean reads as 0 or 1, as ``complex`` reads it."""
    try:
        pairs = np.array(data)
    except (TypeError, ValueError, OverflowError):
        return None
    if (pairs.dtype.kind in "bif" and pairs.shape == shape + (2,)
            and np.isfinite(pairs).all()):
        return pairs.astype(float, copy=False).view(complex)[..., 0]
    return None


def _matrix_in(rows, path) -> np.ndarray:
    side = len(rows) if type(rows) is list else -1
    mat = _pairs_in(rows, (side, side))
    if mat is not None:
        return mat
    # Entry by entry, to name the first fault (or to read what the bulk
    # path leaves out, such as an integer beyond the int64 range).
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DocumentError("matrix must be square", path)
    return np.array([[_complex_in(v, f"{path}[{i}][{j}]")
                      for j, v in enumerate(row)]
                     for i, row in enumerate(rows)], dtype=complex)


def _kraus_in(rows, shape: tuple, path) -> np.ndarray:
    """A Kraus operator of ``shape`` ``(out_dim, in_dim)``, read by one
    ``np.array`` call, or entry by entry to name the first fault."""
    op = _pairs_in(rows, shape)
    if op is None:
        entries = [[_complex_in(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
                   for i, row in enumerate(rows)]
        if [len(row) for row in entries] != [shape[1]] * shape[0]:  # ragged rows too
            raise DocumentError("Kraus operator has mismatched shape", path)
        op = np.array(entries, dtype=complex)
    return op


def _stack_in(mats: list, dims: tuple, path_of) -> np.ndarray:
    """The matrices ``mats`` as one complex ``(len(mats), D, D)`` array,
    ``D = prod(dims)``, read by one ``np.array`` call.  Only when that read
    fails are they read one at a time, to name the first fault at
    ``path_of(i)``."""
    side = prod(dims)
    stack = _pairs_in(mats, (len(mats), side, side))
    if stack is None:
        stack = np.zeros((len(mats), side, side), dtype=complex)
        for i, rows in enumerate(mats):
            mat = _matrix_in(rows, path_of(i))
            if mat.shape != (side, side):
                raise DocumentError(f"matrix shape {mat.shape} does not match dims "
                                    f"{dims}", path_of(i))
            stack[i] = mat
    return stack


def _matrix_out(arr) -> list:
    arr = np.asarray(arr, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def _scenario_in(obj, path) -> Scenario:
    try:
        return Scenario(tuple(obj["settings"]), tuple(obj["outcomes"]),
                        tuple(obj["trusted_dims"]))
    except ValueError as exc:
        raise DocumentError(str(exc), path)


def _scenario_out(s: Scenario) -> dict:
    return {"settings": list(s.settings), "outcomes": list(s.outcomes),
            "trusted_dims": list(s.trusted_dims)}


def _state_in(obj, path) -> State:
    mat = _matrix_in(obj["matrix"], f"{path}.matrix")
    dims = tuple(obj.get("dims", [mat.shape[0]]))
    try:
        return State(Op(dims, mat))
    except ValueError as exc:
        raise DocumentError(str(exc), path)


def _povm_in(obj, path) -> Povm:
    dim, rows = int(obj["dim"]), obj["effects"]  # jsonschema accepts 2.0
    at = [(x, a) for x, row in enumerate(rows) for a in range(len(row))]
    stack = _stack_in(list(chain.from_iterable(rows)), (dim,),
                      lambda i: f"{path}.effects[{at[i][0]}][{at[i][1]}]")
    ops = iter([Op((dim,), mat) for mat in stack])
    try:
        return Povm(dim, tuple(tuple(islice(ops, len(row))) for row in rows))
    except ValueError as exc:
        raise DocumentError(str(exc), path)


def _povm_out(p: Povm) -> dict:
    return {"dim": p.dim,
            "effects": [[_matrix_out(e.data) for e in row] for row in p.effects]}


def _channel_in(obj, path) -> ChoiOp:
    in_dims = tuple(obj.get("in_dims", [obj["in_dim"]]))
    out_dims = tuple(obj.get("out_dims", [obj["out_dim"]]))
    if prod(in_dims) != obj["in_dim"] or prod(out_dims) != obj["out_dim"]:
        raise DocumentError("dims products disagree with in_dim/out_dim", path)
    if "choi" in obj:
        mat = _matrix_in(obj["choi"], f"{path}.choi")
        try:
            return ChoiOp(in_dims, out_dims, Op(out_dims + in_dims, mat))
        except ValueError as exc:
            raise DocumentError(str(exc), path)
    if "kraus" in obj:
        in_dim, out_dim = int(obj["in_dim"]), int(obj["out_dim"])
        ops = tuple(_kraus_in(m, (out_dim, in_dim), f"{path}.kraus[{k}]")
                    for k, m in enumerate(obj["kraus"]))
        try:
            k = KrausChannel(in_dim, out_dim, ops)
        except ValueError as exc:
            raise DocumentError(str(exc), f"{path}.kraus")
        return choi_of_kraus(k, in_dims, out_dims)
    raise DocumentError("channel needs either 'kraus' or 'choi'", path)


def _channel_out(c: ChoiOp) -> dict:
    return {"in_dim": c.in_dim, "out_dim": c.out_dim,
            "in_dims": list(c.in_dims), "out_dims": list(c.out_dims),
            "choi": _matrix_out(c.op.data)}


def _assemblage_in(obj, path, as_channel: bool):
    scen = _scenario_in(obj["scenario"], f"{path}.scenario")
    if as_channel and len(scen.trusted_dims) != 2:
        raise DocumentError("a channel assemblage has trusted dims [out, in]",
                            f"{path}.scenario.trusted_dims")
    key = "choi" if as_channel else "member"
    d = scen.trusted_dim
    n = prod(scen.settings) * prod(scen.outcomes)
    try:
        members = np.zeros((n, d, d), dtype=complex)
    except (MemoryError, ValueError):  # ValueError: the size overflows
        raise DocumentError(f"the scenario's {n} members of {d}x{d} cannot be "
                            "allocated", f"{path}.scenario")
    entries = obj["members"]
    try:
        at = scen.indices((entry["a"], entry["x"]) for entry in entries)
    except ValueError as exc:
        raise DocumentError(str(exc), f"{path}.members[{exc.place}]")
    order = np.argsort(at, kind="stable")  # a repeat sorts after its first
    repeats = order[1:][at[order[1:]] == at[order[:-1]]]
    if len(repeats):
        j = int(repeats.min())
        raise DocumentError(f"member {tuple(entries[j]['a'])}|{tuple(entries[j]['x'])} "
                            "is listed twice", f"{path}.members[{j}]")
    mats = [entry.get(key, entry.get("member")) for entry in entries]
    missing = mats.index(None) if None in mats else len(mats)
    stack = _stack_in(mats[:missing], scen.trusted_dims,
                      lambda i: f"{path}.members[{i}].{key}")
    if missing < len(mats):
        raise DocumentError(f"missing '{key}' matrix", f"{path}.members[{missing}]")
    members[at] = stack
    return (ChannelAssemblage if as_channel else Assemblage)(scen, members), at


@dataclass(frozen=True)
class Realization:
    scenario: Scenario
    state: State
    povms: tuple
    channel: ChoiOp = None  # None for plain state-assemblage realizations


def _realization_in(obj, path) -> Realization:
    scen = _scenario_in(obj["scenario"], f"{path}.scenario")
    state = _state_in(obj["state"], f"{path}.state")
    if len(obj["povms"]) != scen.n_parties:
        raise DocumentError(f"expected one POVM per party ({scen.n_parties}), "
                            f"got {len(obj['povms'])}", f"{path}.povms")
    povms = []
    for i, (p, m, k) in enumerate(zip(obj["povms"], scen.settings, scen.outcomes)):
        povm = _povm_in(p, f"{path}.povms[{i}]")
        if not povm.covers(m, k):
            raise DocumentError(f"POVM of party {i} is too small for the scenario",
                                f"{path}.povms[{i}]")
        povms.append(povm)
    channel = (_channel_in(obj["channel"], f"{path}.channel")
               if "channel" in obj else None)
    return Realization(scen, state, tuple(povms), channel)


# Each parser returns the payload and the scenario index of each
# ``members`` entry (None for kinds without members).
_PARSERS = {
    "state": lambda obj: (_state_in(obj, "$.payload"), None),
    "povm": lambda obj: (_povm_in(obj, "$.payload"), None),
    "channel": lambda obj: (_channel_in(obj, "$.payload"), None),
    "assemblage": lambda obj: _assemblage_in(obj, "$.payload", as_channel=False),
    "channel_assemblage": lambda obj: _assemblage_in(obj, "$.payload",
                                                     as_channel=True),
    "realization": lambda obj: (_realization_in(obj, "$.payload"), None),
}


@functools.cache
def _validator(kind):
    """The jsonschema validator of ``SCHEMA`` (kind None) or of ``$defs[kind]``,
    built on first use: jsonschema is imported only to explain a rejection."""
    from jsonschema import Draft202012Validator
    return Draft202012Validator(SCHEMA if kind is None else SCHEMA["$defs"][kind])


def _validate(instance, kind=None, path="$"):
    """Raise jsonschema's best-matching error, if any, at its JSON path."""
    from jsonschema.exceptions import best_match
    error = best_match(_validator(kind).iter_errors(instance))
    if error is not None:
        raise DocumentError(error.message, path + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in error.absolute_path))


def _orjson_tree(data):
    """orjson's tree of document bytes or str ``data``, when orjson decodes
    them and the walk accepts the tree, envelope and payload; else None."""
    try:
        raw = orjson.loads(data)
    except orjson.JSONDecodeError:
        return None
    if _conforms(raw, SCHEMA) and _conforms(raw["payload"],
                                            SCHEMA["$defs"][raw["kind"]]):
        return raw
    return None


def _parse(data) -> Document:
    raw = _orjson_tree(data) if isinstance(data, (bytes, str)) else None
    if raw is None:  # the standard decoder and jsonschema name the fault
        raw = data
        if isinstance(data, (bytes, str)):
            try:
                raw = json.loads(data)
            except json.JSONDecodeError as exc:
                raise DocumentError(f"invalid JSON at byte offset {exc.pos}: {exc.msg}")
        if not _conforms(raw, SCHEMA):
            _validate(raw)
        if not _conforms(raw["payload"], SCHEMA["$defs"][raw["kind"]]):
            _validate(raw["payload"], raw["kind"], "$.payload")
    kind = raw["kind"]
    try:
        payload, member_at = _PARSERS[kind](raw["payload"])
    except DocumentError:
        raise
    except ValueError as exc:
        # A domain check the parser does not locate more precisely.
        raise DocumentError(str(exc), "$.payload")
    return Document(kind, raw["version"], payload, member_at)


def parse(data) -> Document:
    """Parse and validate document bytes (or str, or an already-loaded dict).

    The cyclic garbage collector is paused for the whole parse, and left
    enabled or disabled as it was found, whatever the outcome.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(data)
    finally:
        if enabled:
            gc.enable()


def serialize(obj) -> dict:
    """Turn a domain object into a document dict."""
    if isinstance(obj, State):
        payload = {"dims": list(obj.dims), "matrix": _matrix_out(obj.op.data)}
        kind = "state"
    elif isinstance(obj, Povm):
        payload, kind = _povm_out(obj), "povm"
    elif isinstance(obj, ChoiOp):
        payload, kind = _channel_out(obj), "channel"
    elif isinstance(obj, (Assemblage, ChannelAssemblage)):
        key = "choi" if isinstance(obj, ChannelAssemblage) else "member"
        payload = {
            "scenario": _scenario_out(obj.scenario),
            "members": [
                {"a": list(a), "x": list(x), key: _matrix_out(m)}
                for (a, x), m in sorted(zip(obj.scenario.positions(), obj.members),
                                        key=lambda item: item[0])
                if np.max(np.abs(m)) > 0
            ],
        }
        kind = "channel_assemblage" if key == "choi" else "assemblage"
    elif isinstance(obj, Realization):
        payload = {
            "scenario": _scenario_out(obj.scenario),
            "state": {"dims": list(obj.state.dims),
                      "matrix": _matrix_out(obj.state.op.data)},
            "povms": [_povm_out(p) for p in obj.povms],
        }
        if obj.channel is not None:
            payload["channel"] = _channel_out(obj.channel)
        kind = "realization"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {"kind": kind, "version": 1, "payload": payload}


def dumps(obj, indent=None) -> str:
    doc = serialize(obj) if not isinstance(obj, dict) else obj
    return json.dumps(doc, indent=indent, sort_keys=True)
