"""JSON document schema, parsing and serialization.

One envelope for every payload kind::

    {"kind": "...", "version": 1, "payload": {...}}

Complex scalars serialize as two-element ``[re, im]`` arrays, matrices as
row-major nested arrays, dims as integer arrays.  Missing assemblage
positions are zero members.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from math import prod

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

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
        "state": {
            "type": "object",
            "required": ["dims", "matrix"],
            "properties": {
                "dims": {"type": "array",
                         "items": {"type": "integer", "minimum": 1}},
                "matrix": _MATRIX,
            },
        },
        "povm": _POVM_PAYLOAD,
        "channel": _CHANNEL_PAYLOAD,
        "assemblage": {
            "type": "object",
            "required": ["scenario", "members"],
            "properties": {
                "scenario": _SCENARIO,
                "members": {"type": "array", "items": _MEMBER},
            },
        },
        "channel_assemblage": {
            "type": "object",
            "required": ["scenario", "members"],
            "properties": {
                "scenario": _SCENARIO,
                "members": {"type": "array", "items": _MEMBER},
            },
        },
        "realization": {
            "type": "object",
            "required": ["scenario", "state", "povms"],
            "properties": {
                "scenario": _SCENARIO,
                "state": {"type": "object"},
                "povms": {"type": "array", "items": _POVM_PAYLOAD},
                "channel": _CHANNEL_PAYLOAD,
            },
        },
    },
}


# Built once: jsonschema.validate would re-check SCHEMA itself on every call.
_ENVELOPE_VALIDATOR = Draft202012Validator(SCHEMA)
_PAYLOAD_VALIDATORS = {kind: Draft202012Validator(schema)
                       for kind, schema in SCHEMA["$defs"].items()}


@dataclass(frozen=True)
class Document:
    kind: str
    version: int
    payload: object  # parsed domain object
    raw: dict


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


def _matrix_in(rows, path) -> np.ndarray:
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DocumentError("matrix must be square", path)
    return np.array([[_complex_in(v, f"{path}[{i}][{j}]")
                      for j, v in enumerate(row)]
                     for i, row in enumerate(rows)], dtype=complex)


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
    dim = obj["dim"]
    effects = []
    for x, row in enumerate(obj["effects"]):
        ops = []
        for a, m in enumerate(row):
            effect_path = f"{path}.effects[{x}][{a}]"
            mat = _matrix_in(m, effect_path)
            try:
                ops.append(Op((dim,), mat))
            except ValueError as exc:
                raise DocumentError(str(exc), effect_path)
        effects.append(tuple(ops))
    try:
        return Povm(dim, tuple(effects))
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
        ops = tuple(
            np.array([[_complex_in(v, f"{path}.kraus[{k}]") for v in row]
                      for row in m], dtype=complex)
            for k, m in enumerate(obj["kraus"]))
        try:
            k = KrausChannel(obj["in_dim"], obj["out_dim"], ops)
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
    members = np.zeros((prod(scen.settings) * prod(scen.outcomes), d, d), dtype=complex)
    for i, entry in enumerate(obj["members"]):
        try:
            index = scen.index(entry["a"], entry["x"])
        except ValueError as exc:
            raise DocumentError(str(exc), f"{path}.members[{i}]")
        mat = entry.get(key, entry.get("member"))
        if mat is None:
            raise DocumentError(f"missing '{key}' matrix", f"{path}.members[{i}]")
        mat_path = f"{path}.members[{i}].{key}"
        mat = _matrix_in(mat, mat_path)
        if mat.shape != (d, d):
            raise DocumentError(f"matrix shape {mat.shape} does not match dims "
                                f"{scen.trusted_dims}", mat_path)
        members[index] = mat
    return (ChannelAssemblage if as_channel else Assemblage)(scen, members)


@dataclass(frozen=True)
class Realization:
    scenario: Scenario
    state: State
    povms: tuple
    channel: ChoiOp = None  # None for plain state-assemblage realizations


def _realization_in(obj, path) -> Realization:
    scen = _scenario_in(obj["scenario"], f"{path}.scenario")
    try:
        state = _state_in(obj["state"], f"{path}.state")
    except (KeyError, TypeError) as exc:
        # The payload schema leaves the state unchecked, as checking a large
        # matrix node by node is slow; the state schema locates the fault.
        _validate(_PAYLOAD_VALIDATORS["state"], obj["state"], ("payload", "state"))
        raise DocumentError(f"malformed state ({exc})", f"{path}.state")
    if len(obj["povms"]) != scen.n_parties:
        raise DocumentError(f"expected one POVM per party ({scen.n_parties}), "
                            f"got {len(obj['povms'])}", f"{path}.povms")
    povms = []
    for i, (p, m, k) in enumerate(zip(obj["povms"], scen.settings, scen.outcomes)):
        povm = _povm_in(p, f"{path}.povms[{i}]")
        if povm.settings < m or povm.outcomes < k:
            raise DocumentError(f"POVM of party {i} is too small for the scenario",
                                f"{path}.povms[{i}]")
        povms.append(povm)
    channel = (_channel_in(obj["channel"], f"{path}.channel")
               if "channel" in obj else None)
    return Realization(scen, state, tuple(povms), channel)


_PARSERS = {
    "state": lambda obj: _state_in(obj, "$.payload"),
    "povm": lambda obj: _povm_in(obj, "$.payload"),
    "channel": lambda obj: _channel_in(obj, "$.payload"),
    "assemblage": lambda obj: _assemblage_in(obj, "$.payload", as_channel=False),
    "channel_assemblage": lambda obj: _assemblage_in(obj, "$.payload",
                                                     as_channel=True),
    "realization": lambda obj: _realization_in(obj, "$.payload"),
}


def _validate(validator, instance, prefix=()):
    error = best_match(validator.iter_errors(instance))
    if error is not None:
        loc = "$." + ".".join(str(p) for p in (*prefix, *error.absolute_path))
        raise DocumentError(error.message, loc)


def parse(data) -> Document:
    """Parse and validate document bytes (or str, or an already-loaded dict)."""
    if isinstance(data, (bytes, str)):
        try:
            raw = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON at byte offset {exc.pos}: {exc.msg}")
    else:
        raw = data
    _validate(_ENVELOPE_VALIDATOR, raw)
    kind = raw["kind"]
    _validate(_PAYLOAD_VALIDATORS[kind], raw["payload"])
    try:
        payload = _PARSERS[kind](raw["payload"])
    except DocumentError:
        raise
    except ValueError as exc:
        # A domain check the parser does not locate more precisely.
        raise DocumentError(str(exc), "$.payload")
    return Document(kind=kind, version=raw["version"], payload=payload, raw=raw)


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
