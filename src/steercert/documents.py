"""JSON document schema, parsing and serialization.

One envelope for every payload kind::

    {"kind": "...", "version": 1, "payload": {...}}

Complex scalars serialize as two-element ``[re, im]`` arrays, matrices as
row-major nested arrays, dims as integer arrays.  Missing assemblage
positions are zero members.

``SCHEMA`` is the one definition of a valid document.  ``parse`` checks a
document with ``_conforms``, a walk of ``SCHEMA`` that reads each matrix in
bulk; only when that check says no does it import jsonschema, which either
names the fault and its JSON path or accepts what the walk leaves to it.
"""

from __future__ import annotations

import cmath
import functools
import json
from dataclasses import dataclass
from itertools import chain
from math import prod

import numpy as np

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
                "state": _STATE,
                "povms": {"type": "array", "items": _POVM_PAYLOAD},
                "channel": _CHANNEL_PAYLOAD,
            },
        },
    },
}


def _is_matrix(rows) -> bool:
    """Whether ``rows`` conforms to ``_MATRIX``: nested lists of ``[re, im]``
    pairs of ints or floats (``bool`` is neither)."""
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        return False
    entries = list(chain.from_iterable(rows))
    return (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}
            and set(map(type, chain.from_iterable(entries))) <= {int, float})


_TYPES = {"object": {dict}, "array": {list}, "integer": {int}, "number": {int, float}}


def _items(v, s) -> bool:
    if type(v) is not list:
        return True
    if s.get("type") == "integer" and s.keys() <= {"type", "minimum"}:
        # A vector of integers: their types in one set, then the least of them.
        return set(map(type, v)) <= {int} and (
            not v or "minimum" not in s or min(v) >= s["minimum"])
    return all(_conforms(item, s) for item in v)


# One check per keyword SCHEMA uses; each reads (instance, keyword value).
# Keywords that constrain one JSON type pass any other type, as in JSON Schema.
_KEYWORDS = {
    "$schema": lambda v, s: True,  # annotations, no constraint on the instance
    "$defs": lambda v, s: True,
    "type": lambda v, s: type(s) is str and type(v) in _TYPES.get(s, ()),
    "required": lambda v, s: type(v) is not dict or all(key in v for key in s),
    "properties": lambda v, s: type(v) is not dict or all(
        _conforms(v[key], sub) for key, sub in s.items() if key in v),
    "items": _items,
    "minItems": lambda v, s: type(v) is not list or len(v) >= s,
    "maxItems": lambda v, s: type(v) is not list or len(v) <= s,
    "minimum": lambda v, s: type(v) not in _TYPES["number"] or v >= s,
    "enum": lambda v, s: any(type(v) is type(e) and v == e for e in s),
    "const": lambda v, s: type(v) is type(s) and v == s,
}


def _conforms(instance, schema) -> bool:
    """A fast, conservative check of ``instance`` against a node of ``SCHEMA``.

    True means jsonschema accepts the instance too.  False means it may not:
    a keyword this check does not implement, an integer written as ``1.0``,
    or a real fault; ``parse`` then asks jsonschema.
    """
    if schema is _MATRIX:
        return _is_matrix(instance)
    for key, value in schema.items():
        check = _KEYWORDS.get(key)
        if check is None or not check(instance, value):
            return False
    return True


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
    try:
        pairs = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    # np.array would also read strings and booleans: _is_matrix rules them out.
    if (pairs is not None and pairs.ndim == 3 and pairs.shape[0] == pairs.shape[1]
            and pairs.shape[2] == 2 and np.isfinite(pairs).all() and _is_matrix(rows)):
        return pairs.view(complex)[..., 0]
    # Entry by entry, to name the first fault (or to read what the bulk
    # path leaves out, such as ``true`` in a state matrix).
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
    n = prod(scen.settings) * prod(scen.outcomes)
    try:
        members = np.zeros((n, d, d), dtype=complex)
    except (MemoryError, ValueError):  # ValueError: the size overflows
        raise DocumentError(f"the scenario's {n} members of {d}x{d} cannot be "
                            "allocated", f"{path}.scenario")
    try:
        at = scen.indices((entry["a"], entry["x"]) for entry in obj["members"])
    except ValueError as exc:
        raise DocumentError(str(exc), f"{path}.members[{exc.place}]")
    for i, (entry, index) in enumerate(zip(obj["members"], at)):
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
    state = _state_in(obj["state"], f"{path}.state")
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


def parse(data) -> Document:
    """Parse and validate document bytes (or str, or an already-loaded dict)."""
    if isinstance(data, (bytes, str)):
        try:
            raw = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON at byte offset {exc.pos}: {exc.msg}")
    else:
        raw = data
    if not _conforms(raw, SCHEMA):
        _validate(raw)
    kind = raw["kind"]
    if not _conforms(raw["payload"], SCHEMA["$defs"][kind]):
        _validate(raw["payload"], kind, "$.payload")
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
