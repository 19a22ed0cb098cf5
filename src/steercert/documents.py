"""JSON document schema, parsing and serialization.

One envelope for every payload kind::

    {"kind": "...", "version": 1, "payload": {...}}

Complex scalars serialize as two-element ``[re, im]`` arrays, matrices as
row-major nested arrays, dims as integer arrays.  Missing assemblage
positions are zero members.

``SCHEMA`` is the one definition of a valid document.  One walk of it
decides a document and names its first fault, with its JSON path, in
jsonschema's words.  The walk checks a *list* of instances against a
schema node one keyword at a time (all the members of an assemblage are
one list), so its number of calls follows the depth of the schema, not
the size or the nesting of the document; only when the check of a whole
list fails does it look for the failing instance.  The parsers then read
the matrices of an assemblage or of a POVM, and each Kraus operator, with
one ``np.array`` call and fall back to one matrix or one entry at a time
only to name the first fault.  A position listed twice in an assemblage
is a fault at its second listing.  A POVM setting with another number of
effects than setting 0 is a fault at that setting.

``parse`` decodes bytes or str with orjson, and again with the ``json``
module, going on with that tree, only where orjson refuses the text
(``NaN``, ``Infinity``, a number beyond the float range, a byte order
mark, UTF-16 or UTF-32, a lone surrogate) or the walk refuses its tree
(orjson reads an integer outside [-2**63, 2**64) as a float).  So faults
are named on the tree ``json`` reads, and a valid document is walked
once.  Nesting too deep for ``json`` or for the repr of a fault is a
fault at ``$``.  The cyclic garbage collector is paused for the parse:
the decoded tree holds no cycle, and it is freed before ``parse``
returns; a ``Document`` keeps each ``members`` entry's scenario index.
"""

from __future__ import annotations

import cmath
import gc
import json
from dataclasses import dataclass
from itertools import chain
from math import prod

import numpy as np
import orjson

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


def _of(vs, kind, types) -> list:
    """The members of ``vs`` of one JSON type (``bool`` is not a number),
    given ``types``, the set of their Python types."""
    wanted = _TYPES[kind]
    return vs if types <= wanted else [v for v in vs if type(v) in wanted]


def _node(vs, schema) -> tuple:
    """``(types, lengths)`` of a node's instances: the set of their Python
    types, and the lengths of the arrays among them when ``schema`` bounds
    them (else ``None``), taken once for every keyword of the node."""
    types = set(map(type, vs))
    bounded = "minItems" in schema or "maxItems" in schema
    return types, list(map(len, _of(vs, "array", types))) if bounded else None


def _is(v, kind) -> bool:
    """Whether ``v`` is of a JSON type; an integer-valued float is an integer
    below 2**63 in magnitude, the range where orjson reads ``int``."""
    return type(v) in _TYPES[kind] or (kind == "integer" and type(v) is float
                                       and v.is_integer() and abs(v) < 2 ** 63)


def _equal(v, s) -> bool:  # numbers by value, but a bool never equals a number
    return v == s and (type(v) is bool) == (type(s) is bool)


# Per constraint keyword: whether every one of a list of instances passes,
# given the node's types and lengths (:func:`_node`), decided at C speed
# where it can be, and jsonschema's wording of the fault of one that fails.
# A keyword on one JSON type passes every other type.
_LEAVES = {
    "type": (lambda vs, s, types, _: types <= _TYPES[s] or all(_is(v, s) for v in vs),
             lambda v, s: f"{v!r} is not of type {s!r}"),
    "required": (lambda vs, s, types, _: all(map(set(s).issubset, _of(vs, "object", types))),
                 lambda v, s: f"{next(p for p in s if p not in v)!r} is a required property"),
    "minItems": (lambda vs, s, _, lengths: min(lengths, default=s) >= s,
                 lambda v, s: f"{v!r} {'should be non-empty' if s == 1 else 'is too short'}"),
    "maxItems": (lambda vs, s, _, lengths: max(lengths, default=s) <= s,
                 lambda v, s: f"{v!r} is too long"),
    "minimum": (lambda vs, s, types, _: types <= {int} and min(vs) >= s
                or not any(v < s for v in _of(vs, "number", types)),
                lambda v, s: f"{v!r} is less than the minimum of {s!r}"),
    "enum": (lambda vs, s, *_: all(any(_equal(v, e) for e in s) for v in vs),
             lambda v, s: f"{v!r} is not one of {s!r}"),
    "const": (lambda vs, s, *_: all(_equal(v, s) for v in vs), lambda v, s: f"{s!r} was expected"),
}


def _walk(instances: list, schema: dict):
    """The first fault of ``instances`` against a node of ``SCHEMA``, or None:
    ``(path, keyword, value, expected)``, the path starting at the failing
    instance's place in ``instances``, and ``expected`` the keyword's value."""
    if not instances:
        return None
    node = _node(instances, schema)
    for keyword, expected in schema.items():
        if keyword == "properties":
            objects = _of(instances, "object", node[0])
            for key, sub in expected.items():
                fault = _walk([v[key] for v in objects if key in v], sub)
                if fault is not None:  # the place of the key's owner
                    (j, *below), *rest = fault
                    i = [i for i, v in enumerate(instances) if type(v) is dict and key in v][j]
                    return (i, key, *below), *rest
        elif keyword == "items":
            fault = _walk(list(chain.from_iterable(_of(instances, "array", node[0]))), expected)
            if fault is not None:  # the item's array and its position there
                (j, *below), *rest = fault
                i, k = [(i, k) for i, v in enumerate(instances) if type(v) is list
                        for k in range(len(v))][j]
                return (i, k, *below), *rest
        elif keyword not in ("$schema", "$defs"):  # annotations constrain nothing
            passes = _LEAVES[keyword][0]
            if not passes(instances, expected, *node):
                i = next(i for i, v in enumerate(instances)
                         if not passes([v], expected, *_node([v], schema)))
                return (i,), keyword, instances[i], expected
    return None


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
        return State(dims, mat)
    except ValueError as exc:
        raise DocumentError(str(exc), path)


def _povm_in(obj, path) -> Povm:
    dim, rows = int(obj["dim"]), obj["effects"]  # the walk accepts 2.0
    k = len(rows[0]) if rows else 0
    for x, row in enumerate(rows):
        if len(row) != k:
            raise DocumentError(f"setting {x} has a different number of effects "
                                f"({len(row)}) than setting 0 ({k})", f"{path}.effects[{x}]")
    stack = _stack_in(list(chain.from_iterable(rows)), (dim,),
                      lambda i: f"{path}.effects[{i // k}][{i % k}]")
    try:
        return Povm(dim, stack.reshape(len(rows), k, dim, dim))
    except ValueError as exc:
        raise DocumentError(str(exc), path)


def _povm_out(p: Povm) -> dict:
    return {"dim": p.dim, "effects": [[_matrix_out(e) for e in row] for row in p.effects]}


def _channel_in(obj, path) -> ChoiOp:
    in_dims = tuple(obj.get("in_dims", [obj["in_dim"]]))
    out_dims = tuple(obj.get("out_dims", [obj["out_dim"]]))
    if prod(in_dims) != obj["in_dim"] or prod(out_dims) != obj["out_dim"]:
        raise DocumentError("dims products disagree with in_dim/out_dim", path)
    if "choi" in obj:
        mat = _matrix_in(obj["choi"], f"{path}.choi")
        try:
            return ChoiOp(in_dims, out_dims, mat)
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
            "choi": _matrix_out(c.matrix)}


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


def _fault_in(raw):
    """The first fault of a decoded document, envelope then payload, or None."""
    return _walk([raw], SCHEMA) or _walk(
        [raw], {"properties": {"payload": SCHEMA["$defs"][raw["kind"]]}})


def _checked(raw):
    """A decoded document ``raw`` if the walk accepts it; else its first fault
    is raised, worded as jsonschema words it."""
    fault = _fault_in(raw)
    if fault is not None:
        (_, *path), keyword, value, expected = fault
        raise DocumentError(_LEAVES[keyword][1](value, expected), "$" + "".join(
            f"[{p}]" if type(p) is int else f".{p}" for p in path))
    return raw


def _tree(data):
    """The checked tree of document bytes or str ``data``: orjson's when the
    walk accepts it, else the ``json`` module's."""
    try:
        raw = orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    else:
        if _fault_in(raw) is None:
            return raw
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at byte offset {exc.pos}: {exc.msg}")
    return _checked(raw)


def _parse(data) -> Document:
    raw = _tree(data) if isinstance(data, (bytes, str)) else _checked(data)
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
    except RecursionError:  # from json's decoder, or from the repr of a fault
        raise DocumentError("nesting too deep") from None
    finally:
        if enabled:
            gc.enable()


def serialize(obj) -> dict:
    """Turn a domain object into a document dict."""
    if isinstance(obj, State):
        payload = {"dims": list(obj.dims), "matrix": _matrix_out(obj.matrix)}
        kind = "state"
    elif isinstance(obj, Povm):
        payload, kind = _povm_out(obj), "povm"
    elif isinstance(obj, ChoiOp):
        payload, kind = _channel_out(obj), "channel"
    elif isinstance(obj, Assemblage):
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
                      "matrix": _matrix_out(obj.state.matrix)},
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
