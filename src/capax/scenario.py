"""Scenario file format: one JSON schema for CLI input and result files.

Unknown keys are rejected; all numbers must be finite and nonnegative,
except that the literal "inf" is permitted in function values.  Result
files embed the original input under "input" so they can be re-read as
input (round-trip stability).

A scenario file or a replayed scenario is read one field at a time by
the per-field readers (``space_from_spec``, ``capacity_from_spec``,
``function_from_spec``, ``subset_from_spec``), which ``context_from_specs``
calls in turn, so a scenario raises its first bad field's error.  Each
reader parses its field and builds it with the library's constructor,
whose checks are the ones a generated row passes.  Generated scenarios
skip the dicts: ``falsifier.Chunk`` builds its rows' stack with the same
constructors and checks (``_checked`` is the test ``_nums`` applies).
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .capacity import (Capacity, GroundSpace, explicit_rows, indices_mask, make_grid_lebesgue,
                       make_sup_capacity, weighted_rows)
from .integrals import SampleFunction, from_formula
from .xreal import INF


class SchemaError(ValueError):
    """Scenario document violates the file schema."""


TOP_KEYS = {"space", "capacity", "functions", "subsets", "op", "theorem", "audit"}
SPACE_KEYS = {"n", "grid", "coords", "widths"}
GRID_KEYS = {"a", "b", "steps"}
CAPACITY_KEYS = {"type", "weights", "gamma", "table"}
AUDIT_KEYS = {"trials", "seed", "drop"}


def _require_keys(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")


def _num(v, where: str, allow_inf: bool = False) -> float:
    if v == "inf" and allow_inf:
        return INF
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # a JSON integer beyond float range
        raise SchemaError(f"{where}: number must be finite") from None
    if math.isnan(x) or (math.isinf(x) and not allow_inf):
        raise SchemaError(f"{where}: number must be finite")
    if x < 0:
        raise SchemaError(f"{where}: number must be nonnegative")
    return x


def _int(v, where: str, least: int) -> int:
    """A JSON integer (not a bool) of at least ``least``."""
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        raise SchemaError(f"{where}: expected an integer >= {least}, got {v!r}")
    return v


def _nums(seq, where: str, allow_inf: bool = False) -> np.ndarray:
    """The numbers of a list (or tuple) as a float array, validated as
    ``_num`` validates each.  A list of numbers is read as one array and
    checked by ``_checked``; anything else is walked with ``_num``, which
    raises for the first bad element in order."""
    if not isinstance(seq, (list, tuple)):
        raise SchemaError(f"{where}: expected a list of numbers, got {seq!r}")
    if type(seq) is list and set(map(type, seq)) <= {int, float}:
        try:
            a = np.array(seq, dtype=float)
        except OverflowError:  # an int beyond float range: the walk below
            pass               # raises for the first bad element in order
        else:
            return _checked(a, where, allow_inf)
    return np.array([_num(v, where, allow_inf) for v in seq], dtype=float)


def _checked(a: np.ndarray, where: str, allow_inf: bool = False) -> np.ndarray:
    """The float array a if each of its numbers passes ``_num``, tested as
    one array; else ``_num``'s error for the first that fails."""
    # NaN fails the first test
    if not (np.minimum.reduce(a, initial=0.0) >= 0
            and (allow_inf or np.maximum.reduce(a, initial=0.0) < INF)):
        for x in a.tolist():
            _num(x, where, allow_inf)
    return a


# ---------------------------------------------------------------------------
# one scenario, field by field


def context_from_specs(space: dict, capacity: Optional[dict], functions: dict,
                       subsets: dict) -> tuple:
    """A scenario's space, capacity (a grid space's own if there is no
    spec, else None), functions and subset masks, each field read in turn
    by its reader, so a scenario raises its first bad field's error.  A
    capacity's own space replaces the space (a grid capacity on n points
    alone is the grid of n cells of [0, 1])."""
    space, cap = space_from_spec(space)
    if capacity is not None:
        cap = capacity_from_spec(capacity, space, cap)
        space = cap.space
    return (space, cap,
            {name: function_from_spec(spec, space) for name, spec in functions.items()},
            {name: subset_from_spec(spec, space) for name, spec in subsets.items()})


def space_from_spec(spec: dict) -> tuple[GroundSpace, Optional[Capacity]]:
    """Build a space; grid mode also yields the Lebesgue capacity."""
    _require_keys(spec, SPACE_KEYS, "space")
    if "grid" in spec:
        g = spec["grid"]
        _require_keys(g, GRID_KEYS, "space.grid")
        try:
            return make_grid_lebesgue(_num(g["a"], "grid.a"), _num(g["b"], "grid.b"),
                                      _int(g["steps"], "grid.steps", 1))
        except (KeyError, ValueError) as e:
            raise SchemaError(f"space.grid: {e}")
    if "n" not in spec:
        raise SchemaError("space needs either n or grid")
    try:
        coords, widths = (None if spec.get(key) is None else _nums(spec[key], key)
                          for key in ("coords", "widths"))
        return GroundSpace(_int(spec["n"], "n", 1), coords, widths), None
    except ValueError as e:
        raise SchemaError(f"space: {e}")


def capacity_from_spec(spec: dict, space: GroundSpace,
                       grid_capacity: Optional[Capacity] = None) -> Capacity:
    """Build a capacity on the space; type grid is the grid space's own
    capacity, or the grid of n cells of [0, 1] on a space of n points
    alone."""
    _require_keys(spec, CAPACITY_KEYS, "capacity")
    kind = spec.get("type")
    try:
        if kind in ("additive", "distorted"):
            w = _nums(spec["weights"], "weights")
            gamma = _num(spec["gamma"], "gamma") if kind == "distorted" else None
            return weighted_rows(w, [len(w)], [gamma], [space])[0]
        if kind == "explicit":
            t = _nums(spec["table"], "table")
            return explicit_rows(t, [len(t)], [space])[0]
        if kind == "sup":
            return make_sup_capacity(space)
        if kind == "grid":
            if grid_capacity is not None:
                return grid_capacity
            if space.coords is not None:
                raise SchemaError("capacity type grid requires a grid space "
                                  "or a space of n points alone")
            return make_grid_lebesgue(0.0, 1.0, space.n)[1]
    except KeyError as e:
        raise SchemaError(f"capacity: missing {e.args[0]!r}")
    except ValueError as e:
        raise SchemaError(f"capacity: {e}")
    raise SchemaError(f"unknown capacity type {kind!r}")


def function_from_spec(spec, space: GroundSpace) -> SampleFunction:
    """A formula id sampled on the space, or a list of one value per
    point."""
    if isinstance(spec, str):
        return from_formula(space, spec)
    if not isinstance(spec, list):
        raise SchemaError("a function must be a formula id or a value list")
    v = _nums(spec, "function values", allow_inf=True)
    if len(v) != space.n:
        raise SchemaError(f"function has {len(v)} values for a {space.n}-point space")
    return SampleFunction(space, v)


def subset_from_spec(spec, space: GroundSpace) -> int:
    """A subset's int mask: "all" (or null) is the whole space, a list of
    point indices its points."""
    if spec == "all" or spec is None:
        return space.full_mask
    if not isinstance(spec, list):
        raise SchemaError("a subset must be \"all\" or a list of point indices")
    for x in spec:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < space.n:
            raise SchemaError(f"subset index {x!r} out of range")
    return indices_mask(spec)


def capacity_to_spec(c: Capacity) -> dict:
    if c.kind == "additive":
        return {"type": "additive", "weights": c.weights.tolist()}
    if c.kind == "grid":
        return {"type": "grid"}
    if c.kind == "distorted":
        return {"type": "distorted", "weights": c.weights.tolist(),
                "gamma": float(c.gamma)}
    if c.kind == "sup":
        return {"type": "sup"}
    if c.kind == "explicit":
        return {"type": "explicit", "table": c.table.tolist()}
    raise ValueError(f"capacity kind {c.kind!r} is not serializable")


def _str(d: dict, key: str, where: str) -> None:
    """d[key], if present, is a string."""
    if key in d and not isinstance(d[key], str):
        raise SchemaError(f"{where}: expected a string, got {d[key]!r}")


def validate_document(doc: dict) -> dict:
    _require_keys(doc, TOP_KEYS, "document")
    _str(doc, "theorem", "theorem")
    if "op" in doc:
        _require_keys(doc["op"], {"op"}, "op")
        _str(doc["op"], "op", "op.op")
    if "audit" in doc:
        _require_keys(doc["audit"], AUDIT_KEYS, "audit")
        for key, least in (("trials", 1), ("seed", 0)):
            if key in doc["audit"]:
                _int(doc["audit"][key], f"audit.{key}", least)
        _str(doc["audit"], "drop", "audit.drop")
    if "functions" in doc and not isinstance(doc["functions"], dict):
        raise SchemaError("functions must be an object of named functions")
    if "subsets" in doc and not isinstance(doc["subsets"], dict):
        raise SchemaError("subsets must be an object")
    return doc


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"cannot read {path}: {e}")
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if "input" in doc:  # result file re-read as input
        doc = doc["input"]
    return validate_document(doc)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def dump_result(path: str, doc: dict) -> None:
    """Write a result document with stable formatting (floats via repr,
    sorted keys, UTF-8, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
