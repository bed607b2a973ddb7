"""Scenario file format: one JSON schema for CLI input and result files.

Unknown keys are rejected; all numbers must be finite and nonnegative,
except that the literal "inf" is permitted in extended-range function
values.  Result files embed the original input under "input" so they can
be re-read as input (round-trip stability).
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .capacity import (Capacity, GroundSpace, indices_mask, make_additive,
                       make_distorted, make_explicit, make_grid_lebesgue,
                       make_sup_capacity)
from .integrals import SampleFunction, from_formula, sample_function
from .xreal import INF


class SchemaError(ValueError):
    """Scenario document violates the file schema."""


TOP_KEYS = {"space", "capacity", "functions", "subsets", "system", "op",
            "exponents", "theorem", "audit"}
SPACE_KEYS = {"n", "grid", "coords", "widths"}
GRID_KEYS = {"a", "b", "steps"}
CAPACITY_KEYS = {"type", "weights", "gamma", "table"}
EXPONENT_KEYS = {"p", "q", "r", "s", "exponent"}
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


def _nums(seq, where: str, allow_inf: bool = False):
    """Validate a list or tuple of numbers as ``_num`` would each: a list of
    numbers as one array, else ``_num`` per element, which raises its error."""
    if not isinstance(seq, (list, tuple)):
        raise SchemaError(f"{where}: expected a list of numbers, got {seq!r}")
    if type(seq) is list and set(map(type, seq)) <= {int, float}:
        try:
            a = np.array(seq, dtype=float)
        except OverflowError:  # an int beyond float range: the walk below
            pass               # raises for the first bad element in order
        else:  # NaN fails the first test
            if a.min(initial=0.0) >= 0 and (allow_inf or a.max(initial=0.0) < INF):
                return a
    return [_num(v, where, allow_inf) for v in seq]


def space_from_spec(spec: dict) -> tuple[GroundSpace, Optional[Capacity]]:
    """Build a space; grid mode also yields the Lebesgue capacity."""
    _require_keys(spec, SPACE_KEYS, "space")
    if "grid" in spec:
        g = spec["grid"]
        _require_keys(g, GRID_KEYS, "space.grid")
        try:
            space, cap = make_grid_lebesgue(_num(g["a"], "grid.a"),
                                            _num(g["b"], "grid.b"),
                                            _int(g["steps"], "grid.steps", 1))
        except (KeyError, ValueError) as e:
            raise SchemaError(f"space.grid: {e}")
        return space, cap
    if "n" not in spec:
        raise SchemaError("space needs either n or grid")
    try:
        coords, widths = (None if spec.get(k) is None else _nums(spec[k], k)
                          for k in ("coords", "widths"))
        space = GroundSpace(_int(spec["n"], "n", 1), coords=coords, widths=widths)
    except ValueError as e:
        raise SchemaError(f"space: {e}")
    return space, None


def capacity_from_spec(spec: dict, space: GroundSpace,
                       grid_capacity: Optional[Capacity] = None) -> Capacity:
    _require_keys(spec, CAPACITY_KEYS, "capacity")
    ctype = spec.get("type")
    try:
        if ctype == "additive":
            return make_additive(_nums(spec["weights"], "weights"), space)
        if ctype == "distorted":
            return make_distorted(_nums(spec["weights"], "weights"),
                                  _num(spec["gamma"], "gamma"), space)
        if ctype == "sup":
            return make_sup_capacity(space)
        if ctype == "explicit":
            return make_explicit(_nums(spec["table"], "table"), space)
        if ctype == "grid":
            if grid_capacity is None:
                raise SchemaError("capacity type grid requires a grid space")
            return grid_capacity
    except KeyError as e:
        raise SchemaError(f"capacity: missing {e.args[0]!r}")
    except ValueError as e:
        raise SchemaError(f"capacity: {e}")
    raise SchemaError(f"unknown capacity type {ctype!r}")


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


def function_from_spec(spec, space: GroundSpace) -> SampleFunction:
    if isinstance(spec, str):
        return from_formula(space, spec)
    if isinstance(spec, list):
        vals = _nums(spec, "function values", allow_inf=True)
        if len(vals) != space.n:
            raise SchemaError(f"function has {len(vals)} values for a {space.n}-point space")
        return sample_function(space, vals)
    raise SchemaError("a function must be a formula id or a value list")


def subset_from_spec(spec, space: GroundSpace) -> int:
    if spec == "all" or spec is None:
        return space.full_mask
    if isinstance(spec, list):
        for i in spec:
            if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < space.n:
                raise SchemaError(f"subset index {i!r} out of range")
        return indices_mask(spec)
    raise SchemaError("a subset must be \"all\" or a list of point indices")


def context_from_specs(space: dict, capacity: Optional[dict], functions: dict,
                       subsets: dict) -> tuple:
    """A scenario's space, capacity (a grid space's own if there is no
    spec, else None), functions and subset masks: scenario files and
    replayed scenarios are read here alike, with the same checks and errors."""
    space, cap = space_from_spec(space)
    if capacity is not None:
        cap = capacity_from_spec(capacity, space, cap)
    return (space, cap,
            {name: function_from_spec(spec, space) for name, spec in functions.items()},
            {name: subset_from_spec(spec, space) for name, spec in subsets.items()})


def validate_document(doc: dict) -> dict:
    _require_keys(doc, TOP_KEYS, "document")
    if "exponents" in doc:
        _require_keys(doc["exponents"], EXPONENT_KEYS, "exponents")
    if "audit" in doc:
        _require_keys(doc["audit"], AUDIT_KEYS, "audit")
        for key, least in (("trials", 1), ("seed", 0)):
            if key in doc["audit"]:
                _int(doc["audit"][key], f"audit.{key}", least)
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
