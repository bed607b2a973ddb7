"""Scenario file format: one JSON schema for CLI input and result files.

Unknown keys are rejected; all numbers must be finite and nonnegative,
except that the literal "inf" is permitted in function values.  Result
files embed the original input under "input" so they can be re-read as
input (round-trip stability).

There is one decoder, ``decode_specs``: it reads k scenarios' specs at
once and validates each field once over all of them (spaces, capacity
weights and tables, function values, subset indices), each field's
numbers as one concatenated array, then builds the values, subset rows
and capacities of the stack.  A scenario file, or a replayed scenario,
is its one-row case (``context_from_specs``), as is each per-field
reader.  When k rows fail a check, they are decoded again one by one,
so the error raised is the first failing row's, with the type and text
it has alone.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .capacity import (Capacity, GroundSpace, bools_mask, explicit_rows,
                       make_grid_lebesgue, make_sup_capacity, weighted_rows)
from .integrals import SampleFunction, Values, from_formula
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


def _nums(seqs, where: str, allow_inf: bool = False):
    """The numbers of k lists (or tuples), concatenated into one float
    array and validated as ``_num`` validates each, and the lists' lengths.
    A list of numbers is read as one array; anything else is walked with
    ``_num``, which raises for the first bad element in order."""
    for seq in seqs:
        if not isinstance(seq, (list, tuple)):
            raise SchemaError(f"{where}: expected a list of numbers, got {seq!r}")
    flat = seqs[0] if len(seqs) == 1 else list(chain.from_iterable(seqs))
    lengths = [len(seq) for seq in seqs]
    if type(flat) is list and set(map(type, flat)) <= {int, float}:
        try:
            a = np.array(flat, dtype=float)
        except OverflowError:  # an int beyond float range: the walk below
            pass               # raises for the first bad element in order
        else:  # NaN fails the first test
            if (np.minimum.reduce(a, initial=0.0) >= 0
                    and (allow_inf or np.maximum.reduce(a, initial=0.0) < INF)):
                return a, lengths
    return np.array([_num(v, where, allow_inf) for v in flat], dtype=float), lengths


# ---------------------------------------------------------------------------
# the decoder: k scenarios at once, each field validated over all rows


class Decoded(NamedTuple):
    """k decoded scenarios, row i of each field being scenario i's: its
    ground space, its capacity (a grid space's own if there is no spec,
    else None), its functions' values by name and its subsets' (k, N)
    membership rows by name."""

    spaces: list
    caps: list
    fns: dict
    subsets: dict


def decode_specs(rows: Sequence[tuple]) -> Decoded:
    """Scenarios given as (space, capacity, functions, subsets) specs,
    decoded field by field over all of them at once.  Rows that fail are
    decoded again one by one, so the error raised is the first failing
    row's, as it raises alone."""
    if len(rows) == 1:
        return _decode(rows)
    try:
        return _decode(rows)
    except Exception:
        for row in rows:
            _decode([row])
        raise


def _decode(rows) -> Decoded:
    space_specs, cap_specs, fn_specs, subset_specs = zip(*rows)
    spaces, caps = _space_rows(space_specs)
    caps = _capacity_rows(cap_specs, spaces, caps)
    for specs in (fn_specs, subset_specs):
        if any(spec.keys() != specs[0].keys() for spec in specs):
            raise SchemaError("scenarios decoded together must name the same "
                              "functions and subsets")
    return Decoded(spaces, caps,
                   {name: _function_rows([f[name] for f in fn_specs], spaces)
                    for name in fn_specs[0]},
                   {name: _subset_rows([m[name] for m in subset_specs], spaces)
                    for name in subset_specs[0]})


def _space_rows(specs) -> tuple[list, list]:
    """Each row's space, and its Lebesgue capacity if it is a grid."""
    spaces, caps = [None] * len(specs), [None] * len(specs)
    points, coords, widths = [], [], []
    for i, spec in enumerate(specs):
        _require_keys(spec, SPACE_KEYS, "space")
        if "grid" in spec:
            g = spec["grid"]
            _require_keys(g, GRID_KEYS, "space.grid")
            try:
                spaces[i], caps[i] = make_grid_lebesgue(
                    _num(g["a"], "grid.a"), _num(g["b"], "grid.b"),
                    _int(g["steps"], "grid.steps", 1))
            except (KeyError, ValueError) as e:
                raise SchemaError(f"space.grid: {e}")
        elif "n" not in spec:
            raise SchemaError("space needs either n or grid")
        else:
            points.append(i)
            coords.append(spec.get("coords"))
            widths.append(spec.get("widths"))
    if points:
        try:
            located = any(x is not None for x in coords + widths)
            if located:
                coords, widths = _views(coords, "coords"), _views(widths, "widths")
            n = [_int(specs[i]["n"], "n", 1) for i in points]
            for i, space in zip(points, GroundSpace.rows(n, coords, widths) if located
                                else map(GroundSpace, n)):
                spaces[i] = space
        except ValueError as e:
            raise SchemaError(f"space: {e}")
    return spaces, caps


def _views(seqs, where: str) -> list:
    """Per row, a view of its numbers (``_nums``), or None for no list."""
    given = [i for i, seq in enumerate(seqs) if seq is not None]
    out = [None] * len(seqs)
    if given:
        a, lengths = _nums([seqs[i] for i in given], where)
        for i, end, m in zip(given, accumulate(lengths), lengths):
            out[i] = a[end - m:end]
    return out


def _capacity_rows(specs, spaces, grid_caps) -> list:
    caps = list(grid_caps)  # a row without a spec keeps its grid's capacity
    weighted, explicit = [], []
    for i, spec in enumerate(specs):
        if spec is None:
            continue
        _require_keys(spec, CAPACITY_KEYS, "capacity")
        ctype = spec.get("type")
        if ctype in ("additive", "distorted"):
            weighted.append(i)
        elif ctype == "explicit":
            explicit.append(i)
        elif ctype == "sup":
            caps[i] = make_sup_capacity(spaces[i])
        elif ctype != "grid":
            raise SchemaError(f"unknown capacity type {ctype!r}")
        elif grid_caps[i] is None:  # n points alone: the grid of n cells of [0, 1]
            if spaces[i].coords is not None:
                raise SchemaError("capacity: capacity type grid requires a grid space "
                                  "or a space of n points alone")
            spaces[i], caps[i] = make_grid_lebesgue(0.0, 1.0, spaces[i].n)
    try:
        if weighted:
            w, lengths = _nums([specs[i]["weights"] for i in weighted], "weights")
            gammas = [_num(specs[i]["gamma"], "gamma") if specs[i]["type"] == "distorted"
                      else None for i in weighted]
            for i, c in zip(weighted, weighted_rows(w, lengths, gammas,
                                                    [spaces[i] for i in weighted])):
                caps[i] = c
        if explicit:
            t, lengths = _nums([specs[i]["table"] for i in explicit], "table")
            for i, c in zip(explicit, explicit_rows(t, lengths, [spaces[i] for i in explicit])):
                caps[i] = c
    except KeyError as e:
        raise SchemaError(f"capacity: missing {e.args[0]!r}")
    except ValueError as e:
        raise SchemaError(f"capacity: {e}")
    return caps


def _function_rows(specs, spaces) -> Values:
    """The functions' values: value lists, validated as one array, or
    formula ids sampled on their spaces."""
    lists, sampled = [], {}
    for i, spec in enumerate(specs):
        if isinstance(spec, str):
            sampled[i] = from_formula(spaces[i], spec).values
        elif isinstance(spec, list):
            lists.append(i)
        else:
            raise SchemaError("a function must be a formula id or a value list")
    v, lengths = _nums([specs[i] for i in lists], "function values", allow_inf=True)
    for i, m in zip(lists, lengths):
        if m != spaces[i].n:
            raise SchemaError(f"function has {m} values for a {spaces[i].n}-point space")
    if sampled:
        listed = dict(zip(lists, np.split(v, np.cumsum(lengths)[:-1])))
        v = np.concatenate([sampled[i] if i in sampled else listed[i]
                            for i in range(len(specs))])
    return Values.rows(v, spaces)


def _subset_rows(specs, spaces) -> np.ndarray:
    """(k, N) membership rows: "all" (or null) is the whole space, a list
    of point indices its points."""
    N = max(space.n for space in spaces)
    rows = np.zeros(len(specs) * N, dtype=bool)
    cells = []  # row-major, in the (k, N) rows
    for i, (spec, space) in enumerate(zip(specs, spaces)):
        if spec == "all" or spec is None:
            rows[i * N:i * N + space.n] = True
        elif isinstance(spec, list):
            for x in spec:
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < space.n:
                    raise SchemaError(f"subset index {x!r} out of range")
                cells.append(i * N + x)
        else:
            raise SchemaError("a subset must be \"all\" or a list of point indices")
    rows[cells] = True
    return rows.reshape(-1, N)


# one scenario, or one of its fields, is a stack of one row


def context_from_specs(space: dict, capacity: Optional[dict], functions: dict,
                       subsets: dict) -> tuple:
    """A scenario's space, capacity (a grid space's own if there is no
    spec, else None), functions and subset masks: the decoder's one-row
    case, so scenario files and replayed scenarios are read alike, with
    the same checks and errors."""
    d = decode_specs([(space, capacity, functions, subsets)])
    space = d.spaces[0]
    return (space, d.caps[0], {name: SampleFunction(space, F.row(0)) for name, F in d.fns.items()},
            {name: bools_mask(rows[0]) for name, rows in d.subsets.items()})


def space_from_spec(spec: dict) -> tuple[GroundSpace, Optional[Capacity]]:
    """Build a space; grid mode also yields the Lebesgue capacity."""
    (space,), (cap,) = _space_rows([spec])
    return space, cap


def capacity_from_spec(spec: dict, space: GroundSpace,
                       grid_capacity: Optional[Capacity] = None) -> Capacity:
    return _capacity_rows([spec], [space], [grid_capacity])[0]


def function_from_spec(spec, space: GroundSpace) -> SampleFunction:
    return SampleFunction(space, _function_rows([spec], [space]).row(0))


def subset_from_spec(spec, space: GroundSpace) -> int:
    return bools_mask(_subset_rows([spec], [space])[0])


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
    if "exponents" in doc:
        _require_keys(doc["exponents"], EXPONENT_KEYS, "exponents")
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
