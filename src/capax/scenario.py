"""Scenario file format: one JSON schema for CLI input and result files.

Unknown keys are rejected; all numbers must be finite and nonnegative,
except that the literal "inf" is permitted in function values.  Result
files embed the original input under "input" so they can be re-read as
input (round-trip stability).

There is one decoder, in two stages.  Spec parsing reads one scenario's
specs (keys, types, numbers, subset indices), each field's numbers as one
array, into one-row columns (``Columns``).  The array stage builds and
checks the spaces, capacities, values and subset rows of a stack of k
rows from its columns (``GroundSpace.rows``, ``weighted_rows``,
``explicit_rows``, ``Values.rows``, ``subset_rows``).  The decoder has
two entries.  ``decode_spec`` parses each field and runs its array step
in turn, so a scenario raises its first bad field's error; scenario files
and replayed scenarios are read with it (``context_from_specs``), and
each per-field reader is its one-field case.  ``decode_columns`` takes
the columns of k scenarios that a generator wrote directly, tests their
function values as ``_nums`` tests parsed ones (``_checked``) and runs
the array stage.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

import numpy as np

from .capacity import (Capacity, GroundSpace, bools_mask, explicit_rows, indices_mask,
                       make_grid_lebesgue, make_sup_capacity, subset_rows, weighted_rows)
from .integrals import SampleFunction, Values, from_formula
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
# the decoder: one scenario from its specs, or k generated ones from columns


class Columns(NamedTuple):
    """k scenarios as the decoder's array stage reads them, row i of each
    list being scenario i's:

    - ``n``: its point count (a grid space's cell count);
    - ``grids``: (a, b) if its space is the grid of n cells of [a, b],
      else None;
    - ``coords``, ``widths``: its points' coordinates and cell widths as
      float arrays, or None;
    - ``kinds``: its capacity type, None without a capacity spec;
    - ``weights``: the weighted rows' weights concatenated in one float
      array, their lengths and their gammas (None: additive);
    - ``tables``: the explicit rows' tables concatenated in one float
      array, and their lengths;
    - ``fns``: per function name, the value lists concatenated in one
      float array, their lengths, and the formula id of each row that
      names one, by row;
    - ``subsets``: per subset name, each row's int mask."""

    n: list
    grids: list
    coords: list
    widths: list
    kinds: list
    weights: tuple
    tables: tuple
    fns: dict
    subsets: dict


class Decoded(NamedTuple):
    """k decoded scenarios, row i of each field being scenario i's: its
    ground space, its capacity (a grid space's own if there is no spec,
    else None), its functions' values by name and its subsets' (k, N)
    membership rows by name."""

    spaces: list
    caps: list
    fns: dict
    subsets: dict


def decode_spec(space: dict, capacity: Optional[dict], functions: dict,
                subsets: dict) -> Decoded:
    """One scenario's specs, decoded as a stack of one row.  Each field is
    parsed and then built by its array step before the next field is
    parsed, so the scenario raises its first bad field's error."""
    spaces, caps = _space_rows(*_parse_space(space))
    _capacity_rows(*_parse_capacity(capacity), spaces, caps)
    fns = {name: _function_rows(_parse_function(spec), spaces) for name, spec in functions.items()}
    return _decoded(spaces, caps, fns, {name: [_parse_subset(spec, spaces[0].n)]
                                        for name, spec in subsets.items()})


def decode_columns(c: Columns) -> Decoded:
    """Generated scenarios, written straight into columns: the array
    stage, after each function's values pass the test ``_nums`` applies
    (``_checked``).  A failing row is not told apart: read its scenario
    with ``decode_spec`` for its own error."""
    for v, _, _ in c.fns.values():
        _checked(v, "function values", allow_inf=True)
    return _build(c)


# spec parsing: one spec's keys, types, numbers and subset indices, as the
# one-row columns of the array stage


def _parse_space(spec) -> tuple:
    """The space's point count, grid, coordinates and widths."""
    _require_keys(spec, SPACE_KEYS, "space")
    grid = coords = widths = None
    if "grid" in spec:
        g = spec["grid"]
        _require_keys(g, GRID_KEYS, "space.grid")
        try:
            grid = _num(g["a"], "grid.a"), _num(g["b"], "grid.b")
            n = _int(g["steps"], "grid.steps", 1)
        except (KeyError, ValueError) as e:
            raise SchemaError(f"space.grid: {e}")
    elif "n" not in spec:
        raise SchemaError("space needs either n or grid")
    else:
        try:
            if spec.get("coords") is not None:
                coords = _nums(spec["coords"], "coords")
            if spec.get("widths") is not None:
                widths = _nums(spec["widths"], "widths")
            n = _int(spec["n"], "n", 1)
        except ValueError as e:
            raise SchemaError(f"space: {e}")
    return [n], [grid], [coords], [widths]


def _parse_capacity(spec) -> tuple:
    """The capacity's type, and its weights and gamma or its table (None
    for any other type)."""
    kind = weights = table = None
    if spec is not None:
        _require_keys(spec, CAPACITY_KEYS, "capacity")
        kind = spec.get("type")
        if kind not in ("additive", "distorted", "explicit", "sup", "grid"):
            raise SchemaError(f"unknown capacity type {kind!r}")
        try:
            if kind in ("additive", "distorted"):
                w = _nums(spec["weights"], "weights")
                weights = w, [len(w)], [_num(spec["gamma"], "gamma")
                                        if kind == "distorted" else None]
            elif kind == "explicit":
                t = _nums(spec["table"], "table")
                table = t, [len(t)]
        except KeyError as e:
            raise SchemaError(f"capacity: missing {e.args[0]!r}")
        except ValueError as e:
            raise SchemaError(f"capacity: {e}")
    return [kind], weights, table


def _parse_function(spec) -> tuple:
    """A function's values, their length and its formula id, if it names
    one (by row, as ``Columns.fns`` holds them)."""
    if isinstance(spec, str):
        return np.empty(0), [], {0: spec}
    if not isinstance(spec, list):
        raise SchemaError("a function must be a formula id or a value list")
    v = _nums(spec, "function values", allow_inf=True)
    return v, [len(v)], {}


def _parse_subset(spec, n: int) -> int:
    """A subset's int mask on n points: "all" (or null) is the whole
    space, a list of point indices its points."""
    if spec == "all" or spec is None:
        return (1 << n) - 1
    if not isinstance(spec, list):
        raise SchemaError("a subset must be \"all\" or a list of point indices")
    for x in spec:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
            raise SchemaError(f"subset index {x!r} out of range")
    return indices_mask(spec)


# the array stage: spaces, capacities, values and subset rows from columns


def _build(c: Columns) -> Decoded:
    """The array stage, field by field."""
    spaces, caps = _space_rows(c.n, c.grids, c.coords, c.widths)
    _capacity_rows(c.kinds, c.weights, c.tables, spaces, caps)
    return _decoded(spaces, caps, {name: _function_rows(f, spaces) for name, f in c.fns.items()},
                    c.subsets)


def _decoded(spaces, caps, fns, subsets) -> Decoded:
    """The decoded rows, with each subset's masks as (k, N) rows."""
    n = np.array([space.n for space in spaces])
    return Decoded(spaces, caps, fns,
                   {name: subset_rows(masks, n, int(n.max())) for name, masks in subsets.items()})


def _space_rows(n, grids, coords, widths) -> tuple[list, list]:
    """Each row's space, and its Lebesgue capacity if it is a grid."""
    spaces, caps = [None] * len(n), [None] * len(n)
    points = []
    for i, grid in enumerate(grids):
        if grid is None:
            points.append(i)
            continue
        try:
            spaces[i], caps[i] = make_grid_lebesgue(*grid, n[i])
        except ValueError as e:
            raise SchemaError(f"space.grid: {e}")
    if points:
        try:
            rows = GroundSpace.rows(*([x[i] for i in points] for x in (n, coords, widths)))
        except ValueError as e:
            raise SchemaError(f"space: {e}")
        for i, space in zip(points, rows):
            spaces[i] = space
    return spaces, caps


def _capacity_rows(kinds, weights, tables, spaces, caps) -> None:
    """Each row's capacity into caps (a row without a spec keeps its grid's
    capacity, or None); a grid capacity on n points alone makes the row's
    space the grid of n cells of [0, 1]."""
    weighted, explicit = [], []
    for i, kind in enumerate(kinds):
        if kind in ("additive", "distorted"):
            weighted.append(i)
        elif kind == "explicit":
            explicit.append(i)
        elif kind == "sup":
            caps[i] = make_sup_capacity(spaces[i])
        elif kind == "grid" and caps[i] is None:
            if spaces[i].coords is not None:
                raise SchemaError("capacity: capacity type grid requires a grid space "
                                  "or a space of n points alone")
            spaces[i], caps[i] = make_grid_lebesgue(0.0, 1.0, spaces[i].n)
    try:
        if weighted:
            for i, cap in zip(weighted, weighted_rows(*weights, [spaces[i] for i in weighted])):
                caps[i] = cap
        if explicit:
            for i, cap in zip(explicit, explicit_rows(*tables, [spaces[i] for i in explicit])):
                caps[i] = cap
    except ValueError as e:
        raise SchemaError(f"capacity: {e}")


def _function_rows(f, spaces) -> Values:
    """A function's values on its rows' spaces: its value lists, each as
    long as its space, or its formula ids sampled on their spaces."""
    v, lengths, formulas = f
    sampled = {i: from_formula(spaces[i], formula).values for i, formula in formulas.items()}
    listed = [i for i in range(len(spaces)) if i not in sampled]
    for i, m in zip(listed, lengths):
        if m != spaces[i].n:
            raise SchemaError(f"function has {m} values for a {spaces[i].n}-point space")
    if sampled:
        listed = dict(zip(listed, np.split(v, np.cumsum(lengths)[:-1])))
        v = np.concatenate([sampled[i] if i in sampled else listed[i]
                            for i in range(len(spaces))])
    return Values.rows(v, spaces)


# one scenario, or one of its fields, is a stack of one row


def context_from_specs(space: dict, capacity: Optional[dict], functions: dict,
                       subsets: dict) -> tuple:
    """A scenario's space, capacity (a grid space's own if there is no
    spec, else None), functions and subset masks: the decoder's one-row
    case, so scenario files and replayed scenarios are read alike, with
    the same checks and errors."""
    d = decode_spec(space, capacity, functions, subsets)
    space = d.spaces[0]
    return (space, d.caps[0], {name: SampleFunction(space, F.row(0)) for name, F in d.fns.items()},
            {name: bools_mask(rows[0]) for name, rows in d.subsets.items()})


def space_from_spec(spec: dict) -> tuple[GroundSpace, Optional[Capacity]]:
    """Build a space; grid mode also yields the Lebesgue capacity."""
    (space,), (cap,) = _space_rows(*_parse_space(spec))
    return space, cap


def capacity_from_spec(spec: dict, space: GroundSpace,
                       grid_capacity: Optional[Capacity] = None) -> Capacity:
    caps = [grid_capacity]
    _capacity_rows(*_parse_capacity(spec), [space], caps)
    return caps[0]


def function_from_spec(spec, space: GroundSpace) -> SampleFunction:
    return SampleFunction(space, _function_rows(_parse_function(spec), [space]).row(0))


def subset_from_spec(spec, space: GroundSpace) -> int:
    return _parse_subset(spec, space.n)


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
