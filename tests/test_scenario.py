"""Scenario file schema: validation, round trips and stable output."""

import json
import math
import re

import numpy as np
import pytest

from capax import INF
from capax.scenario import (SchemaError, _num, capacity_from_spec,
                            capacity_to_spec, dump_result, function_from_spec, load_document,
                            space_from_spec, subset_from_spec, validate_document)
from capax.capacity import (make_additive, make_distorted, make_explicit,
                            make_random_monotone, make_sup_capacity)


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError):
        validate_document({"space": {"n": 2}, "bogus": 1})


def test_unknown_nested_key_rejected():
    with pytest.raises(SchemaError):
        space_from_spec({"n": 2, "shape": "round"})
    with pytest.raises(SchemaError):
        capacity_from_spec({"type": "additive", "weights": [1, 1], "extra": 0},
                           space_from_spec({"n": 2})[0])


def test_space_needs_n_or_grid():
    with pytest.raises(SchemaError):
        space_from_spec({})


@pytest.mark.parametrize("count", [2.7, 3.0, "3", True, None, [3], 0, -2])
def test_space_counts_are_json_integers(count):
    message = re.escape(f"n: expected an integer >= 1, got {count!r}")
    with pytest.raises(SchemaError, match=f"^space: {message}$"):
        space_from_spec({"n": count})
    message = re.escape(f"grid.steps: expected an integer >= 1, got {count!r}")
    with pytest.raises(SchemaError, match=f"^space.grid: {message}$"):
        space_from_spec({"grid": {"a": 0.0, "b": 1.0, "steps": count}})


def test_grid_space_carries_capacity():
    space, cap = space_from_spec({"grid": {"a": 0.0, "b": 1.0, "steps": 4}})
    assert space.n == 4
    assert cap is not None
    assert cap(space.full_mask) == pytest.approx(1.0)


def test_capacity_specs_roundtrip():
    space, _ = space_from_spec({"n": 3})
    grid_space, grid = space_from_spec({"grid": {"a": 0.0, "b": 1.0, "steps": 3}})
    for c, sp in ((make_additive([0.2, 0.3, 0.5]), space),
                  (make_distorted([0.2, 0.3, 0.5], 0.7), space),
                  (make_distorted([0.2, 0.3, 0.5], 1.0), space),
                  (grid, grid_space),
                  (make_sup_capacity(space), space)):
        spec = capacity_to_spec(c)
        c2 = capacity_from_spec(spec, sp, grid)
        for mask in range(8):
            assert c2(mask) == pytest.approx(c(mask))
        # weighted capacities keep the label they were built with
        assert spec["type"] == c2.kind == c.kind and c2.gamma == c.gamma
        assert capacity_to_spec(c2) == spec


def test_function_value_lists_and_formulas():
    space, _ = space_from_spec({"grid": {"a": 0.0, "b": 1.0, "steps": 3}})
    f = function_from_spec("x^2", space)
    assert np.allclose(f.values, space.coord_array() ** 2)
    g = function_from_spec([0.1, "inf", 0.5], space)
    assert g.values[1] == INF
    assert function_from_spec([0.1, INF, 0.5], space).values.tolist() == g.values.tolist()
    with pytest.raises(SchemaError):
        function_from_spec([0.1, 0.2], space)  # wrong length
    with pytest.raises(SchemaError):
        function_from_spec([0.1, -0.2, 0.3], space)
    with pytest.raises(SchemaError):
        function_from_spec(17, space)


def test_subset_specs():
    space, _ = space_from_spec({"n": 4})
    assert subset_from_spec("all", space) == 0b1111
    assert subset_from_spec([0, 2], space) == 0b0101
    with pytest.raises(SchemaError):
        subset_from_spec([4], space)
    with pytest.raises(SchemaError):
        subset_from_spec([True], space)


def test_numbers_must_be_finite_nonnegative():
    space, _ = space_from_spec({"n": 2})
    with pytest.raises(SchemaError):
        capacity_from_spec({"type": "additive", "weights": [1.0, float("nan")]},
                           space)
    with pytest.raises(SchemaError):
        capacity_from_spec({"type": "additive", "weights": [1.0, -1.0]}, space)


def test_load_document_unwraps_result_files(tmp_path):
    doc = {"space": {"n": 2}, "functions": {"f": [0.1, 0.9]}}
    inner = tmp_path / "in.json"
    inner.write_text(json.dumps(doc))
    assert load_document(str(inner)) == doc
    wrapped = tmp_path / "res.json"
    wrapped.write_text(json.dumps({"input": doc, "report": {"value": 1}}))
    assert load_document(str(wrapped)) == doc


def test_load_document_rejects_non_objects(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    with pytest.raises(SchemaError):
        load_document(str(p))
    with pytest.raises(SchemaError):
        load_document(str(tmp_path / "missing.json"))


def test_dump_result_is_byte_stable_and_handles_infinity(tmp_path):
    doc = {"report": {"value": math.inf, "b": np.float64(0.5),
                      "arr": np.array([1.0, 2.0])},
           "input": {"space": {"n": 1}}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_result(str(p1), doc)
    dump_result(str(p2), doc)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n")
    parsed = json.loads(b1)
    assert parsed["report"]["value"] == "inf"
    assert parsed["report"]["arr"] == [1.0, 2.0]


def _each(seq, where):
    """A sequence of numbers, one _num call per element; anything else (a
    number, a string, an object, null) is not a list of numbers."""
    if not isinstance(seq, (list, tuple)):
        raise SchemaError(f"{where}: expected a list of numbers, got {seq!r}")
    return [_num(v, where) for v in seq]


def _decode_per_element(spec, space):
    """The weights/table decoding capacity_from_spec replaced: one _num
    call per element, then the constructor, errors wrapped the same way."""
    try:
        if spec["type"] == "additive":
            return make_additive(_each(spec["weights"], "weights"), space)
        if spec["type"] == "distorted":
            return make_distorted(_each(spec["weights"], "weights"),
                                  _num(spec["gamma"], "gamma"), space)
        return make_explicit(_each(spec["table"], "table"), space)
    except KeyError as e:
        raise SchemaError(f"capacity: missing {e.args[0]!r}")
    except ValueError as e:
        raise SchemaError(f"capacity: {e}")


def _outcome(decode, spec, space):
    try:
        return "ok", decode(spec, space).values().tolist()
    except Exception as e:
        return type(e), str(e)


BAD_ELEMENTS = [True, False, "x", None, math.nan, INF, -INF, -0.5, "inf",
                [0.5], {"w": 1}, 10**400]


@pytest.mark.parametrize("ctype", ["additive", "distorted", "explicit"])
def test_array_decoder_matches_per_element_num(ctype):
    space, _ = space_from_spec({"n": 2})
    key = "table" if ctype == "explicit" else "weights"
    good = [0, 0.3, 1, 1.0] if ctype == "explicit" else [0.25, 1]
    cases = [good, [float(x) for x in good], [0, 0, 0, 0][:len(good)], [],
             [0.1] * 3, "ab", "", {"a": 1}, None, 7, tuple(good),
             [np.float64(x) for x in good], [-1, 10**400]]
    for pos in range(1, len(good)):
        for bad in BAD_ELEMENTS:
            cases.append(good[:pos] + [bad] + good[pos + 1:])
    for seq in cases:
        spec = {"type": ctype, key: seq}
        if ctype == "distorted":
            spec["gamma"] = 0.5
        assert (_outcome(capacity_from_spec, spec, space)
                == _outcome(_decode_per_element, spec, space)), seq


def test_array_decoder_roundtrips_random_tables():
    rng = np.random.default_rng(2)
    for n in range(1, 9):
        c = make_random_monotone(n, rng)
        spec = capacity_to_spec(c)
        assert all(type(v) is float for v in spec["table"])
        space, _ = space_from_spec({"n": n})
        assert capacity_from_spec(spec, space).values().tolist() == c.values().tolist()
