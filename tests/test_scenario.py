"""Scenario file schema: validation, round trips and stable output."""

import copy
import json
import math
import re

import numpy as np
import pytest

import oracles
from capax import INF, falsifier, make_uniform_example
from capax.falsifier import DROPPABLE, SUGENO_SYSTEM_NAMES, THEOREM_IDS, random_scenario
from capax.scenario import (SchemaError, _num, capacity_from_spec, capacity_to_spec,
                            context_from_specs, dump_result, function_from_spec,
                            load_document, space_from_spec, subset_from_spec, validate_document)
from capax.xreal import UNIT
from capax.capacity import (make_additive, make_distorted, make_explicit, normalize,
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


# ---------------------------------------------------------------------------
# the batched decoder against the one-scenario oracle (tests/oracles.py)

AUDIT_IDS = THEOREM_IDS + [f"carlson_sugeno:{s}" for s in SUGENO_SYSTEM_NAMES]


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_decodes_as_the_oracle(st, chunk):
    fns, A, B, caps, (W, tables) = oracles.decode(chunk)
    assert st.fns.keys() == fns.keys()
    for name, want in fns.items():
        F = st.fns[name]
        assert all(map(_same, (F.v, F.n, F.valid), want)), name
        for got, space in zip(F.spaces, caps):
            assert all(_same(getattr(got, k), getattr(space.space, k))
                       for k in ("n", "coords", "widths"))
    assert _same(st.A, A) and _same(st.B, B)
    C = st.cap
    assert _same(C.W, W) and _same(C.tables, tables)
    assert _same(C.unit, [c.range == UNIT for c in caps])
    assert repr(C.gammas) == repr([(c.gamma, i) for i, c in enumerate(caps) if c.gamma != 1.0])


def _streams():
    for tid in AUDIT_IDS:
        for seed in (2024, 7):
            yield tid, seed, None, None
    for theorem, dropped in sorted(DROPPABLE):
        yield f"{theorem}-{dropped}", 2024, dropped, 1


@pytest.mark.parametrize("name, seed, dropped, size", list(_streams()),
                         ids=[name for name, *_ in _streams()])
def test_batched_decoder_equals_the_per_scenario_oracle(name, seed, dropped, size):
    # a generated chunk's stack (the array entry) and each of its rendered
    # scenarios (the spec entry) decode as the oracle
    theorem = name.split("-")[0]
    for chunk in falsifier._chunks(theorem, seed, 150, dropped, size):
        scenarios = [chunk[j] for j in range(len(chunk))]
        if not scenarios[0].functions:  # the checker builds its own space
            return
        _assert_decodes_as_the_oracle(chunk.stack(), scenarios)
        for scn in scenarios:
            _assert_decodes_as_the_oracle(falsifier.decode(scn), [scn])


def _outcome_of(call, *args):
    try:
        call(*args)
    except Exception as e:
        return type(e), str(e)
    return "ok"


def _set(part, key, index, value):
    """A change of scn.<part>[key] (at ``index`` in it, unless None)."""
    def change(scn):
        d = getattr(scn, part)
        if index is None:
            d[key] = value
        else:
            d[key] = list(d[key])
            d[key][index] = value
    return change


def _bad_rows():
    """(theorem id, change) pairs that break one field of a scenario."""
    for bad in BAD_ELEMENTS:
        yield "jensen_choquet", _set("functions", "f", 1, bad)
        yield "jensen_choquet", _set("capacity", "table", 1, bad)
        yield "holder_choquet", _set("capacity", "weights", 0, bad)
        yield "holder_choquet", _set("capacity", "gamma", None, bad)
        yield "carlson_choquet_subadditive", _set("space", "coords", 1, bad)
        yield "carlson_choquet_subadditive", _set("space", "widths", 0, bad)
        yield "jensen_choquet", _set("subsets", "A", 0, bad)
        yield "jensen_choquet", _set("space", "n", None, bad)
    for part, key, value in [
            ("functions", "f", [0.5]), ("functions", "f", [0.5] * 9), ("functions", "f", 0.5),
            ("functions", "f", (0.5, 0.5)), ("capacity", "table", [0.0, 1.0, 1.0]),
            ("capacity", "table", [0.0] * 4 + [1.0] * 4), ("capacity", "table", []),
            ("capacity", "table", [0.0, 1.0] * 2**20), ("subsets", "A", [8]),
            ("subsets", "A", [-1]), ("subsets", "A", 3), ("subsets", "A", []),
            ("subsets", "A", "all"), ("capacity", "type", "bogus"), ("capacity", "type", "grid"),
            ("capacity", "type", "sup"), ("capacity", "extra", 1), ("space", "n", 9),
            ("space", "grid", {"a": 0, "b": 1, "steps": 2})]:
        yield "jensen_choquet", _set(part, key, None, value)
    yield "jensen_choquet", _set("capacity", "table", 0, 0.5)  # mu(empty) != 0
    yield "jensen_choquet", _set("capacity", "table", -1, 0.0)  # mu(X) = 0
    yield "jensen_choquet", lambda scn: scn.capacity.pop("table")
    yield "jensen_choquet", lambda scn: scn.space.pop("n")
    yield "holder_choquet", lambda scn: scn.capacity.update(weights=[0.0] * len(
        scn.capacity.get("weights", [0.0])))
    yield "holder_choquet", _set("capacity", "weights", None, [0.5])
    yield "carlson_choquet_subadditive", _set("space", "coords", None, [0.5] * 8)
    yield "carlson_choquet_subadditive", lambda scn: scn.space["coords"].reverse()
    yield "carlson_choquet_subadditive", _set("space", "coords", None, [0.5])
    yield "carlson_choquet_subadditive", lambda scn: scn.space.pop("widths")
    yield "shilkret_example", _set("space", "widths", 0, 0.0)
    yield "carlson_choquet_subadditive", _set("capacity", "type", None, "grid")  # has coords


@pytest.mark.parametrize("row", [0, 3])
def test_a_bad_row_raises_the_oracles_first_error(row):
    # trial ``row`` with one field broken, replayed and read as a file
    for tid, change in _bad_rows():
        one = copy.deepcopy(random_scenario(tid, 2024, row))
        change(one)
        specs = one.space, one.capacity, one.functions, one.subsets
        want = _outcome_of(oracles.context_from_specs, *specs)
        assert _outcome_of(falsifier.decode, one) == want, (tid, one)
        assert _outcome_of(context_from_specs, *specs) == want


@pytest.mark.parametrize("doc", [
    {"space": {"grid": {"a": 0, "b": 2, "steps": 5}}, "functions": {"f": "x", "g": "x^2"},
     "subsets": {"A": [0, 3], "B": "all"}},
    {"space": {"grid": {"a": 0, "b": 1, "steps": 4}}, "capacity": {"type": "grid"},
     "functions": {"f": [0.1, "inf", 2.0, 0.0], "g": "const:0.5"}, "subsets": {"A": None}},
    {"space": {"n": 3, "coords": [0.1, 0.2, 0.4], "widths": [1, 1, 2]},
     "capacity": {"type": "distorted", "weights": [1, 2, 3], "gamma": 0.5},
     "functions": {"f": [1, 0, 0.5]}},
    {"space": {"n": 2}, "capacity": {"type": "sup"}, "functions": {}, "subsets": {"A": [1, 1]}},
    {"space": {"n": 2}},
    {"space": {"grid": {"a": 0, "b": 1, "steps": 2}}, "functions": {"f": "bogus"}},
    {"space": {"n": 2}, "functions": {"f": "x"}},
    {"space": {"n": 2, "coords": [0.1, 0.2]}, "functions": {}},
    {"space": {"grid": {"a": 1, "b": 1, "steps": 2}}},
    {"space": {"grid": {"a": 0, "b": 1}}},
    {"space": {"n": 2}, "capacity": {"type": "grid"}},
    {"space": {"n": 2}, "capacity": {"type": "grid"}, "functions": {"f": "x^2"}},
    {"space": {"n": 2, "coords": [0.1, 0.2], "widths": [1, 1]}, "capacity": {"type": "grid"}},
    {"space": {"n": 2}, "capacity": {"weights": [1, 1]}},
    {"space": {"n": 2}, "capacity": "additive"},
    {"space": []},
])
def test_one_scenario_reads_as_the_oracle_reads_it(doc):
    args = [doc.get("space"), doc.get("capacity"), doc.get("functions", {}),
            doc.get("subsets", {})]
    want = _outcome_of(oracles.context_from_specs, *args)
    assert _outcome_of(context_from_specs, *args) == want
    if want != "ok":
        return
    (space, cap, fns, masks), (space2, cap2, fns2, masks2) = (
        context_from_specs(*args), oracles.context_from_specs(*args))
    assert space == space2 and _same(space.coords, space2.coords)
    assert masks == masks2 and fns.keys() == fns2.keys()
    for name, f in fns.items():
        assert _same(f.values, fns2[name].values)
    assert (cap is None) == (cap2 is None)
    if cap is not None:
        assert (cap.kind, cap.range, cap.gamma) == (cap2.kind, cap2.range, cap2.gamma)
        assert _same(cap.values(), cap2.values())


def test_a_recorded_lukasiewicz_scenario_reads_back():
    # its generator writes {"n": n} with {"type": "grid"}: the grid of n cells
    # of [0, 1] that its checker builds from the params
    for i in range(4):
        scn = random_scenario("lukasiewicz_example", 2024, i)
        space, cap, fns, masks = context_from_specs(scn.space, scn.capacity, scn.functions,
                                                    scn.subsets)
        P = make_uniform_example(scn.params["phi"], scn.params["psi"], scn.params["n"])[2]
        assert (cap.kind, cap.range, space.n, cap.space) == ("grid", UNIT, scn.params["n"], space)
        assert _same(space.coords, P.space.coords) and _same(cap.weights, P.weights)
        assert (fns, masks) == ({}, {})


@pytest.mark.parametrize("theorem, spoil", [
    ("carlson_choquet_subadditive", lambda c, j: c.coords.__setitem__(j, c.coords[j][::-1])),
    ("jensen_choquet", lambda c, j: c.fns["f"].__setitem__(j, np.append(c.fns["f"][j], 0.5))),
])
def test_a_spoiled_generated_row_raises_as_its_scenario_does(theorem, spoil):
    # decreasing coordinates, one function value too many
    chunk = next(falsifier._chunks(theorem, 2024, 20))
    spoil(chunk, 2)
    scn = chunk[2]
    want = _outcome_of(context_from_specs, scn.space, scn.capacity, scn.functions, scn.subsets)
    assert want[0] is SchemaError and _outcome_of(chunk.stack) == want


def test_a_derived_capacity_has_no_spec():
    with pytest.raises(ValueError, match="'derived' is not serializable"):
        capacity_to_spec(normalize(make_additive([0.5, 0.5]), 0b01))


@pytest.mark.parametrize("key, message", [("functions", "functions must be an object"),
                                          ("subsets", "subsets must be an object")])
def test_named_parts_of_a_document_are_objects(key, message):
    with pytest.raises(SchemaError, match=message):
        validate_document({"space": {"n": 1}, key: [[0.5]]})


def test_results_write_numpy_ints_and_nan(tmp_path):
    path = tmp_path / "out.json"
    dump_result(str(path), {"n": np.int64(3), "x": math.nan, "y": np.float64(INF)})
    assert json.loads(path.read_text()) == {"n": 3, "x": "nan", "y": "inf"}
