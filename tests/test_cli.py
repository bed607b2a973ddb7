"""Command-line interface: exit codes, output formats, demos and result
file round trips."""

import copy
import json

import pytest

from capax import cli, falsifier
from capax.cli import DEMOS, main
from capax.scenario import SchemaError

BASIC = {
    "space": {"n": 3},
    "capacity": {"type": "additive", "weights": [1 / 3, 1 / 3, 1 / 3]},
    "functions": {"f": [0.2, 0.6, 0.9], "g": [0.1, 0.5, 0.8]},
}


def write(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_integrate_sugeno(tmp_path, capsys):
    code = main(["integrate", write(tmp_path, BASIC), "--integral", "sugeno"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.6" in out
    assert "exact" in out


def test_integrate_choquet_and_generalized(tmp_path, capsys):
    path = write(tmp_path, BASIC)
    assert main(["integrate", path, "--integral", "choquet"]) == 0
    assert main(["integrate", path, "--integral", "generalized",
                 "--op", "dombi"]) == 0
    assert main(["integrate", path, "--integral", "brute"]) == 0
    capsys.readouterr()


def test_integrate_missing_function_is_schema_error(tmp_path, capsys):
    code = main(["integrate", write(tmp_path, BASIC), "--function", "zz"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_key_is_schema_error(tmp_path, capsys):
    doc = dict(BASIC, typo=1)
    assert main(["integrate", write(tmp_path, doc)]) == 2
    capsys.readouterr()


def test_domain_error_exit_code(tmp_path, capsys):
    # unit-domain operator against a mass-2 capacity
    doc = {"space": {"grid": {"a": 0.0, "b": 2.0, "steps": 10}},
           "functions": {"f": "x"}}
    code = main(["integrate", write(tmp_path, doc), "--integral",
                 "generalized", "--op", "lukasiewicz"])
    assert code == 3
    assert "domain error" in capsys.readouterr().err


def test_check_capacity_property_exit_codes(tmp_path, capsys):
    path = write(tmp_path, BASIC)
    assert main(["check", path, "--what", "capacity:modular"]) == 0
    doc = dict(BASIC, capacity={"type": "distorted",
                                "weights": [0.5, 0.5, 0.5], "gamma": 0.5})
    path2 = write(tmp_path, doc, "dist.json")
    assert main(["check", path2, "--what", "capacity:modular"]) == 1
    assert main(["check", path2, "--what", "capacity:submodular"]) == 0
    assert main(["check", path2, "--what", "capacity:bogus"]) == 2
    capsys.readouterr()


def test_check_comonotone(tmp_path, capsys):
    assert main(["check", write(tmp_path, BASIC), "--what", "comonotone"]) == 0
    doc = dict(BASIC, functions={"f": [0.2, 0.6, 0.9], "g": [0.9, 0.5, 0.1]})
    assert main(["check", write(tmp_path, doc, "anti.json"),
                 "--what", "comonotone"]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_check_posdep(tmp_path, capsys):
    assert main(["check", write(tmp_path, BASIC), "--what", "posdep"]) == 0
    capsys.readouterr()


def test_audit_command(tmp_path, capsys):
    doc = {"theorem": "jensen_choquet", "audit": {"trials": 30, "seed": 5}}
    assert main(["audit", write(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "30 trials" in out
    assert "0 violations" in out


def test_falsify_command_finds_counterexample(tmp_path, capsys):
    doc = {"theorem": "chebyshev_choquet",
           "audit": {"trials": 5000, "seed": 5, "drop": "comonotone"}}
    out_file = tmp_path / "cex.json"
    code = main(["falsify", write(tmp_path, doc), "--out", str(out_file)])
    assert code == 1
    assert "counterexample" in capsys.readouterr().out
    saved = json.loads(out_file.read_text())
    assert saved["report"]["found"] is True


@pytest.mark.parametrize("command", ["audit", "falsify"])
@pytest.mark.parametrize("key, value, least", [
    ("trials", "many", 1), ("trials", -5, 1), ("trials", 0, 1), ("trials", 2.5, 1),
    ("trials", True, 1), ("seed", -1, 0), ("seed", "7", 0), ("seed", 1.0, 0)])
def test_audit_trials_and_seeds_are_integers(tmp_path, capsys, command, key, value, least):
    doc = {"theorem": "2.2", "audit": {"trials": 5, "seed": 0, key: value}}
    assert main([command, write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: audit.{key}: expected an integer >= {least}, "
                            f"got {value!r}\n")


def test_a_negative_seed_option_is_an_input_error(tmp_path, capsys):
    doc = {"theorem": "2.2", "audit": {"trials": 5, "seed": 0}}
    assert main(["audit", write(tmp_path, doc), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "input error: --seed: expected an integer >= 0, got -1\n"


def test_audit_unknown_theorem_lists_the_ids(tmp_path, capsys):
    doc = {"theorem": "9.9", "audit": {"trials": 5, "seed": 0}}
    assert main(["audit", write(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert "unknown theorem id '9.9'" in err
    assert "'holder_choquet'" in err and "'3.3'" in err


@pytest.mark.parametrize("tid, choices", [
    ("jensen_choquet:nonsense", "'jensen_choquet' takes no ':<system>' suffix"),
    ("carlson_sugeno:bogus", "'min_luk', 'dombi', 'project_first']"),
])
def test_audit_unknown_theorem_suffix_lists_the_choices(tmp_path, capsys, tid, choices):
    doc = {"theorem": tid, "audit": {"trials": 5, "seed": 0}}
    assert main(["audit", write(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert f"unknown theorem id {tid!r}" in err and choices in err


def test_falsify_unknown_drop_lists_the_droppable_hypotheses(tmp_path, capsys):
    doc = {"theorem": "3.1", "audit": {"trials": 5, "seed": 0}}
    assert main(["falsify", write(tmp_path, doc), "--drop", "submodular"]) == 3
    err = capsys.readouterr().err
    assert "unknown droppable hypothesis 'submodular'" in err
    assert "['comonotone']" in err


def test_falsify_without_drop_runs_plain_audit(tmp_path, capsys):
    doc = {"theorem": "jensen_choquet", "audit": {"trials": 10, "seed": 1}}
    assert main(["falsify", write(tmp_path, doc)]) == 0
    capsys.readouterr()


def test_result_file_round_trip_is_byte_stable(tmp_path, capsys):
    path = write(tmp_path, BASIC)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["integrate", path, "--out", str(r1)]) == 0
    # a result file is valid input and reproduces itself byte for byte
    assert main(["integrate", str(r1), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("name", ["caballero", "xu-ouyang", "wang",
                                  "shilkret-example", "lukasiewicz-example",
                                  "ouyang-choquet", "sharpness"])
def test_demos_hold(name, tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert main(["demo", name, "--out", str(out)]) == 0
    assert "holds" in capsys.readouterr().out
    assert json.loads(out.read_text())["report"]["holds"] is True


def test_demo_impossibility_table(capsys):
    assert main(["demo", "impossibility"]) == 0
    out = capsys.readouterr().out
    assert "required c" in out
    lines = [l for l in out.splitlines() if l.strip() and "coord" not in l]
    # the required constant blows up as the coordinate shrinks
    assert "100" in out
    assert len(lines) == 8


def test_demo_unknown_name(capsys):
    assert main(["demo", "nope"]) == 2
    capsys.readouterr()


# repr of (lhs, rhs, slack) and of every numeric extra of each demo report
PINNED_DEMOS = {
    "carlson-classical": (
        ("1.5607966601082823", "1.5608125715475443", "1.591143926193972e-05"),
        {"a": "0.7853978301040968", "b": "0.7753988300042",
         "H": "1.1036611535024818", "multiplier": "1.4142135623730951",
         "inner_integral": "2.00012286547152", "ratio": "1.0000101944344633",
         "target": "1.5707963267948966"}),
    "caballero": (
        ("0.12500000000000025", "0.3244206283144214", "0.19942062831442117"),
        {"If": "0.5000000000000003", "Ig": "1.0", "Ih": "0.5000000000000003",
         "Ipg": "0.3820000000000003", "Iqh": "0.27552027245006255",
         "C": "0.5000000000000003", "display_lhs": "0.5000000000000003",
         "display_rhs": "0.8055068321428703"}),
    "xu-ouyang": (
        ("0.12500000000000025", "0.37423925473491554", "0.2492392547349153"),
        {"If": "0.5000000000000003", "Ig": "1.0", "Ih": "0.5000000000000003",
         "Ipg": "0.3820000000000003", "Iqh": "0.22200000000000017",
         "C": "0.5000000000000003", "display_lhs": "0.5000000000000003",
         "display_rhs": "0.865146524855663"}),
    "wang": (
        ("0.32987697769322394", "0.6104966251252147", "0.2806196474319908"),
        {"If": "0.5000000000000003", "Ig": "1.0", "Ih": "0.5000000000000003",
         "Ipg": "0.3820000000000003", "Iqh": "0.22200000000000017",
         "K": "0.6597539553864474", "display_lhs": "0.5000000000000003",
         "display_rhs": "0.9253398485009757"}),
    "shilkret-example": (
        ("0.2502500000000002", "0.6641535306042775", "0.4139035306042773"),
        {"K": "0.25025000000000036"}),
    "lukasiewicz-example": (
        ("0.0", "0.0", "0.0"),
        {"If": "0.2512500000000002", "Ig": "1.0000000000000007",
         "Ih": "0.25125000000000014", "Ipg": "0.14926134375000008",
         "Iqh": "0.0", "n": "200"}),
    "ouyang-choquet": (
        ("0.5000000000000003", "0.7186074454336794", "0.21860744543367905"),
        {"K": "1.414213562373094", "d": "1.5", "mu_A": "1.0000000000000007",
         "Ig": "1.0000000000000007", "Ih": "0.5000000000000003",
         "ouyang_lhs": "0.25000000000000033", "ouyang_rhs": "0.5163966606327184"}),
    "sharpness": (
        ("0.995", "0.9950000000000001", "1.1102230246251565e-16"),
        {"sup_f": "0.995", "sup_g": "0.990025", "sup_h": "0.995"}),
}

# repr of (coord, gh, required_c) per row of the impossibility table
PINNED_IMPOSSIBILITY = [
    ("1.0", "1.0", "1.0"),
    ("0.1", "0.010000000000000002", "3.162277660168379"),
    ("0.01", "0.0001", "10.0"),
    ("0.001", "1e-06", "31.622776601683793"),
    ("0.0001", "1e-08", "100.0"),
    ("1e-05", "1.0000000000000002e-10", "316.2277660168379"),
    ("1e-06", "1e-12", "1000.0"),
    ("1e-07", "9.999999999999998e-15", "3162.2776601683795"),
]


@pytest.mark.parametrize("name", sorted(PINNED_DEMOS))
def test_demo_reports_are_pinned(name):
    sides, extra = PINNED_DEMOS[name]
    rep = DEMOS[name]()
    assert (repr(rep.lhs), repr(rep.rhs), repr(rep.slack)) == sides
    numeric = {k: repr(v) for k, v in rep.extra.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    assert numeric == extra


def test_demo_impossibility_rows_are_pinned():
    rows = DEMOS["impossibility"]()
    assert [(repr(r["coord"]), repr(r["gh"]), repr(r["required_c"]))
            for r in rows] == PINNED_IMPOSSIBILITY
    assert set(DEMOS) == set(PINNED_DEMOS) | {"impossibility"}


REPLAYED = falsifier.random_scenario("jensen_choquet", 2024, 0)
F = REPLAYED.functions["f"]


def _error(call, *args):
    try:
        call(*args)
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("part, key, value, message", [
    ("functions", "f", [True] + F[1:], "function values: expected a number, got True"),
    ("functions", "f", ["0.5"] + F[1:], "function values: expected a number, got '0.5'"),
    ("functions", "f", [[0.5]] + F[1:], "function values: expected a number, got [0.5]"),
    ("functions", "f", F[:-1], f"function has {len(F) - 1} values for a {len(F)}-point space"),
    ("functions", "f", [-0.5] + F[1:], "function values: number must be nonnegative"),
    ("subsets", "A", [99], "subset index 99 out of range"),
    ("capacity", "type", "bogus", "unknown capacity type 'bogus'"),
], ids=["bool", "string", "nested", "short", "negative", "subset-index", "capacity-type"])
def test_replay_reads_a_scenario_as_the_cli_reads_its_file(tmp_path, capsys, part, key,
                                                           value, message):
    scn = copy.deepcopy(REPLAYED)
    getattr(scn, part)[key] = value
    path = write(tmp_path, {k: getattr(scn, k) for k in ("space", "capacity", "functions",
                                                         "subsets")})
    assert (_error(falsifier.run_scenario, scn) == _error(cli._load_context, path)
            == (SchemaError, message))
    assert main(["integrate", path]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


HUGE = 10**400  # a 401-digit JSON integer, beyond float range
CAP2 = {"type": "additive", "weights": [0.5, 0.5]}
F2 = {"f": [0.5, 1.0]}


@pytest.mark.parametrize("doc, message", [
    ({"space": {"n": 2}, "capacity": CAP2, "functions": {"f": [0.5, HUGE]}},
     "function values: number must be finite"),
    ({"space": {"n": 2, "coords": [0.5, HUGE], "widths": [1, 1]}, "capacity": CAP2,
      "functions": F2}, "space: coords: number must be finite"),
    ({"space": {"grid": {"a": 0, "b": HUGE, "steps": 4}}, "functions": {"f": "x"}},
     "space.grid: grid.b: number must be finite"),
    ({"space": {"n": 2, "coords": 5, "widths": 1}, "capacity": CAP2, "functions": F2},
     "space: coords: expected a list of numbers, got 5"),
    ({"space": {"n": 2, "coords": [0.5, True], "widths": [1, 1]}, "capacity": CAP2,
      "functions": F2}, "space: coords: expected a number, got True"),
], ids=["huge-value", "huge-coord", "huge-grid-end", "scalar-coords", "bool-coord"])
def test_bad_numbers_are_input_errors(tmp_path, capsys, doc, message):
    assert main(["integrate", write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_a_coordinate_space_from_a_file_reaches_the_shilkret_example(tmp_path):
    doc = {"space": {"n": 5, "coords": [0.05, 0.3, 0.45, 0.65, 0.8], "widths": [0.2] * 5},
           "capacity": {"type": "distorted", "weights": [0.1, 0.2, 0.3, 0.15, 0.25],
                        "gamma": 0.5},
           "functions": {"f": [0.1, 0.3, 0.3, 0.6, 0.9]}}
    _, space, cap, fns, _ = cli._load_context(write(tmp_path, doc))
    assert not space.coords.flags.writeable
    rep = cli.ineq.shilkret_carlson_example(fns["f"], None, cap)
    assert rep.hypotheses_pass and rep.holds
    assert ((repr(rep.lhs), repr(rep.rhs), repr(rep.slack), repr(rep.extra["K"]))
            == ("0.45", "0.8877707439226876", "0.4377707439226876", "0.41109609582188933"))
