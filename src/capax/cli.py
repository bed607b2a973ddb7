"""Command-line front end: scenario files in, integral values, check
reports, audit summaries and demos out.

Exit codes: 0 success/holds, 1 check failed or violation found, 2 input
error, 3 domain or degenerate error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import partial
from typing import Optional

from . import falsifier, inequalities as ineq
from .capacity import (GroundSpace, InvalidCapacityError, check_modular, check_monotone,
                       check_subadditive, check_submodular, make_grid_lebesgue)
from .dependence import check_positive_dependence, is_comonotone
from .integrals import (brute_force_generalized_sugeno, choquet, from_formula,
                        generalized_sugeno, shilkret, sugeno)
from .operators import get_op
from .scenario import (SchemaError, _int, context_from_specs, dump_result,
                       load_document)
from .xreal import DegenerateInputError, DomainError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_context(path: str):
    doc = load_document(path)
    return (doc, *context_from_specs(doc.get("space", {"n": 1}), doc.get("capacity"),
                                     doc.get("functions", {}), doc.get("subsets", {})))


def _need(mapping, key, what):
    if key not in mapping:
        raise CliError(EXIT_SCHEMA, f"missing {what} {key!r}")
    return mapping[key]


def _fmt(v: float) -> str:
    return repr(float(v))


def _print_report(rep: ineq.InequalityReport):
    print(f"theorem   {rep.theorem}")
    for h in rep.hypotheses:
        status = "pass" if h.passed else "FAIL"
        detail = f"  ({h.detail})" if h.detail else ""
        print(f"  hypothesis {h.name}: {status}{detail}")
    if rep.degenerate:
        print(f"  degenerate: {rep.degenerate}")
    print(f"  lhs       {_fmt(rep.lhs)}")
    print(f"  rhs       {_fmt(rep.rhs)}")
    print(f"  slack     {_fmt(rep.slack)}")
    print(f"  verdict   {'holds' if rep.holds else 'VIOLATED'}")


def cmd_integrate(args) -> int:
    doc, space, capacity, functions, subsets = _load_context(args.file)
    if capacity is None:
        raise CliError(EXIT_SCHEMA, "no capacity in scenario file")
    f = _need(functions, args.function, "function")
    A = subsets.get("A", space.full_mask)
    kind = args.integral
    if kind == "sugeno":
        res = sugeno(f, capacity, A)
    elif kind == "shilkret":
        res = shilkret(f, capacity, A)
    elif kind == "choquet":
        res = choquet(f, capacity, A)
    elif kind == "generalized":
        op = get_op(args.op or doc.get("op", {}).get("op", "min"),
                    capacity.range)
        res = generalized_sugeno(f, capacity, A, op)
    elif kind == "brute":
        op = get_op(args.op or "min", capacity.range)
        res = brute_force_generalized_sugeno(f, capacity, A, op)
    else:  # unreachable via argparse choices
        raise CliError(EXIT_SCHEMA, f"unknown integral {kind!r}")
    exactness = "exact" if res.exact else f"grid-approx(bound={_fmt(res.bound)})"
    print(f"value          {_fmt(res.value)}")
    print(f"achieving level {_fmt(res.argmax_level) if res.argmax_level is not None else '-'}")
    print(f"exactness      {exactness}")
    if args.out:
        dump_result(args.out, {
            "input": doc, "command": f"integrate --integral {kind}",
            "report": {"value": res.value, "argmax_level": res.argmax_level,
                       "exact": res.exact, "bound": res.bound}})
    return EXIT_OK


CAPACITY_CHECKS = {
    "monotone": check_monotone,
    "submodular": check_submodular,
    "subadditive": check_subadditive,
    "modular": check_modular,
}


def cmd_check(args) -> int:
    doc, space, capacity, functions, subsets = _load_context(args.file)
    what = args.what
    if what.startswith("capacity:"):
        prop = what.split(":", 1)[1]
        if prop not in CAPACITY_CHECKS:
            raise CliError(EXIT_SCHEMA, f"unknown capacity property {prop!r}")
        if capacity is None:
            raise CliError(EXIT_SCHEMA, "no capacity in scenario file")
        rep = CAPACITY_CHECKS[prop](capacity)
        print(f"{prop}: {'holds' if rep.holds else 'FAILS'} "
              f"(mode={rep.mode}, slack={_fmt(rep.slack)})")
        if rep.witness is not None:
            print(f"witness masks: {rep.witness}")
        report = dataclasses.asdict(rep)
    elif what == "comonotone":
        f = _need(functions, "f", "function")
        g = _need(functions, "g", "function")
        rep = is_comonotone(f, g)
        print(f"comonotone: {'holds' if rep.holds else 'FAILS'}")
        if rep.witness is not None:
            print(f"witness point pair: {rep.witness}")
        report = dataclasses.asdict(rep)
    elif what == "posdep":
        if capacity is None:
            raise CliError(EXIT_SCHEMA, "no capacity in scenario file")
        f = _need(functions, "f", "function")
        g = _need(functions, "g", "function")
        A = subsets.get("A", space.full_mask)
        B = subsets.get("B", A)
        tri = get_op(doc.get("op", {}).get("op", "min"), capacity.range)
        rep = check_positive_dependence(f, A, g, B, capacity, tri)
        print(f"positively dependent (op={tri.name}): "
              f"{'holds' if rep.holds else 'FAILS'} (worst margin {_fmt(rep.slack)})")
        if rep.witness is not None:
            print(f"witness levels: {rep.witness}")
        report = dataclasses.asdict(rep)
    else:
        raise CliError(EXIT_SCHEMA, f"unknown check {what!r}")
    if args.out:
        dump_result(args.out, {"input": doc, "command": f"check --what {what}",
                               "report": report})
    return EXIT_OK if rep.holds else EXIT_CHECK_FAILED


def _audit_doc(doc, args) -> tuple[str, int, int]:
    theorem = _need(doc, "theorem", "key")
    audit_cfg = doc.get("audit", {})
    seed = audit_cfg.get("seed", 0) if args.seed is None else _int(args.seed, "--seed", 0)
    return theorem, audit_cfg.get("trials", 1000), seed


def cmd_audit(args) -> int:
    doc = load_document(args.file)
    theorem, trials, seed = _audit_doc(doc, args)
    summary = falsifier.audit(theorem, trials, seed)
    print(f"theorem {summary.theorem}: {summary.trials} trials, "
          f"{summary.hypothesis_pass} hypothesis-satisfying, "
          f"{summary.violation_count} violations, "
          f"min slack {_fmt(summary.min_slack)}")
    if args.out:
        dump_result(args.out, {"input": doc, "command": "audit",
                               "report": dataclasses.asdict(summary)})
    return EXIT_OK if summary.violation_count == 0 else EXIT_CHECK_FAILED


def cmd_falsify(args) -> int:
    doc = load_document(args.file)
    theorem, trials, seed = _audit_doc(doc, args)
    drop = args.drop or doc.get("audit", {}).get("drop")
    if not drop:
        return cmd_audit(args)
    witness = falsifier.hunt_counterexample(theorem, drop, trials, seed)
    if witness is None:
        print(f"no violation found for {theorem} without {drop!r} "
              f"in {trials} trials (absence is not a proof)")
        if args.out:
            dump_result(args.out, {"input": doc, "command": f"falsify --drop {drop}",
                                   "report": {"found": False}})
        return EXIT_OK
    rep = falsifier.run_scenario(witness)
    print(f"counterexample for {theorem} without {drop!r}:")
    print(f"  points    {witness.space.get('n')}")
    print(f"  functions {witness.functions}")
    print(f"  capacity  {witness.capacity}")
    _print_report(rep)
    if args.out:
        dump_result(args.out, {"input": doc, "command": f"falsify --drop {drop}",
                               "report": {"found": True,
                                          "scenario": witness.to_dict(),
                                          "report": dataclasses.asdict(rep)}})
    return EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# demos


def _demo_carlson_classical():
    space, cap = make_grid_lebesgue(0.0, 100.0, 100_000)
    f = from_formula(space, "1/(1+x^2)")
    g = from_formula(space, "const:1")
    h = from_formula(space, "x^2")
    rep = ineq.carlson_choquet_submodular(f, g, h, None, cap, 2.0)
    rep.extra["ratio"] = rep.rhs / rep.lhs
    rep.extra["target"] = math.pi / 2
    return rep


#: demos on a grid of [0, 1] with f = h = x and g = 1:
#: name -> (checker, cells, exponents)
_X_ONE_X_DEMOS = {
    "caballero": (ineq.carlson_sugeno_xu, 1000, (2.0, 2.0)),
    "xu-ouyang": (ineq.carlson_sugeno_xu, 500, (2.0, 3.0)),
    "wang": (ineq.carlson_sugeno_wang, 500, (2.0, 3.0)),
    "ouyang-choquet": (ineq.carlson_choquet_comonotone, 500, (2.0, 2.0, 1.0, 1.0)),
}


def _demo_x_one_x(checker, cells, exponents):
    space, cap = make_grid_lebesgue(0.0, 1.0, cells)
    f, g, h = (from_formula(space, s) for s in ("x", "const:1", "x"))
    return checker(f, g, h, space.full_mask, cap, *exponents)


def _demo_shilkret():
    space, cap = make_grid_lebesgue(0.0, 1.0, 1000)
    f = from_formula(space, "x")
    return ineq.shilkret_carlson_example(f, None, cap)


def _demo_lukasiewicz():
    return ineq.lukasiewicz_carlson_example("identity", "identity", 200, 2.0, 2.0)


def _demo_sharpness():
    space, _ = make_grid_lebesgue(0.0, 1.0, 100)
    f = from_formula(space, "x")
    g = from_formula(space, "x^2")
    h = from_formula(space, "x")
    return ineq.sharpness_demo(f, g, h, None, 1.0, 2.0)


def _demo_impossibility():
    space = GroundSpace(8, coords=[10.0**-k for k in reversed(range(8))], widths=[1.0] * 8)
    g = from_formula(space, "const:1")
    h = from_formula(space, "x^2")
    return ineq.impossibility_demo(g, h, t_indices=reversed(range(8)))


DEMOS = {
    "carlson-classical": _demo_carlson_classical,
    **{name: partial(_demo_x_one_x, *row) for name, row in _X_ONE_X_DEMOS.items()},
    "shilkret-example": _demo_shilkret,
    "lukasiewicz-example": _demo_lukasiewicz,
    "sharpness": _demo_sharpness,
    "impossibility": _demo_impossibility,
}


def cmd_demo(args) -> int:
    if args.name not in DEMOS:
        raise CliError(EXIT_SCHEMA, f"unknown demo {args.name!r}; "
                                    f"choose from {sorted(DEMOS)}")
    result = DEMOS[args.name]()
    if args.name == "impossibility":
        print(f"{'coord':>12}  {'g(t)h(t)':>12}  {'required c':>12}")
        for row in result:
            print(f"{row['coord']:>12.3g}  {row['gh']:>12.3g}  "
                  f"{row['required_c']:>12.6g}")
        report = result
        ok = True
    else:
        _print_report(result)
        for k in ("ratio", "K", "C", "d"):
            if k in result.extra:
                print(f"  {k}        {_fmt(result.extra[k])}")
        report = dataclasses.asdict(result)
        ok = result.holds
    if args.out:
        dump_result(args.out, {"input": {"theorem": args.name},
                               "command": f"demo {args.name}",
                               "report": report})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="capax",
                                description="Non-additive integrals and "
                                            "Carlson-type inequality audits")
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("integrate", help="evaluate an integral from a scenario file")
    pi.add_argument("file")
    pi.add_argument("--integral", default="sugeno",
                    choices=["sugeno", "shilkret", "choquet", "generalized", "brute"])
    pi.add_argument("--op", default=None, help="operator name for --integral generalized")
    pi.add_argument("--function", default="f", help="which named function to integrate")
    pi.add_argument("--out", default=None)
    pi.set_defaults(handler=cmd_integrate)

    pc = sub.add_parser("check", help="structural and dependence checks")
    pc.add_argument("file")
    pc.add_argument("--what", required=True,
                    help="capacity:PROP | comonotone | posdep")
    pc.add_argument("--out", default=None)
    pc.set_defaults(handler=cmd_check)

    pa = sub.add_parser("audit", help="randomized theorem audit")
    pa.add_argument("file")
    pa.add_argument("--seed", type=int, default=None)
    pa.add_argument("--out", default=None)
    pa.set_defaults(handler=cmd_audit)

    pf = sub.add_parser("falsify", help="hunt counterexamples with a dropped hypothesis")
    pf.add_argument("file")
    pf.add_argument("--drop", default=None,
                    help="hypothesis to drop, one of "
                         f"{sorted({h for _, h in falsifier.DROPPABLE})}")
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--out", default=None)
    pf.set_defaults(handler=cmd_falsify)

    pd = sub.add_parser("demo", help="run a named demonstration")
    pd.add_argument("name")
    pd.add_argument("--out", default=None)
    pd.set_defaults(handler=cmd_demo)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SchemaError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DomainError, DegenerateInputError, InvalidCapacityError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
