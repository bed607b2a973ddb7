"""capax benchmark runner.

Run from the repository root:

    python3 benchmark/run.py --workload audit_sweep --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1     # every workload, both runs
    python3 benchmark/run.py --workload all --smoke      # every workload at tiny sizes

One workload runs per process, against the library in ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics with nothing wrapped;
with ``--trace 1`` it wraps capax's public functions (``tracer.py``) and
reports per-layer metrics, per round of the workload, plus the tracing
overhead against an untraced replay of the same rounds in a fresh process.
End-to-end times are adjusted to a reference machine speed by a probe timed
next to the work (``speed.py``); the wall times are printed next to them.
Every output is checked against an answer known independently of capax.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a detail record
with the environment goes to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmark" / "out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

WORKLOAD_NAMES = ["audit_sweep", "grid_scale", "explicit_tables", "cli_cold"]
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170
MACHINE_NOTE = ("shared machine, not isolated: nothing pinned, no caches "
                "dropped, no cgroup or kernel settings changed")

END_TO_END = [("setup_s", "s"), ("throughput_per_s", "1/s"),
              ("key_latency_ms", "ms"), ("peak_rss_mb", "MB")]

# Workload-specific metric names: each workload reports the ones that apply,
# as (name, unit, end-to-end metric it is read from, scale).
NAMED = {
    "audit_sweep": [("audit_trials_per_s", "1/s", "throughput_per_s", 1.0),
                    ("audit_max_theorem_s", "s", "key_latency_ms", 1e-3)],
    "grid_scale": [("grid_cells_per_s", "1/s", "throughput_per_s", 1.0),
                   ("grid_carlson_s", "s", "key_latency_ms", 1e-3)],
    "explicit_tables": [("explicit_verdicts_per_s", "1/s", "throughput_per_s", 1.0),
                        ("explicit_sampled_verdict_ms", "ms", "key_latency_ms", 1.0)],
    "cli_cold": [("cli_p50_ms", "ms", "key_latency_ms", 1.0)],
}

# (layer, extra statistics); every layer also reports s and self_s
LAYERS = [
    ("falsifier.random_scenario", ["calls"]),
    ("falsifier.run_scenario", ["calls", "errors"]),
    ("falsifier.hunt_counterexample", ["calls"]),
    ("falsifier.shrink", ["candidates"]),
    ("scenario.decode", ["calls"]),
    ("scenario.encode", ["calls"]),
    ("capacity.mask_indices", ["calls", "bits"]),
    ("capacity.measure", ["calls"]),
    ("capacity.chain_measures", ["calls"]),
    ("capacity.make_random_monotone", ["calls"]),
    ("capacity.structural_check", ["calls", "sampled_calls"]),
    ("integrals.generalized_sugeno", ["calls"]),
    ("integrals.choquet", ["calls"]),
    ("integrals.pointwise_power", ["calls"]),
    ("dependence.check_positive_dependence", ["calls", "cells"]),
    ("dependence.is_comonotone", ["calls"]),
    ("operators.condition", ["runs"]),
    ("inequalities.checker", ["calls"]),
]
STAT_UNITS = {"s": "s/round", "self_s": "s/round", "bits": "bit/round"}
OTHER_LAYER_METRICS = [
    ("falsifier.trial_p50_ms", "ms", "lower"),
    ("falsifier.trial_p99_ms", "ms", "lower"),
    ("falsifier.hypothesis_pass_ratio", "ratio", "higher"),
    ("integrals.points", "count/round", "lower"),
    ("dependence.is_comonotone.max_n", "count", "lower"),
    ("operators.condition.runs_per_request", "ratio", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("trace.rounds", "count", "higher"),
    ("trace.overhead_s", "s/round", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer, stats in LAYERS:
        for stat in ["s", "self_s"] + stats:
            spec.append((f"{layer}.{stat}", STAT_UNITS.get(stat, "count/round"),
                         "lower"))
    return spec + OTHER_LAYER_METRICS


def median(values):
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q):
    """Quantile q of values by statistics.quantiles' default method."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100)[round(q * 100) - 1])


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv):
    """Run a child to completion and return its last stdout line as JSON."""
    p = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                       text=True, timeout=CHILD_TIMEOUT)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def self_argv(args, *extra, workload=None):
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload or args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    return argv + (["--smoke"] if args.smoke else []) + list(extra)


def detail_path(workload, args, trace):
    return OUT / f"{workload}-seed{args.seed}-trace{trace}{'-smoke' if args.smoke else ''}.json"


def environment():
    import numpy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=60)
        if p.returncode == 0:
            commit = p.stdout.strip()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform(), "note": MACHINE_NOTE}


def import_capax():
    import capax
    if not Path(capax.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"capax was imported from {capax.__file__}, not {SRC}")


def make_workload(args):
    import_capax()
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](args.seed, args.smoke, ROOT)


def run_rounds(wl, seconds, min_rounds, inproc):
    """Rounds until min_rounds are done and another round of the median
    length would end past ``seconds``, so a run never overshoots by a
    whole round."""
    results, walls = [], []
    t_start = time.perf_counter()
    r = 0
    while (r < min_rounds
           or time.perf_counter() - t_start + median(walls) < seconds):
        t0 = time.perf_counter()
        results.append(wl.round(r, inproc=inproc))
        walls.append(time.perf_counter() - t0)
        r += 1
    return results, walls


def tally(results):
    failures = [f for res in results for f in res.failures]
    attempted = sum(res.ops for res in results)
    return failures, attempted


def finish(args, record, metrics, failures, attempted):
    record["loadavg_after"] = os.getloadavg()
    record["failures"] = failures
    result = {"correct": not failures and attempted > 0, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    detail_path(args.workload, args, args.trace).write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for f in failures[:20]:
        print(f"known-answer check failed: {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def key_latency(workload, samples):
    """The key latency, in s, from each round's key-latency samples: for
    audit_sweep the slowest theorem, each theorem's audit taken as its
    median over rounds; elsewhere the median of all samples."""
    if workload == "audit_sweep":
        return max(median(list(column)) for column in zip(*samples))
    return median([k for ks in samples for k in ks])


def measure_setup(args):
    """Set-up times, adjusted and wall, of fresh processes; the first one,
    which also writes the bytecode caches, is not counted."""
    samples = [run_child(self_argv(args, "--setup-only"))
               for _ in range(SETUP_SAMPLES + 1)][1:]
    return ([s["setup_s"] for s in samples], [s["wall_setup_s"] for s in samples])


def setup_only(args):
    """One timed set-up, with speed probes before and after it."""
    from speed import SpeedClock, probe_ms
    sc = SpeedClock()
    sc.probes += [probe_ms() for _ in range(2)]

    def setup():
        wl = make_workload(args)
        wl.setup()

    _, wall = sc.time(setup)
    sc.probes += [probe_ms() for _ in range(2)]
    print(json.dumps({"setup_s": wall * sc.factor(), "wall_setup_s": wall}))


def run_untraced(args, record):
    setup, wall_setup = measure_setup(args)
    wl = make_workload(args)
    wl.setup()
    results, walls = run_rounds(wl, 0 if args.smoke else args.seconds,
                                1 if args.smoke else wl.min_rounds, inproc=False)
    if args.workload == "cli_cold":
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": median(setup),
              "throughput_per_s": median([res.work / res.busy_s for res in results]),
              "key_latency_ms": key_latency(args.workload,
                                            [res.key_s for res in results]) * 1e3,
              "peak_rss_mb": peak_kb / 1024.0}
    wall = {"wall_setup_s": (median(wall_setup), "s"),
            "wall_throughput_per_s": (median([res.work / res.wall_busy_s
                                              for res in results]), "1/s"),
            "wall_key_latency_ms": (key_latency(args.workload,
                                                [res.wall_key_s for res in results])
                                    * 1e3, "ms"),
            "machine_probe_ms": (median([p for res in results for p in res.probes_ms]),
                                 "ms")}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failures, attempted = tally(results)
    named = {name: {"value": values[src] * scale, "unit": unit}
             for name, unit, src, scale in NAMED[args.workload]}
    if args.workload == "cli_cold":
        keys = [k for res in results for k in res.key_s]
        named["cli_p90_ms"] = {"value": quantile(keys, 0.9) * 1e3, "unit": "ms"}
        named["cli_samples"] = {"value": len(keys), "unit": "count"}
    for name in ("setup_s", "peak_rss_mb"):
        named[name] = metrics[name]
    named["ops_total"] = {"value": attempted, "unit": "count"}
    named["ops_failed"] = {"value": len(failures), "unit": "count"}
    named.update({name: {"value": v, "unit": unit} for name, (v, unit) in wall.items()})
    for name, m in named.items():
        print(f"{args.workload:16s} {name:28s} {m['value']:14.6g} {m['unit']}")
    record.update(named=named, setup_samples=setup, wall_setup_samples=wall_setup,
                  round_walls=walls,
                  rounds=[{"work": res.work, "busy_s": res.busy_s, "key_s": res.key_s,
                           "wall_busy_s": res.wall_busy_s, "wall_key_s": res.wall_key_s,
                           "probes_ms": res.probes_ms}
                          for res in results])
    return finish(args, record, metrics, failures, attempted)


def child_wall_ms(argv, samples=5):
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT)
        out.append((time.perf_counter() - t0) * 1e3)
    return median(out)


def import_ms(samples=5):
    code = ("import time; t = time.perf_counter(); import capax; "
            "print((time.perf_counter() - t) * 1e3)")
    out = []
    for _ in range(samples):
        p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                           check=True, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT)
        out.append(float(p.stdout.strip()))
    return median(out)


def layer_metrics(tracer, k):
    values = {}
    for layer, stats in LAYERS:
        calls, s, self_s = tracer.agg.get(layer, (0, 0.0, 0.0))
        values[f"{layer}.s"] = s / k
        values[f"{layer}.self_s"] = self_s / k
        for stat in stats:
            if stat in ("calls", "runs"):
                v = calls
            elif stat == "candidates":
                v = tracer.children_of("falsifier.shrink", "falsifier.run_scenario")
            else:
                v = tracer.counts[f"{layer}.{stat}"]
            values[f"{layer}.{stat}"] = v / k
    trials = tracer.trial_latencies_ms()
    values["falsifier.trial_p50_ms"] = quantile(trials, 0.5)
    values["falsifier.trial_p99_ms"] = quantile(trials, 0.99)
    audited = tracer.counts["audit.trials"]
    values["falsifier.hypothesis_pass_ratio"] = (
        tracer.counts["audit.hypothesis_pass"] / audited if audited else 0.0)
    values["integrals.points"] = tracer.counts["integrals.points"] / k
    values["dependence.is_comonotone.max_n"] = tracer.counts["dependence.is_comonotone.max_n"]
    requests = tracer.counts["operators.condition.requests"]
    runs = tracer.agg.get("operators.condition", (0,))[0]
    values["operators.condition.runs_per_request"] = runs / requests if requests else 0.0
    values["cli.main_ms"] = median(cli_main_ms(tracer))
    return values


def cli_main_ms(tracer):
    return [(t1 - t0) * 1e3 for _, name, t0, t1, _ in tracer.spans if name == "cli.main"]


def cli_sample(args):
    """One round of cli_cold's commands, in-process, after the layer metrics
    are taken: it gives cli.main_ms on workloads that never call the CLI,
    and its outputs are checked like cli_cold's."""
    from workloads import CliCold
    cli = CliCold(args.seed, args.smoke, ROOT)
    cli.setup()
    return cli.round(0, inproc=True)


def run_traced(args, record):
    from tracer import Tracer
    wl = make_workload(args)
    wl.setup()
    tracer = Tracer()
    tracer.install()
    try:
        results, walls = run_rounds(wl, 0 if args.smoke else args.seconds / 2,
                                    1 if args.smoke else 2, inproc=True)
        k = len(results)
        values = layer_metrics(tracer, k)
        if args.workload != "cli_cold":
            results.append(cli_sample(args))
            values["cli.main_ms"] = median(cli_main_ms(tracer))
    finally:
        tracer.uninstall()
    untraced = run_child(self_argv(args, "--rounds", str(k)))["round_walls"]
    values["cli.interpreter_ms"] = child_wall_ms([sys.executable, "-c", "pass"])
    values["cli.import_ms"] = import_ms()
    values["trace.rounds"] = k
    values["trace.overhead_s"] = (sum(walls) - sum(untraced)) / k
    values["trace.overhead_ratio"] = sum(walls) / sum(untraced) - 1.0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in per_layer_spec()}
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    record.update(traced_round_walls=walls, untraced_round_walls=untraced,
                  stored_spans=len(tracer.spans),
                  calls_by_size={name: {size: {"calls": c, "s": t}
                                        for size, (c, t) in sorted(sizes.items())}
                                 for name, sizes in tracer.by_size.items()})
    failures, attempted = tally(results)
    return finish(args, record, metrics, failures, attempted)


def run_all(args):
    """Every workload in its own processes, untraced then traced."""
    summary = {"environment": environment(), "seed": args.seed,
               "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    correct, attempted, failed, flat = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        runs = {}
        for trace in (0, 1):
            result = run_child(self_argv(args, "--trace", str(trace), workload=name))
            runs[trace] = json.loads(detail_path(name, args, trace).read_text(encoding="utf-8"))
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
        named = runs[0]["named"]
        layers = runs[1]["result"]["metrics"]
        summary["workloads"][name] = {"end_to_end": runs[0]["result"]["metrics"],
                                      "named": named, "per_layer": layers,
                                      "loadavg": [runs[0]["loadavg_before"],
                                                  runs[1]["loadavg_after"]]}
        flat.update({f"{name}.{k}": v for k, v in named.items()})
        print(f"\n{name}  (end to end, untraced)")
        for key, m in named.items():
            print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
        print(f"{name}  (per layer, traced; self time per round)")
        for layer, _ in LAYERS:
            self_s = layers[f"{layer}.self_s"]["value"]
            if self_s:
                print(f"  {layer + '.self_s':40s} {self_s:14.6g} s/round")
        for key in ("trace.rounds", "trace.overhead_s", "trace.overhead_ratio"):
            print(f"  {key:40s} {layers[key]['value']:14.6g} {layers[key]['unit']}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"all-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"\nenvironment: {json.dumps(summary['environment'])}")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": flat}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload at tiny sizes, one round")
    # internal: one timed set-up, and an untraced replay of the first rounds
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "capax" / "__init__.py").is_file():
        print(f"error: no capax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_only(args)
        return 0
    if args.rounds is not None:
        wl = make_workload(args)
        wl.setup()
        _, walls = run_rounds(wl, 0, args.rounds, inproc=True)
        print(json.dumps({"round_walls": walls}))
        return 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "loadavg_before": os.getloadavg(), "environment": environment()}
    return (run_traced if args.trace else run_untraced)(args, record)


if __name__ == "__main__":
    sys.exit(main())
