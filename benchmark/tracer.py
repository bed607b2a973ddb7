"""Span tracer for the traced benchmark run.

The tracer replaces capax's public functions with timing wrappers at every
module attribute that binds them.  The library imports with ``from ...
import``, so one function has several bindings (``capax.capacity.mask_indices``
and ``capax.integrals.mask_indices``); each binding is wrapped, and the
originals are restored by ``uninstall``.

A span has a name, a start, an end and a parent.  Spans are kept in memory
and written out by ``write_spans``.  Three names (``capacity.measure``,
``capacity.mask_indices``, ``capacity.chain_measures``) are only aggregated,
not stored: one sampled structural check alone makes 4 * 10^4 measure calls.

Aggregates per span name: calls, ``s`` (summed time of the outermost spans
of that name, so nested same-name spans are not counted twice) and
``self_s`` (span time minus the time of its child spans).  Time the tracer
spends computing work counters is charged to neither the span nor its
parent's self time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.perf_counter

NOT_STORED = {"capacity.measure", "capacity.mask_indices",
              "capacity.chain_measures"}

CHECKERS = ["jensen_sugeno", "chebyshev_sugeno", "carlson_sugeno",
            "carlson_sugeno_xu", "carlson_sugeno_wang",
            "shilkret_carlson_example", "lukasiewicz_carlson_example",
            "jensen_choquet", "chebyshev_choquet",
            "carlson_choquet_comonotone", "sharpness_demo", "holder_choquet",
            "carlson_choquet_submodular", "carlson_choquet_subadditive",
            "impossibility_demo"]

CONDITION_PREFIXES = ("power_condition[", "chebyshev_condition[")


# Work counters, each called with (counts, args, kwargs) before the span.
# A counter that returns a size also gets the span's time recorded by size.

def _count_mask_bits(counts, args, kwargs):
    bits = int(args[0]).bit_length()
    counts["capacity.mask_indices.bits"] += bits
    return bits


def _count_points(counts, args, kwargs):
    f = args[0]
    A = args[2] if len(args) > 2 else kwargs.get("A")
    counts["integrals.points"] += f.space.n if A is None else int(A).bit_count()


def _levels(sample, mask):
    import numpy as np
    n = sample.space.n
    sel = np.unpackbits(np.frombuffer(int(mask).to_bytes((n + 7) // 8, "little"),
                                      dtype=np.uint8),
                        bitorder="little")[:n].astype(bool)
    if not sel.any():
        return 1
    return len(np.unique(np.concatenate(([0.0], sample.values[sel]))))


def _count_posdep_cells(counts, args, kwargs):
    f, A, g, B = args[:4]
    counts["dependence.check_positive_dependence.cells"] += (
        _levels(f, A) * _levels(g, B))


def _count_comonotone_n(counts, args, kwargs):
    key = "dependence.is_comonotone.max_n"
    counts[key] = max(counts[key], args[0].space.n)
    return args[0].space.n


# Result observers, each called with (tracer, result) after the span.

def _observe_structural(tracer, rep):
    if rep.mode == "sampled":
        tracer.counts["capacity.structural_check.sampled_calls"] += 1


def _observe_audit(tracer, summary):
    tracer.counts["audit.trials"] += summary.trials
    tracer.counts["audit.hypothesis_pass"] += summary.hypothesis_pass


def _observe_checker(tracer, rep):
    # a checker called by another checker returns into it; count the
    # hypotheses once, at the outermost checker
    if tracer.active["inequalities.checker"] or not hasattr(rep, "hypotheses"):
        return
    tracer.counts["operators.condition.requests"] += sum(
        h.name.startswith(CONDITION_PREFIXES) for h in rep.hypotheses)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id), stored names only
        self.stack = []  # frames: [id, child time]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counts = defaultdict(float)
        self.by_size = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.active = defaultdict(int)
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn, before=None, after=None):
        tracer = self
        store = name not in NOT_STORED

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            size = None
            if before is not None:
                t_pre = clock()
                size = before(tracer.counts, args, kwargs)
                if parent is not None:
                    parent[1] += clock() - t_pre
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer.active[name] -= 1
                dur = t1 - t0
                a = tracer.agg[name]
                a[0] += 1
                a[2] += dur - frame[1]
                if not tracer.active[name]:
                    a[1] += dur
                if size is not None:
                    b = tracer.by_size[name][size]
                    b[0] += 1
                    b[1] += dur
                if parent is not None:
                    parent[1] += dur
                if store:
                    tracer.spans.append((span_id, name, t0, t1,
                                         parent[0] if parent else -1))
            if after is not None:
                t_post = clock()
                after(tracer, result)
                if parent is not None:
                    parent[1] += clock() - t_post
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, namespace, key, wrapper):
        self._undo.append((namespace, key, namespace[key]))
        namespace[key] = wrapper

    def install(self):
        """Wrap every binding of the traced capax functions."""
        import capax
        from capax import (capacity, cli, dependence, falsifier, inequalities,
                           integrals, operators, scenario)
        everywhere = [vars(m) for m in (capax, capacity, cli, dependence,
                                        falsifier, inequalities, integrals,
                                        operators, scenario)]
        everywhere.append(cli.CAPACITY_CHECKS)
        # (span name, defining module, function names, namespaces where the
        #  call is looked up or None for all, work counter, result observer)
        plan = [
            ("falsifier.audit", falsifier, ["audit"], None, None, _observe_audit),
            ("falsifier.random_scenario", falsifier, ["random_scenario"], None, None, None),
            ("falsifier.run_scenario", falsifier, ["run_scenario"], None, None, None),
            ("falsifier.hunt_counterexample", falsifier, ["hunt_counterexample"], None, None, None),
            ("falsifier.shrink", falsifier, ["shrink"], None, None, None),
            ("scenario.decode", scenario, ["space_from_spec", "capacity_from_spec",
                                           "function_from_spec", "subset_from_spec"],
             None, None, None),
            # run_scenario decodes value lists with sample_function
            ("scenario.decode", integrals, ["sample_function"], [vars(falsifier)], None, None),
            ("scenario.encode", scenario, ["capacity_to_spec"], None, None, None),
            ("capacity.mask_indices", capacity, ["mask_indices"], None, _count_mask_bits, None),
            ("capacity.make_random_monotone", capacity, ["make_random_monotone"], None, None, None),
            ("capacity.structural_check", capacity, ["check_monotone", "check_submodular",
                                                     "check_subadditive", "check_modular"],
             None, None, _observe_structural),
            ("integrals.generalized_sugeno", integrals, ["generalized_sugeno"], None, _count_points, None),
            ("integrals.choquet", integrals, ["choquet"], None, _count_points, None),
            ("integrals.pointwise_power", integrals, ["pointwise", "power"], None, None, None),
            ("dependence.check_positive_dependence", dependence, ["check_positive_dependence"],
             None, _count_posdep_cells, None),
            ("dependence.is_comonotone", dependence, ["is_comonotone"], None, _count_comonotone_n, None),
            # looked up in inequalities, these calls are the cache misses
            ("operators.condition", operators, ["check_power_condition",
                                                "check_chebyshev_condition"],
             [vars(inequalities)], None, None),
            ("inequalities.checker", inequalities, CHECKERS, None, None, _observe_checker),
            ("cli.main", cli, ["main"], None, None, None),
        ]
        for name, home, fnames, where, before, after in plan:
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self.wrap(name, original, before, after)
                for namespace in where or everywhere:
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._rebind(namespace, key, wrapper)
        cap = capacity.Capacity
        for name, attr in (("capacity.measure", "__call__"),
                           ("capacity.measure", "measure_bools"),
                           ("capacity.chain_measures", "chain_measures")):
            self._undo.append((cap, attr, getattr(cap, attr)))
            setattr(cap, attr, self.wrap(name, getattr(cap, attr)))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

    def trial_latencies_ms(self):
        """Audit trial times: random_scenario start to the end of the
        run_scenario that follows it under the same audit span."""
        audits = {s[0] for s in self.spans if s[1] == "falsifier.audit"}
        pending = {}
        out = []
        for span_id, name, t0, t1, parent in sorted(self.spans, key=lambda s: s[2]):
            if parent not in audits:
                continue
            if name == "falsifier.random_scenario":
                pending[parent] = t0
            elif name == "falsifier.run_scenario" and parent in pending:
                out.append((t1 - pending.pop(parent)) * 1e3)
        return out

    def children_of(self, parent_name, child_name):
        parents = {s[0] for s in self.spans if s[1] == parent_name}
        return sum(1 for s in self.spans if s[1] == child_name and s[4] in parents)
