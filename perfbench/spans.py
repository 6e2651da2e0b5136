"""Spans around the package's public functions, and the per-layer metrics.

A wrapper replaces each traced function wherever a module of the package
binds it (the package imports names with ``from .x import y``, so
``central_roots`` lives in ``central``, ``solver``, ``eigen`` and the package
root); ``Octonion.__mul__`` and ``Octonion.inverse`` are replaced on the
class.  Each call records a span (name, start, end, parent span, operation
id) in flat arrays held in memory; counters read the traced functions'
results.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

# span name -> (module, attributes); an attribute "Class.method" is wrapped
# on the class
TRACED = {
    "algebra.mul": ("algebra", ("Octonion.__mul__",)),
    "algebra.inverse": ("algebra", ("Octonion.inverse",)),
    "polynomials.companion": ("polynomials", ("companion",)),
    "polynomials.eval_at": ("polynomials", ("eval_at",)),
    "polynomials.reduce_to_linear": ("polynomials", ("reduce_to_linear",)),
    "central.exact_quadratic_factors": ("central", ("exact_quadratic_factors",)),
    "central.numeric_roots": ("central", ("numeric_roots",)),
    "central.central_roots": ("central", ("central_roots",)),
    "solver.solve": ("solver", ("solve",)),
    "solver.resolve_class": ("solver", ("resolve_class",)),
    "solver.verify_root": ("solver", ("verify_root",)),
    "solver.class_witness": ("solver", ("class_witness",)),
    "linalg.nullspace": ("linalg", ("exact_nullspace_vector", "float_nullspace_vector")),
    "eigen.lev_test": ("eigen", ("lev_test",)),
    "eigen.rev_test": ("eigen", ("rev_test",)),
    "literals.parse": ("literals", ("parse_octonion", "parse_polynomial")),
    "literals.format": ("literals", ("format_octonion", "format_polynomial")),
}
NAMES = tuple(TRACED)
STATUSES = ("single_root", "full_class", "no_root_in_class", "not_embeddable", "undetermined")

# (metric, unit, better); a metric "<span>.calls" / "<span>.self_s" is read
# from the spans, every other one from the counters
PER_LAYER = (
    [("algebra.mul.calls", "count", "lower"), ("algebra.mul.self_s", "s", "lower"),
     ("algebra.inverse.calls", "count", "lower"),
     ("polynomials.companion.self_s", "s", "lower"),
     ("polynomials.eval_at.calls", "count", "lower"), ("polynomials.eval_at.self_s", "s", "lower"),
     ("polynomials.reduce_to_linear.calls", "count", "lower"),
     ("polynomials.reduce_to_linear.self_s", "s", "lower"),
     ("central.exact_quadratic_factors.calls", "count", "lower"),
     ("central.exact_quadratic_factors.self_s", "s", "lower"),
     ("central.numeric_roots.calls", "count", "lower"), ("central.numeric_roots.self_s", "s", "lower"),
     ("central.central_roots.self_s", "s", "lower"),
     ("central.candidates", "count", "lower"), ("central.truncated", "count", "lower"),
     ("central.candidate_yield", "ratio", "higher"),
     ("solver.solve.self_s", "s", "lower"),
     ("solver.resolve_class.calls", "count", "lower"), ("solver.resolve_class.self_s", "s", "lower"),
     ("solver.verify_root.calls", "count", "lower"), ("solver.verify_root.self_s", "s", "lower"),
     ("solver.class_witness.self_s", "s", "lower")]
    + [("solver.status." + s, "count", "lower" if s in ("undetermined", "no_root_in_class") else "higher")
       for s in STATUSES]
    + [("linalg.nullspace.calls", "count", "lower"), ("linalg.nullspace.self_s", "s", "lower"),
       ("linalg.kernel_found", "count", "higher"),
       ("eigen.lev_test.calls", "count", "lower"), ("eigen.lev_test.self_s", "s", "lower"),
       ("eigen.rev_test.calls", "count", "lower"), ("eigen.rev_test.self_s", "s", "lower"),
       ("eigen.members", "count", "higher"),
       ("literals.parse.calls", "count", "lower"), ("literals.parse.self_s", "s", "lower"),
       ("literals.format.self_s", "s", "lower"),
       ("cli.interpreter_start_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower"),
       ("cli.main_ms", "ms", "lower")]
)


def _count_result(counts, name, result):
    if name == "central.central_roots":
        counts["central.candidates"] += len(result.candidates)
    elif name == "central.exact_quadratic_factors":
        counts["central.truncated"] += int(result.truncated)
    elif name == "solver.resolve_class":
        counts["solver.status." + result.status] += 1
    elif name == "linalg.nullspace":
        counts["linalg.kernel_found"] += result is not None
    elif name in ("eigen.lev_test", "eigen.rev_test"):
        counts["eigen.members"] += bool(result.member)


class Tracer:
    """In-memory span store.  ``op`` is the id of the running operation."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.counts = Counter()
        self.stack = []
        self.op = -1

    def _wrap(self, name, fn):
        nid = NAMES.index(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op_id
        stack, counts, clock = self.stack, self.counts, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            _count_result(counts, name, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function in the imported package."""
        for name, (module, attrs) in TRACED.items():
            mod = importlib.import_module("octopoly." + module)
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").split(".")[0] != "octopoly":
                        continue
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapped)

    def export(self):
        return {
            "name": self.name.tolist(), "start": self.start.tolist(), "end": self.end.tolist(),
            "parent": self.parent.tolist(), "op": self.op_id.tolist(), "counts": dict(self.counts),
        }

    def merge(self, data, op):
        """Append the spans of a traced child process as operation ``op``."""
        base = len(self.start)
        self.name.extend(data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.op_id.extend(op for _ in data["op"])
        self.counts.update(data["counts"])

    def layer_totals(self):
        """{span name: calls} and {span name: self seconds}, each for the
        set-up spans (operation id -1) and for the operations' spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        setup = (Counter(), Counter())
        ops = (Counter(), Counter())
        for i in range(n):
            calls, self_s = setup if self.op_id[i] < 0 else ops
            nm = NAMES[self.name[i]]
            calls[nm] += 1
            self_s[nm] += self.end[i] - self.start[i] - child[i]
        return setup, ops

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    NAMES[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op_id[i]))


def layer_metrics(tracer, rounds, cli_ms):
    """Per-layer metrics per round of operations.

    Spans of the set-up (operation id -1) count once: the literals layer of
    the in-process workloads runs there, once per set-up.  ``cli_ms`` maps
    each cli.* metric to its median over the traced child processes."""
    (s_calls, s_self), (calls, self_s) = tracer.layer_totals()
    counts = tracer.counts
    out = {}
    for metric, unit, _ in PER_LAYER:
        if metric.startswith("cli."):
            value = cli_ms.get(metric, 0.0)
        elif metric.endswith(".calls") or metric.endswith(".self_s"):
            span, field = metric.rsplit(".", 1)
            per_op, once = (calls, s_calls) if field == "calls" else (self_s, s_self)
            value = per_op[span] / rounds + once[span]
        elif metric == "central.candidate_yield":
            found = counts["solver.status.single_root"] + counts["solver.status.full_class"]
            value = found / counts["central.candidates"] if counts["central.candidates"] else 0.0
        else:
            value = counts[metric] / rounds
        out[metric] = {"value": value, "unit": unit}
    return out
