"""Per-layer tracing from outside the program.

The layers are qproj's modules.  `Tracer.install` wraps every public function
of each layer module on every binding of its name (modules import functions
by name, so `gtrep.q_int` and `dolbeault.q_int` are both wrapped), plus the
hot class methods named in METHODS.  `Tracer.uninstall` puts every original
back.  Nothing under src/qproj is edited.

Each wrapped call is timed on a stack, so a call's self time is its duration
minus the time covered by the wrapped calls it made.  Calls of the functions
in AGGREGATED (scalar-level, called up to millions of times) are folded into
counts and times only; every other call is kept as a span with name, start,
end, parent span and job id, in memory, and handed back at the end of the
pass.  Time outside every wrapped call (the bench's own code) belongs to no
layer; `cli.main` is wrapped, so a job's whole run is one root span and the
per-layer self times of a job sum to its root span's duration.
"""

import functools
import statistics
import sys
import time
from collections import defaultdict

import mpmath

LAYERS = ("qarith", "linalg", "gtrep", "bundles", "dolbeault", "coordring",
          "cocycle", "cli")

# (module, class, attribute) -> metric name of the method.
METHODS = {
    ("qarith", "QLaurent", "__mul__"): "qarith.mul",
    ("qarith", "QLaurent", "eval"): "qarith.eval",
    ("linalg", "SparseMatrix", "__matmul__"): "linalg.matmul",
    ("linalg", "SparseMatrix", "__add__"): "linalg.addsub",
    ("linalg", "SparseMatrix", "__sub__"): "linalg.addsub",
    ("coordring", "TruncatedPolynomialAlgebra", "product"): "coordring.product",
}

AGGREGATED = {
    "qarith.mul", "qarith.eval", "qarith.q_int", "qarith.guarded_sqrt",
    "qarith.parse_q", "qarith.check_precision", "qarith.q_factorial",
    "qarith.q_binomial", "qarith.q_multinomial",
    "gtrep.raise_coeff", "gtrep.apply_e", "gtrep.apply_f", "gtrep.weight_exponent",
    "gtrep.validate_weight", "gtrep.top_row", "gtrep.weyl_dim",
    "linalg.addsub", "coordring.product", "coordring.normal_order",
    "coordring.inversion_count", "coordring.monomials", "coordring.graded_dim",
    "coordring.format_monomial", "coordring.factorization_exponent",
    "cocycle.b_sigma.eval", "cocycle.lambda_sigma", "cocycle.flip_neighbors",
    "cocycle.is_flip_adjacent",
}


def _owners():
    """Every qproj module and the classes named in METHODS."""
    mods = [sys.modules["qproj"]] + [sys.modules["qproj." + name] for name in LAYERS]
    return mods + [getattr(sys.modules["qproj." + m], c) for m, c, _a in METHODS]


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class _Frame:
    """A wrapped call in progress: time covered by its wrapped calls, its span."""
    __slots__ = ("child", "span")

    def __init__(self, span):
        self.child = 0.0
        self.span = span


class Tracer:
    """Installs the wrappers, keeps the spans and the per-function tallies."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.margin_min = None
        self.hook_s = 0.0
        self.spans = []
        self.job = None
        self._stack = []
        self._restore = []
        self.leftover = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {name: sys.modules["qproj." + name] for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for name, fn in _public_functions(mod):
                traced = "%s.%s" % (layer, name)
                originals[id(fn)] = (fn, self._wrap(fn, traced, _BEFORE.get(traced),
                                                    _AFTER.get(traced)))
        # Every binding of a wrapped function, in every qproj module.
        for mod in [sys.modules["qproj"]] + list(mods.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._set(mod, name, originals[id(obj)][1])
        for (layer, cls_name, attr), metric in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            self._set(cls, attr, self._wrap(vars(cls)[attr], metric, _BEFORE.get(metric),
                                            _AFTER.get(metric)))

    def _set(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
        self.leftover = sorted(
            "%s.%s" % (getattr(owner, "__name__", owner), name)
            for owner in _owners() for name, obj in vars(owner).items()
            if getattr(obj, "_traced_name", None))

    def begin_job(self, job_id):
        self.job = job_id

    def end_job(self):
        """Close what an overrun alarm left open inside a wrapper's bookkeeping."""
        end = time.perf_counter()
        for frame in self._stack:
            if frame.span is not None and frame.span[3] is None:
                frame.span[3] = end
        self._stack.clear()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        """Wrap fn; `before(tracer, args)` and `after(tracer, result)` are the
        counting hooks.  They run outside the timed interval: their time is
        tallied in hook_s and belongs to no function, not even the caller."""
        keep_span = name not in AGGREGATED
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook = 0.0
            if before:
                t = clock()
                before(self, args)
                hook = clock() - t
            start = clock()
            span = None
            if keep_span:
                parent = next((f.span for f in reversed(stack) if f.span is not None), None)
                span = [len(self.spans), name, start, None,
                        parent[0] if parent else None, self.job]
                self.spans.append(span)
            frame = _Frame(span)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame.child
                if span is not None:
                    span[3] = end
                self.hook_s += hook
                if stack:
                    stack[-1].child += dur + hook
            if after:
                result = after(self, result)
                hook = clock() - end
                self.hook_s += hook
                if stack:
                    stack[-1].child += hook
            return result

        wrapper._traced_name = name
        return wrapper

    # -- results ------------------------------------------------------------

    def report(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "margin_digits_min": self.margin_min,
            "hook_s": self.hook_s,
            "leftover_wrappers": self.leftover,
            "spans": self.spans,
        }


# Work counts taken at the layer boundaries, from arguments before the call
# or from the returned value.

def _matmul_mults(tracer, args):
    a, b = args
    rows_b = defaultdict(int)
    for (k, _j), _v in b.entries():
        rows_b[k] += 1
    tracer.counts["linalg.matmul.mults"] += sum(rows_b[k] for (_i, k), _v in a.entries())


def _svd_cells(tracer, args):
    keys = [key for key, _v in args[0].entries()]
    tracer.counts["linalg.svd_cells"] += (len({i for i, _j in keys})
                                          * len({j for _i, j in keys}))


def _rank_result(tracer, res):
    tracer.counts["linalg.rank.ill_conditioned"] += bool(res.ill_conditioned)
    if res.threshold:
        for s in res.sigmas:
            if s:
                m = float(abs(mpmath.log10(s / res.threshold)))
                if tracer.margin_min is None or m < tracer.margin_min:
                    tracer.margin_min = m
    return res


def _tableaux(tracer, res):
    tracer.counts["gtrep.tableaux"] += len(res)
    return res


def _irrep_nnz(tracer, mod):
    tracer.counts["gtrep.nnz"] += sum(m.nnz for ops in (mod.K, mod.E, mod.F)
                                      for m in ops.values())
    return mod


def _block(tracer, block):
    tracer.counts["bundles.section_tableaux"] += len(block.section_basis)
    tracer.counts["bundles.enumerated_tableaux"] += block.free_dim
    return block


def _euler_blocks(tracer, res):
    tracer.counts["dolbeault.blocks"] += len(res.blocks)
    return res


def _b_sigma(tracer, closure):
    # The returned closure is the cochain evaluation; count and time it too.
    return tracer._wrap(closure, "cocycle.b_sigma.eval")


_BEFORE = {
    "linalg.matmul": _matmul_mults,
    "linalg.numeric_rank": _svd_cells,
}

_AFTER = {
    "linalg.numeric_rank": _rank_result,
    "gtrep.enumerate_tableaux": _tableaux,
    "gtrep.build_irrep": _irrep_nnz,
    "bundles.build_block": _block,
    "dolbeault.cp1_euler_characteristic": _euler_blocks,
    "cocycle.b_sigma": _b_sigma,
}


# -- per-layer metrics, computed by the parent from traced passes -----------

# Two kinds of metric: counts, which repeat exactly from run to run, and
# time shares of the traced job wall time (`.self_pct` for self time, `.pct`
# for inclusive time: the call and everything it called).

# metric -> the call tally (of a wrapped name) or the work count it reports.
COUNT_METRICS = {
    "qarith.mul.calls": "qarith.mul",
    "qarith.q_int.calls": "qarith.q_int",
    "qarith.eval.calls": "qarith.eval",
    "gtrep.raise_coeff.calls": "gtrep.raise_coeff",
    "gtrep.tableaux": "gtrep.tableaux",
    "gtrep.nnz": "gtrep.nnz",
    "linalg.matmul.calls": "linalg.matmul",
    "linalg.matmul.mults": "linalg.matmul.mults",
    "linalg.numeric_rank.calls": "linalg.numeric_rank",
    "linalg.svd_cells": "linalg.svd_cells",
    "linalg.rank.ill_conditioned": "linalg.rank.ill_conditioned",
    "bundles.build_block.calls": "bundles.build_block",
    "dolbeault.blocks": "dolbeault.blocks",
    "coordring.product.calls": "coordring.product",
    "coordring.normal_order.calls": "coordring.normal_order",
    "cocycle.b_sigma.evals": "cocycle.b_sigma.eval",
}

SELF_PCT = [
    "qarith.eval", "gtrep.raise_coeff", "gtrep.enumerate_tableaux",
    "gtrep.export_matrix", "linalg.matmul", "linalg.addsub", "linalg.numeric_rank",
    "bundles.build_block", "bundles.ker_el_numeric",
    "dolbeault.cp1_euler_characteristic", "dolbeault.cp2_coefficient_identity",
    "coordring.product", "cocycle.b_sigma.eval", "cocycle.twisted_coboundary_check",
    "cocycle.build_chains", "cocycle.solve_cocycle_system", "cocycle.verify_membership",
    "cocycle.spanning_tree_edges",
]

INCLUSIVE_PCT = ["gtrep.build_irrep", "gtrep.verify_relations"]


def pass_counts(report):
    """The exact counts of one traced pass, as {metric: value}."""
    tallies = {**report["calls"], **report["counts"]}
    out = {metric: tallies.get(key, 0) for metric, key in COUNT_METRICS.items()}
    kept = report["counts"].get("bundles.section_tableaux", 0)
    enumerated = report["counts"].get("bundles.enumerated_tableaux", 0)
    out["bundles.kept_ratio"] = kept / enumerated if enumerated else 0.0
    out["linalg.rank.margin_digits_min"] = report["margin_digits_min"] or 0.0
    return out


def pass_shares(report):
    """Self and inclusive time of one traced pass, in % of its traced wall:
    the time of its jobs' root spans, less the time of the counting hooks."""
    wall = report["total_s"].get("cli.main", 0.0) - report["hook_s"]
    self_s = report["self_s"]
    out = {"trace.wall_s": wall}
    for layer in LAYERS:
        out[layer + ".self_pct"] = 100 * sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer) / wall
    for name in SELF_PCT:
        out[name + ".self_pct"] = 100 * self_s.get(name, 0.0) / wall
    for name in INCLUSIVE_PCT:
        out[name + ".pct"] = 100 * report["total_s"].get(name, 0.0) / wall
    return out


def self_check(records, report):
    """Problems with one traced pass: spans that do not nest inside their
    parent (or cross jobs), or self times that, with the counting hooks'
    time, do not sum to the root spans."""
    problems = ["wrapper left installed: %s" % name for name in report["leftover_wrappers"]]
    spans = report["spans"]
    for sid, name, start, end, parent, job in spans:
        if end is None or end < start:
            problems.append("span %d (%s) has no valid end" % (sid, name))
        elif parent is not None:
            p = spans[parent]
            if not (p[2] <= start and end <= p[3]) or p[5] != job:
                problems.append("span %d (%s) escapes its parent %d (%s)"
                                % (sid, name, parent, p[1]))
    roots = [s for s in spans if s[4] is None]
    if any(s[1] != "cli.main" for s in roots):
        problems.append("a root span is not cli.main")
    root_s = sum(s[3] - s[2] for s in roots)
    self_sum = sum(report["self_s"].values())
    if abs(self_sum + report["hook_s"] - root_s) > 1e-6 * max(1.0, root_s):
        problems.append("self times sum to %.9f s and hooks to %.9f s, root spans to %.9f s"
                        % (self_sum, report["hook_s"], root_s))
    job_s = sum(r["seconds"] for r in records)
    if not root_s <= job_s:
        problems.append("root spans (%.6f s) exceed the timed jobs (%.6f s)" % (root_s, job_s))
    return problems


def per_layer_names():
    """(metric, unit) of every per-layer metric, in report order."""
    return ([(metric, "count") for metric in COUNT_METRICS]
            + [("bundles.kept_ratio", "ratio"), ("linalg.rank.margin_digits_min", "digits"),
               ("trace.wall_s", "s")]
            + [(layer + ".self_pct", "%") for layer in LAYERS]
            + [(name + ".self_pct", "%") for name in SELF_PCT]
            + [(name + ".pct", "%") for name in INCLUSIVE_PCT]
            + [("trace.overhead", "ratio")])


def layer_metrics(traced, untraced_walls):
    """Per-layer metrics {name: (value, unit)} from traced passes
    [(job records, tracer report)], and the self-check's problems."""
    problems = []
    counts = [pass_counts(report) for _records, report in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between traced passes: %s" % counts)
    for i, (records, report) in enumerate(traced):
        problems += ["traced pass %d: %s" % (i, p) for p in self_check(records, report)]
    values = dict(counts[0])
    shares = [pass_shares(report) for _records, report in traced]
    for name in shares[0]:
        values[name] = statistics.median(s[name] for s in shares)
    traced_wall = statistics.median(sum(r["seconds"] for r in records if not r["overrun"])
                                    for records, _report in traced)
    values["trace.overhead"] = traced_wall / statistics.median(untraced_walls)
    return {name: (values[name], unit) for name, unit in per_layer_names()}, problems
