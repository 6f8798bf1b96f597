"""Spans and counts around the layers of coarsecoh, recorded from outside.

``Tracer.install()`` wraps the public functions and methods listed in
``LAYERS``.  A function that other modules import by name is rebound in
every ``coarsecoh`` module that holds it, since a call looks the name up
in the caller's module.  Each call records a span (name, job, start, end,
parent); spans stay in memory until ``write_spans`` after the pass.  Some
layers also feed counts, computed from arguments and results outside the
span's own time.  Degree arithmetic is only counted, never spanned: it
runs millions of times and a span per call would swamp the trace.

``metrics()`` turns spans and counts into the per-layer metrics.  A
span's self time is its duration minus the time its direct children
cover, and minus the time the tracer spent computing counts inside it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from collections import Counter
from time import perf_counter

SEEN_ATTR = "_perfbench_seen"


def _distinct(prefix: str, key_of):
    """Count calls whose key this object has not been asked for before."""

    def observe(counts, args, result):
        obj = args[0]
        seen = obj.__dict__.setdefault(SEEN_ATTR + "_" + prefix, set())
        key = key_of(args)
        if key not in seen:
            seen.add(key)
            counts[prefix + ".distinct"] += 1

    return observe


def _rref_shape(counts, args, result):
    rows, ncols = args[0], args[1]
    counts["linalg.rref.entries"] += len(rows) * ncols
    counts["linalg.rref.nnz"] += sum(1 for r in rows for x in r if x)
    counts.max("linalg.rref.max_rows", len(rows))
    counts.max("linalg.rref.max_cols", ncols)


def _limit_stages(counts, args, result):
    counts["linalg.limit.stages"] += len(args[0])


def _taylor_summands(counts, args, result):
    counts["homres.taylor.summands"] += sum(len(b) for b in result.basis)


def _torsion_stage(counts, args, result):
    counts.max("localcoh.torsion.max_stage", result.global_index)


def _fiber_cells(counts, args, result):
    counts["coarsen.fiber_sum.cells"] += len(args[0].window)


# (span name, module, attribute path, observer or None)
LAYERS = (
    ("scenario.parse", "scenario", "parse_scenario", None),
    ("ringcore.monomials", "ringcore", "GradedPolynomialRing.monomials_of_degree",
     _distinct("ringcore.monomials", lambda a: a[1])),
    ("ringcore.component", "ringcore", "ComponentSpace.__init__", None),
    ("ringcore.mult_matrix", "ringcore",
     "GradedModulePresentation.multiplication_matrix",
     _distinct("ringcore.mult_matrix", lambda a: (a[1].key(), a[2]))),
    ("ringcore.ideal_power", "ringcore", "MonomialIdeal.power", None),
    ("linalg.rref", "linalg", "rref", _rref_shape),
    ("linalg.nullspace", "linalg", "nullspace", None),
    ("linalg.limit", "linalg", "DirectedLimit.of", _limit_stages),
    ("homres.taylor", "homres", "taylor_complex", _taylor_summands),
    ("homres.tower", "homres", "PowerTower.__init__", None),
    ("homres.ext_limit", "homres", "ext_limit_at_degree", None),
    ("homres.ext_subquotient", "homres", "ext_subquotient", None),
    ("homres.hom", "homres", "GradedHomSpace.__init__", None),
    ("localcoh.cech_degree", "localcoh", "CechAtDegree.__init__", None),
    ("localcoh.torsion", "localcoh", "torsion_submodule", _torsion_stage),
    ("localcoh.transform_check", "localcoh", "check_transform_sequence", None),
    ("coarsen.fiber_sum", "coarsen", "coarsen_table", _fiber_cells),
    ("coarsen.commute", "coarsen", "check_commutation", None),
    ("coarsen.coarse_cert", "coarsen", "derive_coarse_certificate", None),
    ("monoidx.counterexample", "monoidx", "counterexample_report", None),
    ("cli.main", "cli", "main", None),
)

DEGREE_OPS = (
    ("Degree", "__add__"),
    ("Degree", "__sub__"),
    ("Degree", "scale"),
    ("DegreeGroup", "degree"),
)

# Per-layer metrics the traced run reports, in order: (name, unit).
SELF_TIMED = [name for name, *_ in LAYERS if name != "scenario.parse"]
CALL_COUNTED = (
    "ringcore.monomials", "ringcore.component", "ringcore.mult_matrix",
    "ringcore.ideal_power", "linalg.rref", "linalg.nullspace", "linalg.limit",
    "homres.taylor", "homres.ext_limit", "homres.ext_subquotient",
    "localcoh.cech_degree", "coarsen.fiber_sum",
)
EXTRA_COUNTS = (
    "grading.degree_ops",
    "ringcore.monomials.distinct", "ringcore.mult_matrix.distinct",
    "linalg.rref.entries", "linalg.rref.nnz",
    "linalg.rref.max_rows", "linalg.rref.max_cols",
    "linalg.limit.stages", "homres.taylor.summands", "homres.tower.builds",
    "localcoh.torsion.max_stage", "coarsen.fiber_sum.cells",
)
METRICS = (
    [("scenario.parse_s", "s"), ("trace.overhead_s", "s")]
    + [(n + ".self_s", "s") for n in SELF_TIMED]
    + [(n + ".calls", "count") for n in CALL_COUNTED]
    + [(n, "count") for n in EXTRA_COUNTS]
)


class _Counts(Counter):
    def max(self, key, value):
        if value > self[key]:
            self[key] = value


class Tracer:
    def __init__(self):
        self.job = None
        self.spans: list[list] = []  # [name, job, start, end, parent index]
        self.covered: list[float] = []  # per span: children plus bookkeeping
        self.stack: list[int] = []
        self.counts = _Counts()
        self.degree_ops = [0]

    def install(self):
        """Wrap every layer of the imported coarsecoh package."""
        import coarsecoh

        modules = [coarsecoh] + [
            importlib.import_module("coarsecoh." + info.name)
            for info in pkgutil.iter_modules(coarsecoh.__path__)
        ]
        for name, module, path, observe in LAYERS:
            owner = importlib.import_module("coarsecoh." + module)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, observe)
            if cls_path:
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        grading = importlib.import_module("coarsecoh.grading")
        for cls_name, attr in DEGREE_OPS:
            cls = getattr(grading, cls_name)
            setattr(cls, attr, self._count(getattr(cls, attr)))

    def _count(self, fn):
        ops = self.degree_ops

        def counted(*args, **kwargs):
            ops[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn, observe):
        spans, covered, stack, counts = self.spans, self.covered, self.stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, self.job, 0.0, 0.0, parent]
            spans.append(span)
            covered.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span[2], span[3] = start, end
                if parent >= 0:
                    covered[parent] += end - start
            if observe is not None:
                observe(counts, args, result)
                if parent >= 0:
                    covered[parent] += perf_counter() - end
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer totals over every span and count recorded so far,
        except trace.overhead_s, which the caller fills in."""
        out = {name: 0 for name, _ in METRICS}
        out.update({n + ".self_s": 0.0 for n in SELF_TIMED})
        out["scenario.parse_s"] = 0.0
        for (name, _, start, end, _), cov in zip(self.spans, self.covered):
            if name == "scenario.parse":
                out["scenario.parse_s"] += end - start
            else:
                out[name + ".self_s"] += end - start - cov
            if name in CALL_COUNTED:
                out[name + ".calls"] += 1
            elif name == "homres.tower":
                out["homres.tower.builds"] += 1
        for key, value in self.counts.items():
            out[key] = value
        out["grading.degree_ops"] = self.degree_ops[0]
        return out

    def write_spans(self, path):
        """One JSON object per span; parent is an index into the file."""
        with open(path, "w") as fh:
            for name, job, start, end, parent in self.spans:
                fh.write(json.dumps(
                    {"name": name, "job": job, "start": start, "end": end,
                     "parent": parent}) + "\n")
