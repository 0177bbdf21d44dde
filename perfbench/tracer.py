"""Spans and counters around liechar's public functions, from outside.

The tracer wraps each function where it is looked up: a name bound into
several modules by ``from .x import y`` is replaced in every ``liechar``
module that holds it, and methods are replaced on their class.  Three kinds
of wrapper exist:

* a span records name, parent span, start and end;
* a leaf is a span too hot to keep one record per call (coefficient
  products, nullspace row reductions); its calls and time are summed per
  (parent span, name);
* a counter only counts calls (``RootSystem.inner``, ~46k calls on D6).

Spans stay in memory and are written as JSON lines by ``write`` when the
timed call ends.  ``layer_totals`` turns such files into per-layer self
times and counts: a span's self time is its duration minus the time its
child spans and leaves cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute) of each function wrapped under it.
SPANS = {
    "rootsys.orbit_signed": [("rootsys", "RootSystem.weyl_orbit_signed")],
    "rootsys.orbit": [("rootsys", "RootSystem.weyl_orbit")],
    "rootsys.dominant_weights": [("rootsys", "RootSystem.dominant_weights_in_root_lattice")],
    "rootsys.build": [("rootsys", "RootSystem.__init__")],
    "characters.finite_char": [("characters", "finite_char")],
    "characters.inv_d": [("characters", "denominator_inverse")],
    "characters.weyl_module": [("characters", "weyl_module_char")],
    "characters.walgebra": [("characters", "walgebra_module_char")],
    "characters.level_one": [("characters", "level_one_char")],
    "characters.theta": [("characters", "lattice_theta")],
    "qseries.series_mul": [("qseries", "GradedCharacter.mul")],
    "qseries.pochhammer": [("qseries", "pochhammer_inverse"), ("qseries", "pochhammer_finite")],
    "qseries.compare": [("qseries", "series_equal")],
    "levels.verify": [("levels", "verify_gko"), ("levels", "verify_kw")],
    "levels.assemble": [("levels", "assemble_coset_character")],
    "levels.rhs": [("levels", "coset_rhs_character")],
    "levels.kw_lhs": [("levels", "kw_lhs_character")],
    "finite_lie.structure": [("finite_lie", "chevalley_structure"), ("finite_lie", "takiff")],
    "finite_lie.forms": [("finite_lie", "invariant_forms")],
    "finite_lie.hom_dim": [("finite_lie", "equivariant_hom_dim")],
    "finite_lie.classify": [("finite_lie", "classify_extension")],
}

LEAVES = {
    "qseries.coeff_mul": [
        ("qseries", "GroupRingContext.mul"),
        ("qseries", "TrivialContext.mul"),
        ("qseries", "RayContext.mul"),
    ],
    "linalg.nullspace": [("linalg", "SparseNullspace.add_row"), ("linalg", "SparseNullspace.nullspace")],
}

COUNTED = {"rootsys.inner_calls": ("rootsys", "RootSystem.inner")}

# Span names whose dominant-weight list is the verifier's lambda-summands.
SUMMAND_PARENTS = ("levels.assemble", "levels.kw_lhs")


def _terms(c) -> int:
    return len(c.terms) if hasattr(c, "terms") else 1


class Tracer:
    """Records the spans of one case execution in one process."""

    def __init__(self, case_id: str, requested_order):
        self.case = case_id
        self.requested_order = requested_order
        self.spans = []  # [id, name, parent id or None, start, end, attrs]
        self.stack = []
        self.leaves = {}  # (parent id, name) -> [calls, seconds]
        self.counts = Counter()
        self.peaks = Counter()
        self.finite_char_keys = set()
        self._after = {
            "rootsys.orbit_signed": lambda rec, a, out: self._add("rootsys.orbit_signed_elems", len(out)),
            "rootsys.orbit": lambda rec, a, out: self._add("rootsys.orbit_elems", len(out)),
            "rootsys.dominant_weights": self._after_dominant,
            "characters.finite_char": lambda rec, a, out: self.finite_char_keys.add(
                (a[0].type_label, tuple(a[1]))
            ),
            "qseries.series_mul": lambda rec, a, out: self._peak("qseries.peak_series_terms", len(out.terms)),
            "qseries.coeff_mul": lambda rec, a, out: self._peak("qseries.peak_coeff_terms", _terms(out)),
            "qseries.compare": self._after_compare,
        }

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, after = self.spans, self.stack, self._after.get(name)

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, stack[-1] if stack else None, time.perf_counter(), None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(rec, args, out)
            return out

        return wrapper

    def _leaf(self, name, fn):
        leaves, stack, after = self.leaves, self.stack, self._after.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            key = (stack[-1] if stack else None, name)
            acc = leaves.get(key)
            if acc is None:
                leaves[key] = [1, dt]
            else:
                acc[0] += 1
                acc[1] += dt
            if after is not None:
                after(None, args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- what each wrapped call records ------------------------------------

    def _add(self, key, n):
        self.counts[key] += n

    def _peak(self, key, n):
        if n > self.peaks[key]:
            self.peaks[key] = n

    def _after_dominant(self, rec, args, out):
        parent = rec[2]
        if parent is not None and self.spans[parent][1] in SUMMAND_PARENTS:
            self.counts["levels.summands"] += len(out)

    def _after_compare(self, rec, args, out):
        # series_equal compares only exponents up to min(order_f, order_g).
        f, g = args[0], args[1]
        through = min(f.order, g.order)
        exps = {e for e in f.terms if e <= through} | {e for e in g.terms if e <= through}
        compared = len(exps) if out is None else sum(1 for e in exps if e <= out[0])
        rec[5] = {"lhs_order": str(f.order), "rhs_order": str(g.order), "compared": compared}
        self.counts["qseries.coefficients_compared"] += compared
        if through < self.requested_order:
            self.counts["qseries.compared_short"] += 1

    def _add_row(self, fn):
        counts = self.counts

        def add_row(ns, row):
            before = len(ns.pivot_rows)
            fn(ns, row)
            counts["linalg.rows_added"] += 1
            counts["linalg.rows_kept"] += len(ns.pivot_rows) - before

        return add_row

    # -- installation and output ---------------------------------------------

    def install(self) -> None:
        """Replace every wrapped function in the imported liechar modules."""
        plan = [(n, t, self._span) for n, ts in SPANS.items() for t in ts]
        plan += [(n, t, self._leaf) for n, ts in LEAVES.items() for t in ts]
        plan += [(n, t, self._counter) for n, t in COUNTED.items()]
        for name, (module, attr), make in plan:
            wrapped = make(name, _resolve(module, attr))
            if attr == "SparseNullspace.add_row":
                wrapped = self._add_row(wrapped)
            _replace(module, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, parent, start, end, attrs in self.spans:
                rec = {"kind": "span", "case": self.case, "id": sid, "name": name,
                       "parent": parent, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
            for (parent, name), (calls, seconds) in self.leaves.items():
                fh.write(json.dumps({"kind": "leaf", "case": self.case, "name": name,
                                     "parent": parent, "calls": calls, "seconds": seconds}) + "\n")
            counts = dict(self.counts)
            counts["characters.finite_char_distinct"] = len(self.finite_char_keys)
            fh.write(json.dumps({"kind": "counters", "case": self.case,
                                 "counts": counts, "peaks": dict(self.peaks)}) + "\n")


def _resolve(module: str, attr: str):
    obj = sys.modules[f"liechar.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _replace(module: str, attr: str, wrapped) -> None:
    if "." in attr:
        cls_name, meth = attr.split(".")
        setattr(getattr(sys.modules[f"liechar.{module}"], cls_name), meth, wrapped)
        return
    original = _resolve(module, attr)
    for name, mod in list(sys.modules.items()):
        if (name == "liechar" or name.startswith("liechar.")) and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def layer_totals(paths):
    """Sum self time and calls per span name, and the counters, over span files.

    Returns (self_seconds, calls, counts, peaks), each a dict keyed by name.
    """
    self_s, calls, counts, peaks = defaultdict(float), Counter(), Counter(), Counter()
    for path in paths:
        spans, covered = [], defaultdict(float)
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                kind = rec["kind"]
                if kind == "span":
                    spans.append(rec)
                    if rec["parent"] is not None:
                        covered[rec["parent"]] += rec["end"] - rec["start"]
                elif kind == "leaf":
                    self_s[rec["name"]] += rec["seconds"]
                    calls[rec["name"]] += rec["calls"]
                    if rec["parent"] is not None:
                        covered[rec["parent"]] += rec["seconds"]
                else:
                    counts.update(rec["counts"])
                    for k, v in rec["peaks"].items():
                        peaks[k] = max(peaks[k], v)
        for rec in spans:
            self_s[rec["name"]] += rec["end"] - rec["start"] - covered[rec["id"]]
            calls[rec["name"]] += 1
    return self_s, calls, counts, peaks
