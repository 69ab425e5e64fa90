"""Out-of-process tracing of the pentads layers, for the benchmark's traced run.

The tracer wraps public functions of each ``pentads`` module from the
outside: every ``pentads.*`` namespace that imported a wrapped name gets the
wrapper, and ``uninstall`` puts the originals back.  Nothing in ``src/``
knows about it.  Matrix and vector arithmetic and ``qnorm`` stay unwrapped:
they run millions of times, and their cost lands in the caller's self time.

A span is ``[name, start, end, parent, job, overhead]``: ``parent`` is the
index of the enclosing span or -1, ``job`` names the benchmark job, and
``overhead`` is the time the tracer itself spent inside the span on the
bookkeeping of its children (counting entries, recording spans), which self
time leaves out.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import importlib
import json
from fractions import Fraction
from time import perf_counter

# layer -> traced functions; "Class.method" names a method, and ALIASES maps
# a reported name to the attribute that is wrapped.
TARGETS = {
    "exact_linalg": ("rank", "rref", "kernel_basis", "solve", "solve_multi",
                     "inverse", "row_space_basis"),
    "lie": ("build_algebra", "check_form", "scalar_center_report", "trace_form"),
    "pentad": ("Representation.init", "check_standard", "PhiMap.init",
               "PhiMap.apply", "dual_representation", "box_tensor"),
    "graded": ("extend", "grading_element", "check_grading", "check_minimality",
               "GradedAlgebra.bracket", "expansions"),
    "preh": ("decide_regularity", "find_generic", "ad_on_dual", "sl2_partner",
             "module_partner_map", "verify_certificate"),
    "serialize": ("pentad_from_json", "verdict_to_json", "verdict_from_json", "dumps"),
    "catalog": ("CatalogEntry.build",),
    "cli": ("main",),
}
ALIASES = {
    "Representation.init": "Representation.__post_init__",
    "PhiMap.init": "PhiMap.__init__",
    "expansions": "_Half.expansions",
}
# counters measured at call boundaries, with their units
COUNTERS = {
    "exact_linalg.cells": "count",
    "exact_linalg.nnz": "count",
    "exact_linalg.max_entry_bits": "bits",
    "graded.candidates": "count",
    "graded.candidate_yield": "ratio",
    "preh.generic_candidates": "count",
    "preh.generic_yield": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in TARGETS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def entry_bits(x) -> int:
    """Largest numerator or denominator bit-length of a scalar."""
    if type(x) is Fraction:
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return x.bit_length()


def _scan_rows(rows) -> tuple[int, int, int]:
    """(cells, nonzeros, max entry bits) of a grid of scalars."""
    cells = nnz = bits = 0
    for row in rows:
        cells += len(row)
        for x in row:
            if x:
                nnz += 1
                b = entry_bits(x)
                if b > bits:
                    bits = b
    return cells, nnz, bits


def _result_bits(obj) -> int:
    """Max entry bits of a linear-algebra result: Matrix, vectors, SolveResult."""
    if obj is None or isinstance(obj, bool):
        return 0
    if isinstance(obj, (int, Fraction)):
        return entry_bits(obj)
    if isinstance(obj, (list, tuple)):
        return max((_result_bits(x) for x in obj), default=0)
    if hasattr(obj, "entries"):  # Matrix
        return _result_bits(obj.entries)
    if hasattr(obj, "kernel"):  # SolveResult
        return max(_result_bits(obj.solution), _result_bits(obj.kernel))
    return 0


class Tracer:
    """Spans and counters for one job; install() patches, uninstall() restores."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.counters = {"exact_linalg.cells": 0, "exact_linalg.nnz": 0,
                         "exact_linalg.max_entry_bits": 0,
                         "graded.candidates": 0, "graded.candidates_produced": 0,
                         "preh.generic_candidates": 0, "preh.generic_found": 0}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"pentads.{layer}") for layer in TARGETS}
        namespaces = [*homes.values(), importlib.import_module("pentads")]
        for layer, names in TARGETS.items():
            home = homes[layer]
            for name in names:
                attr = ALIASES.get(name, name)
                wrapper_name = f"{layer}.{name}"
                hook = getattr(self, f"_count_{layer}", None)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original,
                                self._wrap(wrapper_name, original, hook))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(wrapper_name, original, hook)
                for mod in namespaces:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, original, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack
        job = self.job

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, job, 0.0]
            stack.append(len(spans))
            spans.append(span)
            if hook is not None:
                args = hook(name, args, None)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(name, None, result)
            if parent >= 0:
                spans[parent][5] += (perf_counter() - t_enter) - (span[2] - span[1])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_exact_linalg(self, name: str, args, result):
        c = self.counters
        if args is not None:
            if name == "exact_linalg.row_space_basis":
                rows = args[0] if isinstance(args[0], (list, tuple)) else list(args[0])
                args = (rows,) + tuple(args[1:])
                grids = [rows]
            else:
                grids = [a.entries for a in args if hasattr(a, "entries")]
                grids += [[a] for a in args if isinstance(a, (list, tuple))]
            for grid in grids:
                cells, nnz, bits = _scan_rows(grid)
                c["exact_linalg.cells"] += cells
                c["exact_linalg.nnz"] += nnz
                c["exact_linalg.max_entry_bits"] = max(c["exact_linalg.max_entry_bits"], bits)
            return args
        if name == "exact_linalg.rref":
            result = result[0]  # the pivot tuple holds column indices, not entries
        c["exact_linalg.max_entry_bits"] = max(c["exact_linalg.max_entry_bits"],
                                               _result_bits(result))
        return None

    def _count_graded(self, name: str, args, result):
        if args is not None or name != "graded.extend":
            return args
        # U_{k+1} is cut out of the m * dim U_k candidate maps [x_a, u_s].
        for sign in (1, -1):
            m = result.dim(sign)
            for k in range(1, result.max_degree):
                n = result.dim(sign * k)
                if n:
                    self.counters["graded.candidates"] += m * n
                    self.counters["graded.candidates_produced"] += result.dim(sign * (k + 1))
        return None

    def _count_preh(self, name: str, args, result):
        if args is not None or name != "preh.find_generic":
            return args
        self.counters["preh.generic_candidates"] += result.attempts_used
        self.counters["preh.generic_found"] += int(result.found)
        return None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "spans": self.spans,
                       "counters": self.counters}, fh)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration, minus the part of it that its
    child spans cover, minus the tracer's own bookkeeping inside it."""
    covered: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, job, overhead in spans:
        if parent >= 0:
            covered[parent].append((start, end))
    out = []
    for (name, start, end, parent, job, overhead), kids in zip(spans, covered):
        busy, cursor = 0.0, start
        for s, e in sorted(kids):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                busy += e - s
                cursor = e
        out.append(max(0.0, end - start - busy - overhead))
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Wall time per span name, counting a recursive call once."""
    out: dict[str, float] = {}
    for name, start, end, parent, job, overhead in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics summed over the per-job trace documents."""
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    counters: dict[str, int] = {}
    for doc in traces:
        spans = doc["spans"]
        for span, t in zip(spans, self_times(spans)):
            calls[span[0]] = calls.get(span[0], 0) + 1
            selfs[span[0]] = selfs.get(span[0], 0.0) + t
        for key, value in doc["counters"].items():
            if key.endswith("max_entry_bits"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    out: dict[str, float] = {}
    for layer, names in TARGETS.items():
        total = 0.0
        for name in names:
            full = f"{layer}.{name}"
            out[f"{full}.calls"] = calls.get(full, 0)
            out[f"{full}.self_s"] = selfs.get(full, 0.0)
            total += out[f"{full}.self_s"]
        out[f"{layer}.self_s"] = total
    for key in ("exact_linalg.cells", "exact_linalg.nnz", "exact_linalg.max_entry_bits",
                "graded.candidates", "preh.generic_candidates"):
        out[key] = counters.get(key, 0)
    out["graded.candidate_yield"] = ratio(counters.get("graded.candidates_produced", 0),
                                          counters.get("graded.candidates", 0))
    out["preh.generic_yield"] = ratio(counters.get("preh.generic_found", 0),
                                      counters.get("preh.generic_candidates", 0))
    return out
