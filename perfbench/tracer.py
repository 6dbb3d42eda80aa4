"""Layer spans for altschur, installed from outside the package.

The tracer replaces public functions, methods and properties of the
``altschur`` modules with wrappers.  Every module namespace that bound the
original object is patched, so ``from .algebra import structure_constants``
in ``koszul``, ``oracle`` and ``cli`` is covered too.

Each call becomes a span with a name, start, end and parent.  All spans of one
workload run carry the same ``run_id``.  Hot call sites (``convolve``,
``structure_constants``, the graph degree properties and the like) are only
aggregated, as count, total and self time per (name, parent), so that a
table build does not write hundreds of thousands of records.  Other spans are
kept as individual records as well.  The ``fields`` module is not wrapped:
its scalar operations run hundreds of millions of times, and their cost
shows in the self time of the ``linalg`` and ``algebra`` spans that call them.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

MAX_RECORDS = 50_000

# (module, attribute path, hot): the targets the per-layer metrics read, plus
# the module constructors the duality workload calls directly.  A hot site is
# aggregated only.
TARGETS: List[Tuple[str, str, bool]] = [
    ("algebra", "convolve", True),
    ("algebra", "structure_constants", True),
    ("algebra", "multiply", True),
    ("algebra", "all_symbols", False),
    ("algebra", "build_table", False),
    ("algebra", "save_table", False),
    ("algebra", "load_table", False),
    ("graphs", "pair_sign", True),
    ("graphs", "pair_graph", True),
    ("enumeration", "enum_M", False),
    ("enumeration", "enum_N", False),
    ("enumeration", "words_with_content", True),
    ("oracle", "operator_matrix", False),
    ("oracle", "verify_table", False),
    ("linalg", "ExactMatrix.__matmul__", True),
    ("linalg", "ExactMatrix.rank", False),
    ("linalg", "SparseEchelon.add_row", True),
    ("linalg", "sparse_kernel", False),
    ("linalg", "QuotientSpace.__init__", False),
    ("linalg", "QuotientSpace.project", True),
    ("linalg", "modp_rank_dense", False),
    ("koszul", "phi_analysis", False),
    ("koszul", "psi_analysis", False),
    ("koszul", "koszul_dual", False),
    ("koszul", "eta_map", False),
    ("koszul", "pair_to_as_module", False),
    ("koszul", "as_module_to_pair", False),
    ("koszul", "regular_smodule", False),
    ("koszul", "regular_as_module", False),
    ("koszul", "SModule.__post_init__", False),
    ("koszul", "ASModule.__post_init__", False),
    ("cli", "main", False),
]

# Properties counted on every read, without a span: about 1.6 million reads
# per table build make timing them cost more than they do.
DEGREE_PROPERTIES = ("degree", "upper_degrees", "lower_degrees")


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name: str, span_id: int):
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Collects spans and counters for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: List[_Frame] = []
        # (name, parent name) -> [count, total seconds, self seconds]
        self.agg: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.records: List[Tuple[int, Optional[int], str, float, float]] = []
        self.dropped_records = 0
        self.root_s = 0.0
        self.counters: Dict[str, float] = {}
        self.degree_reads = [0]
        self.missing: List[str] = []
        self._next_id = 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        hot: bool,
        label: Optional[Callable[[tuple, dict], str]] = None,
        before: Optional[Callable[[tuple, dict], Tuple[tuple, dict]]] = None,
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> Callable:
        stack, agg, records = self.stack, self.agg, self.records
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name if label is None else label(args, kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = _Frame(span_name, tracer._next_id)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is None:
                    tracer.root_s += dur
                    parent_name = None
                else:
                    parent.child_s += dur
                    parent_name = parent.name
                slot = agg.get((span_name, parent_name))
                if slot is None:
                    agg[(span_name, parent_name)] = [1, dur, dur - frame.child_s]
                else:
                    slot[0] += 1
                    slot[1] += dur
                    slot[2] += dur - frame.child_s
                if not hot:
                    if len(records) < MAX_RECORDS:
                        records.append(
                            (frame.span_id, parent.span_id if parent else None, span_name, start, end)
                        )
                    else:
                        tracer.dropped_records += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return functools.update_wrapper(wrapper, fn)

    def to_json(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "aggregates": [
                {"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "spans": [
                {"run_id": self.run_id, "id": i, "parent": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in self.records
            ],
            "dropped_spans": self.dropped_records,
            "root_s": self.root_s,
            "missing_targets": self.missing,
            "counters": dict(self.counters, **{"graphs.degree.calls": self.degree_reads[0]}),
        }


def _field_suffix(field: Any) -> str:
    return field.label.replace("(", "").replace(")", "")


class _CountingRows:
    """Iterator over relation rows that counts how many were consumed."""

    def __init__(self, rows):
        self._it = iter(rows)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._it)
        self.n += 1
        return row


def _hooks(tracer: Tracer, qual: str) -> Dict[str, Callable]:
    """Per-target label and counter hooks."""
    if qual == "algebra.convolve":
        def after(result, args, kwargs):
            tracer.count("algebra.convolve.useful", 1 if result else 0)
        return {"after": after}
    if qual == "linalg.SparseEchelon.add_row":
        def after(result, args, kwargs):
            tracer.count("linalg.SparseEchelon.add_row.useful", 1 if result else 0)
        return {"after": after}
    if qual == "linalg.modp_rank_dense":
        def before(args, kwargs):
            args = list(args)
            if args:
                args[0] = _CountingRows(args[0])
            else:
                kwargs["relations"] = _CountingRows(kwargs["relations"])
            return tuple(args), kwargs

        def after(result, args, kwargs):
            rows = args[0] if args else kwargs["relations"]
            ncols = args[1] if len(args) > 1 else kwargs["ncols"]
            tracer.count("linalg.modp_rank_dense.rows_in", rows.n)
            tracer.count("linalg.modp_rank_dense.rank", result)
            # computed, not measured: the dense int64 echelon this rank implies
            tracer.peak("linalg.modp_rank_dense.accumulator_bytes", result * ncols * 8)
        return {"before": before, "after": after}
    if qual == "oracle.verify_table":
        def after(result, args, kwargs):
            n, d = args[0], args[1]
            size = n**d
            basis = math.comb(n * n + d - 1, d) + math.comb(n * n, d)
            tracer.count("oracle.pairs_checked", result.pairs_checked)
            # computed, not measured: one size^3 multiply-add per pair, and one
            # dense int64 operator matrix per basis symbol
            tracer.count("oracle.matmul_flops", 2 * result.pairs_checked * size**3)
            tracer.count("oracle.matrix_bytes", basis * size * size * 8)
        return {"after": after}
    if qual in ("koszul.phi_analysis", "koszul.psi_analysis"):
        def label(args, kwargs):
            field = args[2] if len(args) > 2 else kwargs["field"]
            return f"{qual}.{_field_suffix(field)}"
        return {"label": label}
    if qual == "cli.main":
        def label(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.main.{argv[0]}" if argv else "cli.main"
        return {"label": label}
    return {}


def install(tracer: Tracer) -> None:
    """Patch every altschur module namespace that binds a traced object."""
    from altschur import algebra, cli, enumeration, graphs, koszul, linalg, oracle  # noqa: F401

    modules = [m for name, m in list(sys.modules.items()) if name == "altschur" or name.startswith("altschur.")]
    for modname, path, hot in TARGETS:
        module = sys.modules[f"altschur.{modname}"]
        qual = f"{modname}.{path}"
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        orig = vars(owner).get(attr) if owner is not None else None
        if orig is None:
            # a renamed or removed target leaves its time uncovered
            tracer.missing.append(qual)
            continue
        wrapped = tracer.wrap(qual, orig, hot, **_hooks(tracer, qual))
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)

    reads = tracer.degree_reads
    graph_cls = graphs.BipartiteGraph
    for attr in DEGREE_PROPERTIES:
        prop = vars(graph_cls).get(attr)
        if not isinstance(prop, property):
            tracer.missing.append(f"graphs.BipartiteGraph.{attr}")
            continue
        fget = prop.fget

        def counted(self, _fget=fget):
            reads[0] += 1
            return _fget(self)

        setattr(graph_cls, attr, property(counted))
