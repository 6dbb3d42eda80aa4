"""One pass of a benchmark workload, in a fresh interpreter.

Usage: ``child.py SPEC RESULT SPAWN_TIME``.  SPEC is the JSON pass spec
written by ``run.py``, RESULT the path this process writes its JSON result
to, and SPAWN_TIME the parent's ``time.monotonic()`` just before it started
this process, so that set-up time includes interpreter start-up.

The child imports altschur, loads its inputs, and then runs the workload's
timed steps.  Outputs needed for the correctness checks are collected outside
the timed region and handed back to the parent, which checks them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Tuple


def _cli(name: str, argv: List[str]) -> Tuple[Dict[str, Any], str]:
    """Run one CLI command in-process; returns its step record and stdout."""
    from altschur import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    ok = code == 0
    return _step(name, elapsed, ok, "" if ok else f"exit {code}: {err.getvalue()[-2000:]}"), out.getvalue()


def _call(steps: List[Dict[str, Any]], name: str, fn: Callable[[], Any]) -> Any:
    """Time one library call as a step; a raised error fails the step."""
    start = time.perf_counter()
    try:
        value, error = fn(), ""
    except Exception:
        value, error = None, traceback.format_exc()[-2000:]
    steps.append(_step(name, time.perf_counter() - start, not error, error))
    return value


def _step(name: str, seconds: float, ok: bool, error: str = "") -> Dict[str, Any]:
    return {"name": name, "s": seconds, "ok": ok, "error": error}


# -- workloads -------------------------------------------------------------


def run_table(spec: Dict[str, Any], inputs: Any) -> Dict[str, Any]:
    cache_dir = spec["cache_dir"]
    argv = ["table", "3", "4", "--json", "--cache-dir", cache_dir]
    stale = sorted(os.listdir(cache_dir))
    build, build_out = _cli("build", argv)
    files = sorted(os.listdir(cache_dir))
    table_bytes, digest = 0, ""
    if len(files) == 1:
        path = os.path.join(cache_dir, files[0])
        table_bytes = os.path.getsize(path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    reload, reload_out = _cli("reload", argv)
    outputs = {
        "stale_files": stale,
        "cache_files": files,
        "table_sha256": digest,
        "table_bytes": table_bytes,
        "build_stdout": build_out,
        "reload_stdout": reload_out,
    }
    return {"steps": [build, reload], "outputs": outputs}


def run_verify(spec: Dict[str, Any], inputs: Any) -> Dict[str, Any]:
    steps, outputs = [], {}
    for name, argv in (
        ("verify_3_3_GF5", ["verify", "3", "3", "--field", "GF(5)", "--json"]),
        ("verify_2_6_Q", ["verify", "2", "6", "--json"]),
    ):
        step, outputs[name] = _cli(name, argv)
        steps.append(step)
    return {"steps": steps, "outputs": outputs}


def run_duality(spec: Dict[str, Any], inputs: Any) -> Dict[str, Any]:
    from altschur import koszul
    from altschur.fields import GF, QQ

    steps, outputs = [], {}
    for name, argv in (
        ("sweep_Q", ["sweep", "--n-max", "3", "--d-max", "4", "--json"]),
        ("sweep_GF5", ["sweep", "--n-max", "3", "--d-max", "4", "--field", "GF(5)", "--json"]),
    ):
        step, outputs[name] = _cli(name, argv)
        steps.append(step)
    # attributes are looked up at call time so that traced wrappers are used;
    # a step whose input failed raises and fails in turn
    module = _call(steps, "regular_smodule", lambda: koszul.regular_smodule(3, 2, QQ))
    dual = _call(steps, "koszul_dual", lambda: koszul.koszul_dual(module))
    eta = _call(steps, "eta_map", lambda: koszul.eta_map(module))
    as_module = _call(steps, "regular_as_module", lambda: koszul.regular_as_module(3, 2, GF(5)))
    pair = _call(steps, "as_module_to_pair", lambda: koszul.as_module_to_pair(as_module))
    back = _call(steps, "pair_to_as_module", lambda: koszul.pair_to_as_module(pair))

    # checks outside the timed region
    outputs["dual_dim"] = dual.dim if dual is not None else None
    outputs["eta"] = eta.to_json_dict() if eta is not None else None
    outputs["roundtrip_even_equal"] = back is not None and back.action == as_module.action
    outputs["roundtrip_odd_equal"] = back is not None and back.odd_action == as_module.odd_action
    return {"steps": steps, "outputs": outputs}


def load_products(spec: Dict[str, Any]) -> List[Tuple[Any, Any]]:
    from altschur.algebra import BasisSymbol, GradedElement
    from altschur.fields import FieldSpec
    from altschur.graphs import BipartiteGraph

    with open(spec["products_path"], "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    pairs = []
    for entry in entries:
        field = FieldSpec.from_label(entry["field"])
        x = GradedElement.from_symbol(BasisSymbol(entry["left"][0], BipartiteGraph.from_adj(entry["left"][1])), field)
        y = GradedElement.from_symbol(BasisSymbol(entry["right"][0], BipartiteGraph.from_adj(entry["right"][1])), field)
        pairs.append((x, y))
    return pairs


def canonical(element: Any) -> str:
    """Field label and sorted (parity, graph, coefficient) terms of an element."""
    f = element.field
    terms = sorted(
        (sym.parity, [list(row) for row in sym.graph.adj], f.format_scalar(c)) for sym, c in element.terms.items()
    )
    return json.dumps([f.label, terms], separators=(",", ":"))


def run_products(spec: Dict[str, Any], inputs: Any) -> Dict[str, Any]:
    from altschur import algebra

    latencies: List[float] = []
    results: List[Any] = []
    failed = 0
    errors: List[str] = []
    clock = time.perf_counter
    start = clock()
    for x, y in inputs:
        t0 = clock()
        try:
            z = algebra.multiply(x, y)
        except Exception:
            z = None
            failed += 1
            if len(errors) < 3:
                errors.append(traceback.format_exc()[-1000:])
        latencies.append(clock() - t0)
        results.append(z)
    elapsed = clock() - start
    steps = [_step("products", elapsed, failed == 0, "\n".join(errors))]
    outputs = {"results": [canonical(z) if z is not None else None for z in results]}
    return {"steps": steps, "outputs": outputs, "latencies_s": latencies, "failed_ops": failed}


WORKLOADS = {
    "table": run_table,
    "verify": run_verify,
    "duality": run_duality,
    "products": run_products,
}


def main() -> int:
    spec_path, result_path, spawn_time = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = spec["workload"]

    import numpy
    import altschur
    from altschur import algebra  # noqa: F401

    inputs = load_products(spec) if workload == "products" else None
    setup_s = time.monotonic() - spawn_time
    result: Dict[str, Any] = {"setup_s": setup_s, "numpy": numpy.__version__, "altschur": altschur.__version__}

    if spec["mode"] == "pass":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer, install

            tracer = Tracer(spec["run_id"])
            install(tracer)
            # convolve's memo grows once per miss, which gives the hit ratio
            memo = getattr(algebra, "_CONVOLVE_CACHE", None)
            memo_before = len(memo) if memo is not None else 0
        body = WORKLOADS[workload](spec, inputs)
        result.update(body)
        result["wall_s"] = sum(step["s"] for step in body["steps"])
        if tracer is not None:
            if memo is not None:
                tracer.count("algebra.convolve.memo_growth", len(memo) - memo_before)
            trace = tracer.to_json()
            with open(spec["trace_out"], "w", encoding="utf-8") as fh:
                json.dump(dict(trace, workload=workload), fh)
            result["trace"] = {k: v for k, v in trace.items() if k != "spans"}

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
