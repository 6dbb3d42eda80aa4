"""Benchmark for altschur: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Workloads (inputs and expected facts are in ``perfbench/workloads.json``):

* ``table``: ``altschur table 3 4 --json`` into an empty cache dir, then the
  same command again, which loads the cache file.
* ``verify``: ``altschur verify 3 3 --field GF(5) --json``, then
  ``altschur verify 2 6 --json``.
* ``products``: a fixed pool of 2,500 basis products at (3,8), (3,9), (4,6)
  and (4,7), each through ``multiply``, in an order drawn from ``--seed``.
* ``duality``: ``altschur sweep --n-max 3 --d-max 4`` over Q and then GF(5),
  ``koszul_dual`` and ``eta_map`` on ``regular_smodule(3, 2, QQ)``, and the
  ``as_module_to_pair`` / ``pair_to_as_module`` round trip on
  ``regular_as_module(3, 2, GF(5))``.

Load shape: a closed loop with one caller.  Each pass runs every step of the
workload in sequence, single-threaded, in a fresh child process
(``child.py``).  With ``--trace 0`` the run repeats passes until the next one
would end after ``--seconds``, adds set-up-only children, and reports medians
of the end-to-end metrics.  With ``--trace 1`` it runs one untraced pass and
one traced pass, and reports the per-layer metrics; the difference of their
wall times is the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name with its unit, plus the interpreter and numpy versions and
``nproc``.  Exit code 0 on a correct run, 1 when a check failed, and 2 when
the checkout has no altschur sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed to it
SETUP_PROBES = 5  # set-up-only children per measured run
BRUTE_FORCE_PRODUCTS = 4  # products checked against the reference per run
SCRUBBED_ENV = ("ALTSCHUR_MAX_POWER", "ALTSCHUR_MAX_BASIS", "ALTSCHUR_CACHE_DIR")

UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


# -- inputs ----------------------------------------------------------------


def _composition(rng: random.Random, total: int, parts: int) -> List[int]:
    """Uniform weak composition of ``total`` into ``parts`` (stars and bars)."""
    bars = sorted(rng.sample(range(total + parts - 1), parts - 1))
    out, prev = [], -1
    for bar in bars + [total + parts - 1]:
        out.append(bar - prev - 1)
        prev = bar
    return out


def _left_graph(rng: random.Random, n: int, d: int, odd: bool) -> List[List[int]]:
    if odd:
        cells = set(rng.sample(range(n * n), d))
        return [[1 if i * n + j in cells else 0 for j in range(n)] for i in range(n)]
    flat = _composition(rng, d, n * n)
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _right_graph(rng: random.Random, n: int, col_sums: List[int], odd: bool) -> List[List[int]]:
    cols = []
    for c in col_sums:
        if odd:
            rows = set(rng.sample(range(n), c))
            cols.append([1 if i in rows else 0 for i in range(n)])
        else:
            cols.append(_composition(rng, c, n))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def product_pool() -> List[Dict[str, Any]]:
    """The fixed pool of distinct products, generated without altschur.

    Slots cycle through the cells and, every four slots, through the parity
    cases.  The right factor's lower margins equal the left factor's upper
    margins, so no product is zero for margin reasons.  A slot whose draw
    repeats an earlier product, or cannot be made simple, is skipped.
    """
    cfg = SPEC["workloads"]["products"]["inputs"]
    rng = random.Random(cfg["pool_seed"])
    cells = [tuple(c) for c in cfg["cells"]]
    cases = [(False, False), (False, True), (True, False), (True, True)]
    fields = cfg["fields"]
    seen = set()
    pool: List[Dict[str, Any]] = []
    slot = 0
    while len(pool) < cfg["pool_size"]:
        n, d = cells[slot % len(cells)]
        odd1, odd2 = cases[(slot // len(cells)) % len(cases)]
        slot += 1
        left = _left_graph(rng, n, d, odd1)
        upper = [sum(row) for row in left]
        if odd2 and max(upper) > n:
            continue
        right = _right_graph(rng, n, upper, odd2)
        key = (str(left), str(right), odd1, odd2)
        if key in seen:
            continue
        seen.add(key)
        pool.append(
            {
                "n": n,
                "d": d,
                "left": ["odd" if odd1 else "even", left],
                "right": ["odd" if odd2 else "even", right],
                "field": fields[len(pool) % len(fields)],
            }
        )
    return pool


def product_order(pool: List[Dict[str, Any]], seed: int) -> List[int]:
    """Seeded order of the pool that still alternates between the fields."""
    rng = random.Random(seed)
    fields = SPEC["workloads"]["products"]["inputs"]["fields"]
    lanes = []
    for f in fields:
        lane = [i for i, e in enumerate(pool) if e["field"] == f]
        rng.shuffle(lane)
        lanes.append(lane)
    return [i for group in zip(*lanes) for i in group]


# -- child processes ---------------------------------------------------------


def _child_env(home: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    # a stray default cache path would land here, never in the user's home
    env["HOME"] = str(home)
    return env


def run_child(work: Path, spec: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Start one child, wait for it to end, and return its result."""
    tag = f"{spec['mode']}-{spec['index']}"
    spec_path = work / f"spec-{tag}.json"
    result_path = work / f"result-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    timeout = max(1.0, deadline - time.monotonic())
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path), repr(spawn)],
            cwd=str(ROOT),
            env=_child_env(work),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"child exceeded the run's time limit ({timeout:.0f} s)"}
    if proc.returncode != 0 or not result_path.exists():
        return {"crashed": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


# -- correctness checks --------------------------------------------------------


def _basis_size(n: int, d: int) -> int:
    return math.comb(n * n + d - 1, d) + math.comb(n * n, d)


class Checks:
    """Counts the outputs checked and keeps a message for each mismatch."""

    def __init__(self) -> None:
        self.made = 0
        self.failed: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.made += 1
        if not ok:
            self.failed.append(message)


def _report(text: Optional[str]) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(text) if text else None
    except json.JSONDecodeError:
        return None


def check_table(out: Dict[str, Any], checks: Checks) -> None:
    exp = SPEC["workloads"]["table"]["expect"]
    checks.expect(not out["stale_files"], f"table: cache dir was not empty before the build: {out['stale_files']}")
    checks.expect(len(out["cache_files"]) == 1, f"table: the build should write one cache file, found {out['cache_files']}")
    checks.expect(out["build_stdout"] == out["reload_stdout"], "table: reload stdout differs from build stdout")
    report = _report(out["build_stdout"]) or {}
    symbols = _basis_size(exp["n"], exp["d"])
    for key, want in (("symbols", symbols), ("pairs", symbols * symbols), ("nonzero", exp["nonzero"])):
        checks.expect(report.get(key) == want, f"table: {key} is {report.get(key)}, expected {want}")


def check_verify(out: Dict[str, Any], checks: Checks) -> None:
    for cell in SPEC["workloads"]["verify"]["expect"]["cells"]:
        name = cell["step"]
        report = _report(out.get(name)) or {}
        suites = report.get("suites", [])
        passed = sum(1 for s in suites if s.get("ok"))
        want = cell["suites"]
        checks.expect(
            bool(report.get("ok")) and passed == len(suites) == want,
            f"verify: {name} passed {passed}/{len(suites)} suites, expected {want}/{want}",
        )
        pairs = [s.get("checks") for s in suites if s.get("name") == "oracle"]
        want_pairs = [_basis_size(cell["n"], cell["d"]) ** 2]
        checks.expect(pairs == want_pairs, f"verify: {name} oracle checked {pairs} pairs, expected {want_pairs}")


RANK_FIELDS = {
    "phi": ("tensor_dim", "phi_rank", "target_dim", "surjective", "injective", "iso"),
    "psi": ("kernel_dim", "commutant_dim", "source_dim", "iso"),
}


def check_duality(out: Dict[str, Any], checks: Checks) -> None:
    exp = SPEC["workloads"]["duality"]["expect"]
    want_cells = [(n, d) for n in range(1, exp["n_max"] + 1) for d in range(1, exp["d_max"] + 1)]
    sweeps = {}
    for name in ("sweep_Q", "sweep_GF5"):
        report = _report(out.get(name)) or {"cells": []}
        sweeps[name] = {(r["n"], r["d"]): r for r in report["cells"] if "skipped" not in r}
        checks.expect(sorted(sweeps[name]) == want_cells, f"duality: {name} analysed {sorted(sweeps[name])}, expected {want_cells}")
        for (n, d), rec in sorted(sweeps[name].items()):
            # the paper's dichotomy: psi is an isomorphism exactly when n >= d
            checks.expect(rec["psi"]["iso"] == (n >= d), f"duality: {name} psi iso at ({n},{d}) is {rec['psi']['iso']}")
    for key, rec_q in sorted(sweeps["sweep_Q"].items()):
        rec_p = sweeps["sweep_GF5"].get(key, {})
        for part, names in RANK_FIELDS.items():
            for field in names:
                q, p = rec_q[part][field], rec_p.get(part, {}).get(field)
                checks.expect(q == p, f"duality: {part}.{field} at {key} is {q} over Q, {p} over GF(5)")
    checks.expect(bool((out.get("eta") or {}).get("iso")), f"duality: eta_map(regular_smodule(3,2)) is not iso: {out.get('eta')}")
    checks.expect(out.get("roundtrip_even_equal") is True, "duality: the round trip changed the even action")
    checks.expect(out.get("roundtrip_odd_equal") is True, "duality: the round trip changed the odd action")


def products_digest(results: List[Optional[str]], order: List[int]) -> str:
    by_entry = sorted(zip(order, results))
    text = "\n".join(f"{i}\t{r}" for i, r in by_entry)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expected_scalar(value: int, field: str) -> str:
    if field == "Q":
        return f"{value}/1"
    p = int(field[3:-1])
    return f"{value % p} mod {p}"


def brute_force_products(
    pool: List[Dict[str, Any]], order: List[int], results: List[Optional[str]], seed: int, checks: Checks
) -> None:
    """Compare seeded coefficients with :mod:`reference`, outside timing.

    For each sampled product, one target is read at a random pair (S, U) with
    the margins a nonzero coefficient needs, and one at a target in the
    computed support, so zero and nonzero coefficients are both checked.
    """
    rng = random.Random(seed ^ 0x5EED)
    for pos in rng.sample(range(len(order)), BRUTE_FORCE_PRODUCTS):
        entry = pool[order[pos]]
        if results[pos] is None:
            continue
        field, terms = json.loads(results[pos])
        got = {(p, tuple(tuple(r) for r in adj)): c for p, adj, c in terms}
        left = (entry["left"][0], tuple(tuple(r) for r in entry["left"][1]))
        right = (entry["right"][0], tuple(tuple(r) for r in entry["right"][1]))
        s = reference.sorted_word(reference.column_sums(left[1]))
        odd_target = (left[0] == "odd") != (right[0] == "odd")
        pairs = []
        for _ in range(20):
            u = list(reference.sorted_word([sum(row) for row in right[1]]))
            rng.shuffle(u)
            if not odd_target or reference.pair_sign(s, tuple(u)):
                pairs.append((s, tuple(u)))
                break
        if got:
            # the standard labelling realizes the target with sign +1
            _, adj = sorted(got)[rng.randrange(len(got))]
            edges = [(i, j) for i, row in enumerate(adj, start=1) for j, m in enumerate(row, start=1) for _ in range(m)]
            pairs.append((tuple(j for _, j in edges), tuple(i for i, _ in edges)))
        for s_word, u_word in pairs:
            parity, adj, value = reference.coefficient(left, right, s_word, u_word, entry["n"])
            want = _expected_scalar(value, field)
            have = got.get((parity, adj), _expected_scalar(0, field))
            checks.expect(have == want, f"products: entry {order[pos]} has {have} at {parity}{adj}, reference {want}")


def check_products(out: Dict[str, Any], ctx: Dict[str, Any], checks: Checks, brute_force: bool) -> None:
    digest = products_digest(out["results"], ctx["order"])
    want = SPEC["workloads"]["products"]["expect"]["results_sha256"]
    checks.expect(digest == want, f"products: results digest {digest} differs from the recorded {want}")
    if brute_force:
        brute_force_products(ctx["pool"], ctx["order"], out["results"], ctx["seed"], checks)


# -- metrics -------------------------------------------------------------------


# per-layer metrics in these units are exact counts: two traced passes must agree
EXACT_UNITS = ("count", "B", "flop")

OPS_PER_PASS = {"table": 2, "verify": 2, "duality": 8}


def ops_rate(workload: str, res: Dict[str, Any]) -> float:
    """Work per second, in the unit of work that names the workload."""
    steps = {s["name"]: s["s"] for s in res["steps"]}
    if workload == "table":
        n, d = SPEC["workloads"]["table"]["expect"]["n"], SPEC["workloads"]["table"]["expect"]["d"]
        return _basis_size(n, d) ** 2 / steps["build"]
    if workload == "verify":
        pairs = sum(_basis_size(c["n"], c["d"]) ** 2 for c in SPEC["workloads"]["verify"]["expect"]["cells"])
        return pairs / res["wall_s"]
    if workload == "products":
        return len(res["latencies_s"]) / res["wall_s"]
    # phi and psi on every sweep cell over both fields, plus the six module calls
    exp = SPEC["workloads"]["duality"]["expect"]
    return (2 * 2 * exp["n_max"] * exp["d_max"] + 6) / res["wall_s"]


def end_to_end(workload: str, passes: List[Dict[str, Any]], setups: List[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_per_s": statistics.median(ops_rate(workload, p) for p in passes),
    }


def workload_extras(workload: str, passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """The metrics that apply to one workload only."""
    if workload == "table":
        return {"reload_s": statistics.median(s["s"] for p in passes for s in p["steps"] if s["name"] == "reload")}
    if workload == "products":
        cuts = statistics.quantiles([x * 1e3 for p in passes for x in p["latencies_s"]], n=100)
        return {"product_p50_ms": cuts[49], "product_p99_ms": cuts[98]}
    return {}


def _agg(trace: Dict[str, Any], pred) -> Tuple[float, float, float]:
    count = total = self_s = 0.0
    for a in trace["aggregates"]:
        if pred(a):
            count += a["count"]
            total += a["total_s"]
            self_s += a["self_s"]
    return count, total, self_s


def _named(name: str):
    return lambda a: a["name"] == name


def per_layer(workload: str, plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    trace = traced["trace"]
    counters = trace["counters"]
    m: Dict[str, float] = {}

    def calls(key: str, name: str) -> None:
        m[key] = _agg(trace, _named(name))[0]

    def self_s(key: str, name: str) -> None:
        m[key] = _agg(trace, _named(name))[2]

    def total(key: str, pred) -> None:
        m[key] = _agg(trace, pred)[1]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls("algebra.convolve.calls", "algebra.convolve")
    self_s("algebra.convolve.self_s", "algebra.convolve")
    m["algebra.convolve.useful_ratio"] = ratio(counters.get("algebra.convolve.useful", 0), m["algebra.convolve.calls"])
    growth = counters.get("algebra.convolve.memo_growth", m["algebra.convolve.calls"])
    m["algebra.convolve.hit_ratio"] = ratio(m["algebra.convolve.calls"] - growth, m["algebra.convolve.calls"])
    for fn in ("structure_constants", "multiply"):
        calls(f"algebra.{fn}.calls", f"algebra.{fn}")
        self_s(f"algebra.{fn}.self_s", f"algebra.{fn}")
    for fn in ("build_table", "save_table", "load_table"):
        self_s(f"algebra.{fn}.self_s", f"algebra.{fn}")
    m["algebra.save_table.bytes"] = plain.get("outputs", {}).get("table_bytes", 0) if workload == "table" else 0

    m["graphs.degree.calls"] = counters.get("graphs.degree.calls", 0)
    calls("graphs.pair_sign.calls", "graphs.pair_sign")
    calls("graphs.pair_graph.calls", "graphs.pair_graph")

    enum_names = {"enumeration.enum_M", "enumeration.enum_N", "algebra.all_symbols"}
    m["enumeration.enum.calls"] = _agg(trace, lambda a: a["name"] in enum_names and a["parent"] not in enum_names)[0]
    m["enumeration.enum.self_s"] = _agg(trace, lambda a: a["name"] in enum_names)[2]
    calls("enumeration.words_with_content.calls", "enumeration.words_with_content")

    calls("oracle.operator_matrix.calls", "oracle.operator_matrix")
    self_s("oracle.operator_matrix.self_s", "oracle.operator_matrix")
    self_s("oracle.verify_table.self_s", "oracle.verify_table")
    for key in ("oracle.pairs_checked", "oracle.matmul_flops", "oracle.matrix_bytes"):
        m[key] = counters.get(key, 0)

    calls("linalg.modp_rank_dense.calls", "linalg.modp_rank_dense")
    self_s("linalg.modp_rank_dense.self_s", "linalg.modp_rank_dense")
    for key in ("rows_in", "rank", "accumulator_bytes"):
        m[f"linalg.modp_rank_dense.{key}"] = counters.get(f"linalg.modp_rank_dense.{key}", 0)
    m["linalg.modp_rank_dense.useful_ratio"] = ratio(m["linalg.modp_rank_dense.rank"], m["linalg.modp_rank_dense.rows_in"])
    calls("linalg.SparseEchelon.add_row.calls", "linalg.SparseEchelon.add_row")
    self_s("linalg.SparseEchelon.add_row.self_s", "linalg.SparseEchelon.add_row")
    m["linalg.SparseEchelon.add_row.useful_ratio"] = ratio(
        counters.get("linalg.SparseEchelon.add_row.useful", 0), m["linalg.SparseEchelon.add_row.calls"]
    )
    self_s("linalg.sparse_kernel.self_s", "linalg.sparse_kernel")
    m["linalg.QuotientSpace.self_s"] = _agg(trace, lambda a: a["name"].startswith("linalg.QuotientSpace."))[2]
    calls("linalg.QuotientSpace.project.calls", "linalg.QuotientSpace.project")
    calls("linalg.ExactMatrix.matmul.calls", "linalg.ExactMatrix.__matmul__")
    self_s("linalg.ExactMatrix.matmul.self_s", "linalg.ExactMatrix.__matmul__")
    self_s("linalg.ExactMatrix.rank.self_s", "linalg.ExactMatrix.rank")

    for fn in ("phi_analysis", "psi_analysis"):
        for field in ("Q", "GF5"):
            total(f"koszul.{fn}.{field}.s", _named(f"koszul.{fn}.{field}"))
    methods = {"modp": 0, "certificate": 0, "exact": 0, "exact-fallback": 0}
    for name in ("sweep_Q", "sweep_GF5"):
        text = traced.get("outputs", {}).get(name)
        for rec in json.loads(text)["cells"] if text else []:
            for part in ("phi", "psi"):
                method = rec.get(part, {}).get("method")
                if method in methods:
                    methods[method] += 1
    for method, count in methods.items():
        m[f"koszul.method.{method}"] = count
    total("koszul.koszul_dual.s", _named("koszul.koszul_dual"))
    total("koszul.eta_map.s", _named("koszul.eta_map"))
    m["koszul.pair_roundtrip.s"] = _agg(
        trace, lambda a: a["name"] in ("koszul.as_module_to_pair", "koszul.pair_to_as_module") and a["parent"] is None
    )[1]
    m["koszul.module_validate.self_s"] = _agg(
        trace, lambda a: a["name"] in ("koszul.SModule.__post_init__", "koszul.ASModule.__post_init__")
    )[2]
    m["koszul.self_s"] = _agg(trace, lambda a: a["name"].startswith("koszul."))[2]

    for command in ("table", "verify", "sweep"):
        total(f"cli.main.{command}.s", _named(f"cli.main.{command}"))

    m["process.cpu_s"] = plain["cpu_s"]
    m["trace.coverage"] = ratio(trace["root_s"], traced["wall_s"])
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["trace.wall_s"] = traced["wall_s"]
    extras = workload_extras(workload, [plain])
    for key in ("reload_s", "product_p50_ms", "product_p99_ms"):
        m[key] = extras.get(key, 0.0)
    return m


# -- driver --------------------------------------------------------------------


CHECKERS = {"table": check_table, "verify": check_verify, "duality": check_duality}


def run(args: argparse.Namespace) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT_DIR))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path) -> int:
    workload = args.workload
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    ctx: Dict[str, Any] = {"seed": args.seed}
    base_spec: Dict[str, Any] = {"workload": workload, "run_id": work.name}
    if workload == "products":
        ctx["pool"] = product_pool()
        ctx["order"] = product_order(ctx["pool"], args.seed)
        path = work / "products.json"
        path.write_text(json.dumps([ctx["pool"][i] for i in ctx["order"]]), encoding="utf-8")
        base_spec["products_path"] = str(path)
    ops_per_pass = len(ctx["order"]) if workload == "products" else OPS_PER_PASS[workload]

    setups: List[float] = []
    errors: List[str] = []  # operations that raised, were refused or exited non-zero
    checks = Checks()
    tally = {"attempted": 0, "failed": 0, "index": 0}
    info: Dict[str, Any] = {}

    def child(mode: str, trace: bool = False) -> Dict[str, Any]:
        tally["index"] += 1
        spec = dict(base_spec, mode=mode, index=tally["index"], trace=trace)
        if workload == "table":
            cache = work / f"cache-{tally['index']}"
            cache.mkdir()
            spec["cache_dir"] = str(cache)
        if trace:
            spec["trace_out"] = str(OUT_DIR / f"trace-{workload}-seed{args.seed}.json")
        res = run_child(work, spec, deadline)
        if "crashed" in res:
            errors.append(f"{mode} child: {res['crashed']}")
        else:
            setups.append(res["setup_s"])
            info["numpy"] = res["numpy"]
        return res

    def one_pass(trace: bool, brute_force: bool) -> Optional[Dict[str, Any]]:
        res = child("pass", trace)
        tally["attempted"] += ops_per_pass
        if "crashed" in res:
            tally["failed"] += ops_per_pass
            return None
        errors.extend(f"step {step['name']} failed: {step['error']}" for step in res["steps"] if not step["ok"])
        tally["failed"] += res.get("failed_ops", sum(1 for s in res["steps"] if not s["ok"]))
        if workload == "products":
            check_products(res["outputs"], ctx, checks, brute_force)
        else:
            CHECKERS[workload](res["outputs"], checks)
        if workload == "table":
            info["table_sha256"] = res["outputs"]["table_sha256"]
        return res

    passes: List[Dict[str, Any]] = []
    if args.trace:
        plain = one_pass(trace=False, brute_force=False)
        traced = one_pass(trace=True, brute_force=True)
        again = one_pass(trace=True, brute_force=False)
        passes = [p for p in (plain, traced, again) if p]
        metrics = {}
        if len(passes) == 3:
            info["missing_targets"] = traced["trace"]["missing_targets"]
            metrics = per_layer(workload, plain, traced)
            repeat = per_layer(workload, plain, again)
            for name, value in metrics.items():
                if UNITS.get(name) in EXACT_UNITS:
                    checks.expect(repeat[name] == value, f"exact count {name} differs between traced passes: {value} vs {repeat[name]}")
    else:
        for _ in range(SETUP_PROBES):
            child("setup")
        longest = 0.0
        while True:
            t0 = time.monotonic()
            res = one_pass(trace=False, brute_force=not passes)
            if res is None:
                break
            passes.append(res)
            longest = max(longest, time.monotonic() - t0)
            now = time.monotonic()
            if now - started + longest > min(args.seconds, RUN_LIMIT_S - 10):
                break
        metrics = end_to_end(workload, passes, setups) if passes and setups else {}

    correct = bool(passes) and not errors and not checks.failed and tally["failed"] == 0
    shown = dict(metrics)
    if not args.trace and passes:
        shown.update(workload_extras(workload, passes))
    shown["correct"] = 1 - len(checks.failed) / checks.made if checks.made else 0.0
    shown["failed_ops"] = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0

    env = {
        "python": platform.python_version(),
        "numpy": info.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "checks": checks.made,
        "seed": args.seed,
        "trace": args.trace,
    }
    print(f"perfbench {workload}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if "table_sha256" in info:
        print(f"  table file sha256 {info['table_sha256']}")
    if info.get("missing_targets"):
        print(f"  not traced (absent from altschur): {' '.join(info['missing_targets'])}")
    for name, value in shown.items():
        print(f"  {name:<44} {value:>16.6g} {UNITS.get(name, 'ratio')}")
    problems = errors + checks.failed
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    record = dict(env, workload=workload, metrics=shown, problems=problems, **info)
    record["passes"] = [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "steps": p["steps"]} for p in passes]
    out = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": {k: {"value": v, "unit": UNITS.get(k, "ratio")} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "altschur" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no altschur sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
