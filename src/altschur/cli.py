"""Command-line front end.

Subcommands:

* ``enumerate``: list a graph family or the margin compositions.
* ``multiply``: product of two element JSON files, element JSON on stdout.
* ``table``: build or load the full structure-constant table, with caching.
* ``sweep``: phi/psi diagnostics over a grid of (n, d).
* ``verify``: oracle comparison plus the algebraic invariant suite.

Every command prints canonical, byte-reproducible output on stdout (cache
and progress notes go to stderr).  Exit codes: 0 success, 1 verification
failure, 2 invalid input, 3 budget refusal, 4 I/O or parse error, 5 internal
error (a ``RuntimeError`` raised by the library, other than a budget refusal).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .fields import FieldSpec
from .enumeration import (
    BudgetExceededError,
    basis_size,
    check_basis_budget,
    check_count_budget,
    check_power_budget,
    count_M,
    count_N,
    enum_Lambda,
    enum_M,
    enum_N,
)
from .algebra import (
    GradedElement,
    all_symbols,
    anti_involution,
    build_table,
    delta_checks,
    factorization_check,
    identity,
    load_table,
    multiply,
    save_table,
)
from .oracle import verify_table
from .koszul import phi_analysis, psi_analysis

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

CACHE_ENV = "ALTSCHUR_CACHE_DIR"


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_field(label: str) -> FieldSpec:
    text = label.strip().replace("(", "").replace(")", "")
    return FieldSpec.from_label(text)


def _check_cell(command: str, n: int, d: int) -> None:
    """Refuse a cell without boxes or with a negative degree as invalid input."""
    if n < 1 or d < 0:
        raise _Failure(EXIT_VALIDATION, f"{command} needs n >= 1 and d >= 0, got n = {n}, d = {d}")


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _emit_json(obj: object) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


# the size of each family that enumerate lists, checked against the basis cap
_FAMILY_SIZES: Dict[str, Callable[[int, int], int]] = {
    "M": count_M,
    "N": count_N,
    "Lambda": lambda n, d: math.comb(n + d - 1, d),
}


def cmd_enumerate(args: argparse.Namespace) -> int:
    n, d, kind = args.n, args.d, args.kind
    _check_cell("enumerate", n, d)
    check_count_budget(f"|{kind}|", _FAMILY_SIZES[kind](n, d), n, d, args.max_basis)
    if kind in ("M", "N"):
        graphs = (enum_M if kind == "M" else enum_N)(n, d)
        items: List[object] = [[list(row) for row in g.adj] for g in graphs]
        labels = [str(g) for g in graphs]
        noun = "graphs"
    else:
        items = [list(lam) for lam in enum_Lambda(n, d)]
        labels = ["[" + ",".join(str(x) for x in lam) + "]" for lam in enum_Lambda(n, d)]
        noun = "compositions"
    if args.json:
        _emit_json({"n": n, "d": d, "kind": kind, "count": len(items), "items": items})
    else:
        _emit(f"{len(items)} {noun} in {kind}({n},{d})")
        for label in labels:
            _emit(label)
    return EXIT_OK


# ---------------------------------------------------------------------------
# multiply
# ---------------------------------------------------------------------------


def _load_element(path: str) -> GradedElement:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return GradedElement.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _Failure(EXIT_IO, f"malformed element file {path}: {exc}")


def cmd_multiply(args: argparse.Namespace) -> int:
    x = _load_element(args.file_x)
    y = _load_element(args.file_y)
    check_power_budget(x.n, x.d, args.max_power)
    product = multiply(x, y)
    _emit_json(product.to_json_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _cache_dir(args: argparse.Namespace) -> str:
    if args.cache_dir:
        return args.cache_dir
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "altschur")


def cmd_table(args: argparse.Namespace) -> int:
    n, d = args.n, args.d
    _check_cell("table", n, d)
    field = _parse_field(args.field)
    check_basis_budget(n, d, args.max_basis)
    path = args.out or os.path.join(_cache_dir(args), f"table_n{n}_d{d}.json")
    if os.path.exists(path):
        try:
            stored_n, stored_d, table = load_table(path)
        except ValueError as exc:
            raise _Failure(EXIT_IO, f"cache file {path} is malformed: {exc}")
        if (stored_n, stored_d) != (n, d):
            raise _Failure(EXIT_IO, f"cache file {path} is for ({stored_n},{stored_d}), not ({n},{d})")
        _note(f"cache loaded: {path}")
    else:
        table = build_table(n, d, cap=args.max_basis)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        save_table(table, n, d, path)
        _note(f"cache written: {path}")
    counts = {"even*even": 0, "even*odd": 0, "odd*even": 0, "odd*odd": 0}
    p = field.characteristic
    for (a, b), terms in table.items():
        case = f"{'odd' if a.is_odd else 'even'}*{'odd' if b.is_odd else 'even'}"
        counts[case] += sum(1 for c in terms.values() if (c % p if p else c))
    n_syms = basis_size(n, d)
    n_pairs = n_syms**2
    if args.json:
        _emit_json(
            {
                "n": n,
                "d": d,
                "field": field.label,
                "symbols": n_syms,
                "pairs": n_pairs,
                "nonzero": counts,
            }
        )
    else:
        _emit(f"table ({n},{d}) over {field.label}: {n_syms} symbols, {n_pairs} ordered pairs")
        _emit(
            "nonzero structure constants: "
            + ", ".join(f"{case} {counts[case]}" for case in ("even*even", "even*odd", "odd*even", "odd*odd"))
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_cell(payload: Tuple[int, int, str, Optional[int]]) -> Dict[str, object]:
    n, d, field_label, basis_cap = payload
    field = FieldSpec.from_label(field_label)
    record: Dict[str, object] = {"n": n, "d": d, "field": field_label}
    try:
        phi = phi_analysis(n, d, field, cap=basis_cap)
        psi = psi_analysis(n, d, field, cap=basis_cap)
    except BudgetExceededError as exc:
        record["skipped"] = str(exc)
        return record
    record["phi"] = phi.to_json_dict()
    record["psi"] = psi.to_json_dict()
    if not psi.iso and psi.kernel_dim:
        witness = psi.kernel_elements()[0]
        record["psi_kernel_witness"] = witness.to_json_dict()
        record["psi_kernel_witness_text"] = str(witness)
    return record


def _run_pool(worker: Callable, payloads: Sequence[tuple], workers: int) -> List[dict]:
    """``worker`` over ``payloads``, in order, on at most ``workers``
    processes and never more than one per payload: the pool may start all
    of its processes at once."""
    workers = min(workers, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, payloads))
    return [worker(p) for p in payloads]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n_max < 1 or args.d_max < 1:
        # the grid starts at (1, 1); a smaller bound leaves it empty
        raise _Failure(
            EXIT_VALIDATION,
            f"sweep needs --n-max >= 1 and --d-max >= 1, got --n-max {args.n_max}, --d-max {args.d_max}",
        )
    field = _parse_field(args.field)
    cells = [(n, d) for n in range(1, args.n_max + 1) for d in range(1, args.d_max + 1)]
    payloads = [(n, d, field.label, args.max_basis) for n, d in cells]
    records = _run_pool(_sweep_cell, payloads, args.workers)
    if args.json:
        _emit_json({"field": field.label, "cells": records})
        return EXIT_OK
    for rec in records:
        n, d = rec["n"], rec["d"]
        if "skipped" in rec:
            _emit(f"({n},{d}): skipped ({rec['skipped']})")
            continue
        phi, psi = rec["phi"], rec["psi"]
        _emit(
            f"({n},{d}): phi iso={'yes' if phi['iso'] else 'no'}"
            f" (tensor {phi['tensor_dim']}, rank {phi['phi_rank']}, target {phi['target_dim']});"
            f" psi iso={'yes' if psi['iso'] else 'no'}"
            f" (kernel {psi['kernel_dim']}, commutant {psi['commutant_dim']})"
        )
        if "psi_kernel_witness_text" in rec:
            _emit(f"    psi kernel witness: {rec['psi_kernel_witness_text']}")
    _emit("")
    _emit(f"psi iso frontier over {field.label} (rows n, columns d):")
    header = "      " + " ".join(f"d={d}" for d in range(1, args.d_max + 1))
    _emit(header)
    by_cell = {(rec["n"], rec["d"]): rec for rec in records}
    for n in range(1, args.n_max + 1):
        marks = []
        for d in range(1, args.d_max + 1):
            rec = by_cell[(n, d)]
            if "skipped" in rec:
                marks.append("-")
            else:
                marks.append("yes" if rec["psi"]["iso"] else "no")
        _emit(f" n={n}  " + " ".join(f"{m:<3}" for m in marks).rstrip())
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# (power cap, basis cap) as given on the command line; None means the default
_Caps = Tuple[Optional[int], Optional[int]]


def _suite_oracle(n: int, d: int, field: FieldSpec, caps: _Caps) -> Tuple[bool, int, str]:
    power_cap, basis_cap = caps
    report = verify_table(n, d, field, cap=power_cap, basis_cap=basis_cap)
    detail = "" if report.ok else report.mismatches[0]
    return report.ok, report.pairs_checked, detail


def _suite_identity(n: int, d: int, field: FieldSpec, caps: _Caps) -> Tuple[bool, int, str]:
    e = identity(n, d, field)
    checks = 0
    for sym in all_symbols(n, d):
        x = GradedElement.from_symbol(sym, field)
        if multiply(e, x) != x:
            return False, checks, f"left identity fails on {sym}"
        if multiply(x, e) != x:
            return False, checks, f"right identity fails on {sym}"
        checks += 2
    return True, checks, ""


def _suite_associativity(n: int, d: int, field: FieldSpec, caps: _Caps) -> Tuple[bool, int, str]:
    syms = all_symbols(n, d)
    rng = random.Random(97)
    trials = 60
    for _ in range(trials):
        a, b, c = (GradedElement.from_symbol(rng.choice(syms), field) for _ in range(3))
        if multiply(multiply(a, b), c) != multiply(a, multiply(b, c)):
            return False, trials, f"associativity fails on ({a}, {b}, {c})"
    return True, trials, ""


def _suite_involution(n: int, d: int, field: FieldSpec, caps: _Caps) -> Tuple[bool, int, str]:
    syms = all_symbols(n, d)
    checks = 0
    for sym in syms:
        x = GradedElement.from_symbol(sym, field)
        if anti_involution(anti_involution(x)) != x:
            return False, checks, f"involution is not involutive on {sym}"
        checks += 1
    rng = random.Random(101)
    for _ in range(40):
        x = GradedElement.from_symbol(rng.choice(syms), field)
        y = GradedElement.from_symbol(rng.choice(syms), field)
        if anti_involution(multiply(x, y)) != multiply(anti_involution(y), anti_involution(x)):
            return False, checks, f"involution fails to reverse ({x}) * ({y})"
        checks += 1
    return True, checks, ""


def _suite_factorization(n: int, d: int, field: FieldSpec, caps: _Caps) -> Tuple[bool, int, str]:
    if n < d:
        return True, 0, ""  # the factorization needs the matching graph, so n >= d
    checks = 0
    for g in enum_N(n, d):
        report = factorization_check(g)
        if not report.ok:
            return False, checks, f"factorization fails on {g}: {report.failures[0]}"
        checks += 1
    return True, checks, ""


def _suite_delta(n: int, d: int, field: FieldSpec, caps: _Caps) -> Tuple[bool, int, str]:
    if n < d:
        return True, 0, ""
    checks = 0
    graphs = enum_M(n, d)
    for g, report in zip(graphs, delta_checks(graphs)):
        if not report.ok:
            return False, checks, f"delta reading fails on {g}: {report.failures[0]}"
        checks += 1
    return True, checks, ""


_VERIFY_SUITES: List[Tuple[str, Callable]] = [
    ("oracle", _suite_oracle),
    ("identity", _suite_identity),
    ("associativity", _suite_associativity),
    ("involution", _suite_involution),
    ("factorization", _suite_factorization),
    ("delta", _suite_delta),
]


def _run_verify_suite(payload: Tuple[str, int, int, str, _Caps]) -> Dict[str, object]:
    name, n, d, field_label, caps = payload
    field = FieldSpec.from_label(field_label)
    fn = dict(_VERIFY_SUITES)[name]
    ok, checks, detail = fn(n, d, field, caps)
    return {"name": name, "ok": ok, "checks": checks, "detail": detail}


def cmd_verify(args: argparse.Namespace) -> int:
    n, d = args.n, args.d
    _check_cell("verify", n, d)
    field = _parse_field(args.field)
    check_power_budget(n, d, args.max_power)
    check_basis_budget(n, d, args.max_basis)
    caps = (args.max_power, args.max_basis)
    payloads = [(name, n, d, field.label, caps) for name, _ in _VERIFY_SUITES]
    results = _run_pool(_run_verify_suite, payloads, args.workers)
    all_ok = all(r["ok"] for r in results)
    if args.json:
        _emit_json({"n": n, "d": d, "field": field.label, "ok": all_ok, "suites": results})
    else:
        for r in results:
            if r["ok"]:
                _emit(f"PASS {r['name']} ({r['checks']} checks)")
            else:
                _emit(f"FAIL {r['name']}: {r['detail']}")
        passed = sum(1 for r in results if r["ok"])
        _emit(f"verify ({n},{d}) over {field.label}: {passed}/{len(results)} suites passed")
    return EXIT_OK if all_ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _worker_count(text: str) -> int:
    """The --workers value: an integer of at least 1."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altschur",
        description="Exact computations in the alternating Schur algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list a graph family or the compositions")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("d", type=int)
    p_enum.add_argument("--kind", choices=["M", "N", "Lambda"], default="M")
    p_enum.add_argument("--json", action="store_true")
    p_enum.add_argument("--max-basis", type=int, default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_mul = sub.add_parser("multiply", help="multiply two element JSON files")
    p_mul.add_argument("file_x")
    p_mul.add_argument("file_y")
    p_mul.add_argument("--max-power", type=int, default=None)
    p_mul.set_defaults(func=cmd_multiply)

    p_table = sub.add_parser("table", help="build or load the structure-constant table")
    p_table.add_argument("n", type=int)
    p_table.add_argument("d", type=int)
    p_table.add_argument("--field", default="Q")
    p_table.add_argument("--out", default=None, help="explicit table path (bypasses the cache dir)")
    p_table.add_argument("--cache-dir", default=None, help=f"cache directory (default ${CACHE_ENV} or ~/.cache/altschur)")
    p_table.add_argument("--json", action="store_true")
    p_table.add_argument("--max-basis", type=int, default=None)
    p_table.set_defaults(func=cmd_table)

    p_sweep = sub.add_parser("sweep", help="phi/psi diagnostics over a grid of (n, d)")
    p_sweep.add_argument("--n-max", type=int, default=3)
    p_sweep.add_argument("--d-max", type=int, default=3)
    p_sweep.add_argument("--field", default="Q")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.add_argument("--workers", type=_worker_count, default=1)
    p_sweep.add_argument("--max-basis", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="oracle comparison and invariant suites")
    p_verify.add_argument("n", type=int)
    p_verify.add_argument("d", type=int)
    p_verify.add_argument("--field", default="Q")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--workers", type=_worker_count, default=1)
    p_verify.add_argument("--max-power", type=int, default=None)
    p_verify.add_argument("--max-basis", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        _note(f"error: {exc}")
        return exc.code
    except BudgetExceededError as exc:
        _note(f"refused: {exc}")
        return EXIT_BUDGET
    except RuntimeError as exc:
        _note(f"internal error: {exc}")
        return EXIT_INTERNAL
    except json.JSONDecodeError as exc:
        _note(f"error: invalid JSON: {exc}")
        return EXIT_IO
    except OSError as exc:
        _note(f"error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
