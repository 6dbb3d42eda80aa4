"""Command-line interface, driven in process through ``main(argv)``."""

import json
import os
import time

import pytest

from altschur import QQ, BipartiteGraph, xi
from altschur.algebra import GradedElement, identity
from altschur import algebra, cli
from altschur.cli import main
from conftest import _TABLE_CACHES, _clear


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_element(path, element):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(element.to_json_dict(), fh)
    return str(path)


@pytest.fixture
def worked_example(tmp_path):
    x = GradedElement.from_symbol(xi(BipartiteGraph.from_adj([[2, 0], [1, 1]])), QQ)
    y = GradedElement.from_symbol(xi(BipartiteGraph.from_adj([[2, 1], [0, 1]])), QQ)
    return (
        write_element(tmp_path / "x.json", x),
        write_element(tmp_path / "y.json", y),
    )


# -- enumerate ----------------------------------------------------------------


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, ["enumerate", "2", "2"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "10 graphs in M(2,2)"
    assert lines[1] == "[[0,0],[0,2]]"
    assert len(lines) == 11


def test_enumerate_odd_and_compositions(capsys):
    code, out, _ = run(capsys, ["enumerate", "2", "2", "--kind", "N"])
    assert code == 0
    assert out.splitlines()[0] == "6 graphs in N(2,2)"
    code, out, _ = run(capsys, ["enumerate", "2", "2", "--kind", "Lambda"])
    assert code == 0
    assert out.splitlines() == ["3 compositions in Lambda(2,2)", "[2,0]", "[1,1]", "[0,2]"]


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, ["enumerate", "2", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 10
    assert data["items"][0] == [[0, 0], [0, 2]]
    assert data["kind"] == "M"


def test_enumerate_deterministic(capsys):
    _, first, _ = run(capsys, ["enumerate", "3", "2", "--json"])
    _, second, _ = run(capsys, ["enumerate", "3", "2", "--json"])
    assert first == second


def test_enumerate_rejects_unknown_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "2", "2", "--kind", "X"])
    assert exc.value.code == 2


def test_enumerate_budget(capsys):
    code, _, err = run(capsys, ["enumerate", "3", "7"])
    assert code == 3
    assert "refused" in err


@pytest.mark.parametrize("kind,count", [("Lambda", 35), ("N", 2300)])
def test_enumerate_budget_counts_the_listed_family(capsys, kind, count):
    """The cap applies to the family listed, not to |M| + |N| (5225 at
    (5, 3), above the default cap of 5000)."""
    code, out, _ = run(capsys, ["enumerate", "5", "3", "--kind", kind, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["items"]) == count


def test_enumerate_refusal_names_the_family(capsys):
    code, _, err = run(capsys, ["enumerate", "5", "3", "--kind", "N", "--max-basis", "2000"])
    assert code == 3
    assert err == "refused: |N| at (n,d)=(5,3) exceeds the cap 2000\n"


# -- multiply ----------------------------------------------------------------


def test_multiply_worked_example(capsys, worked_example):
    px, py = worked_example
    code, out, _ = run(capsys, ["multiply", px, py])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and data["d"] == 4
    terms = {(json.dumps(t["adj"]), t["parity"]): t["coeff"] for t in data["terms"]}
    assert terms == {
        ("[[3, 0], [0, 1]]", "even"): "3/1",
        ("[[2, 1], [1, 0]]", "even"): "1/1",
    }


def test_multiply_by_identity(capsys, tmp_path, worked_example):
    px, _ = worked_example
    pe = write_element(tmp_path / "e.json", identity(2, 4, QQ))
    code, out, _ = run(capsys, ["multiply", px, pe])
    assert code == 0
    with open(px, encoding="utf-8") as fh:
        assert json.loads(out) == json.load(fh)


def test_multiply_dimension_mismatch(capsys, tmp_path, worked_example):
    px, _ = worked_example
    pz = write_element(
        tmp_path / "z.json",
        GradedElement.from_symbol(xi(BipartiteGraph.from_adj([[1, 0], [0, 1]])), QQ),
    )
    code, _, err = run(capsys, ["multiply", px, pz])
    assert code == 2
    assert "mismatch" in err


def test_multiply_invalid_json(capsys, tmp_path, worked_example):
    _, py = worked_example
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, ["multiply", str(bad), py])
    assert code == 4
    assert "invalid JSON" in err


def test_multiply_missing_file(capsys, tmp_path, worked_example):
    _, py = worked_example
    code, _, err = run(capsys, ["multiply", str(tmp_path / "nothere.json"), py])
    assert code == 4


def test_multiply_malformed_element(capsys, tmp_path, worked_example):
    px, py = worked_example
    with open(px, encoding="utf-8") as fh:
        good = json.load(fh)
    cases = [{"n": 2, "d": 2}]  # no terms at all
    for key, value in [
        ("coeff", 3),  # scalars are strings
        ("field", 5),  # so are field labels
        ("adj", [[1.9, 1], [1, 1]]),  # a valid degree if truncated to 1
        ("adj", [["2", 0], [1, 1]]),  # a valid graph if parsed
        ("adj", [[True, 1], [1, 1]]),  # a bool is no edge count
        ("d", 4.0),  # echoed as 4.0 if accepted
        ("terms", {}),  # read as no terms if accepted
    ]:
        data = json.loads(json.dumps(good))
        (data if key in data else data["terms"][0])[key] = value
        cases.append(data)
    mal = tmp_path / "mal.json"
    for data in cases:
        mal.write_text(json.dumps(data))
        code, _, err = run(capsys, ["multiply", str(mal), py])
        assert code == 4, data
        assert "malformed element" in err


def test_multiply_refuses_a_zero_denominator(capsys, tmp_path, worked_example):
    """An element file with the coefficient "1/0" is malformed (exit 4), not
    a traceback."""
    px, py = worked_example
    with open(px, encoding="utf-8") as fh:
        data = json.load(fh)
    data["terms"][0]["coeff"] = "1/0"
    mal = tmp_path / "mal.json"
    mal.write_text(json.dumps(data))
    code, _, err = run(capsys, ["multiply", str(mal), py])
    assert code == 4
    assert "malformed element" in err and "'1/0'" in err


@pytest.mark.parametrize("n,d", [(0, -1), (-2, 2)])
def test_multiply_refuses_bad_parameters(capsys, tmp_path, worked_example, n, d):
    """An element file with n < 1 or d < 0 is malformed (exit 4): no
    traceback from the power budget, and no element echoed back."""
    _, py = worked_example
    mal = tmp_path / "mal.json"
    mal.write_text(json.dumps({"n": n, "d": d, "field": "Q", "terms": []}))
    for argv in (["multiply", str(mal), py], ["multiply", str(mal), str(mal)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, "")
        assert "malformed element" in err and "is not a pair of parameters" in err


def test_multiply_power_budget(capsys, worked_example):
    px, py = worked_example
    code, _, err = run(capsys, ["multiply", px, py, "--max-power", "10"])
    assert code == 3
    assert "refused" in err


# -- table --------------------------------------------------------------------


def test_table_build_then_load(capsys, tmp_path):
    path = str(tmp_path / "t.json")
    code, out1, err1 = run(capsys, ["table", "2", "2", "--out", path])
    assert code == 0
    assert f"cache written: {path}" in err1
    lines = out1.splitlines()
    assert lines[0] == "table (2,2) over Q: 16 symbols, 256 ordered pairs"
    assert lines[1] == (
        "nonzero structure constants: even*even 36, even*odd 20, odd*even 20, odd*odd 20"
    )
    code, out2, err2 = run(capsys, ["table", "2", "2", "--out", path])
    assert code == 0
    assert f"cache loaded: {path}" in err2
    assert out1 == out2


def test_table_json(capsys, tmp_path):
    code, out, _ = run(capsys, ["table", "2", "2", "--json", "--out", str(tmp_path / "t.json")])
    assert code == 0
    data = json.loads(out)
    assert data["symbols"] == 16
    assert data["pairs"] == 256
    assert set(data["nonzero"]) == {"even*even", "even*odd", "odd*even", "odd*odd"}


def test_table_without_odd_part(capsys, tmp_path):
    code, out, _ = run(capsys, ["table", "1", "3", "--out", str(tmp_path / "t.json")])
    assert code == 0
    assert out.splitlines() == [
        "table (1,3) over Q: 1 symbols, 1 ordered pairs",
        "nonzero structure constants: even*even 1, even*odd 0, odd*even 0, odd*odd 0",
    ]


def test_table_wrong_cache_params(capsys, tmp_path):
    path = str(tmp_path / "t.json")
    run(capsys, ["table", "2", "2", "--out", path])
    code, _, err = run(capsys, ["table", "1", "2", "--out", path])
    assert code == 4
    assert "is for (2,2), not (1,2)" in err


def test_table_refuses_cache_for_another_cell_before_enumerating(capsys, tmp_path, monkeypatch):
    # the (4,6) basis has 62,272 symbols; only the header may be read
    path = tmp_path / "table_n2_d2.json"
    path.write_text(json.dumps({"n": 4, "d": 6, "entries": []}), encoding="utf-8")
    monkeypatch.setattr(algebra, "all_symbols", lambda n, d: pytest.fail(f"enumerated ({n},{d})"))
    start = time.perf_counter()
    code, out, err = run(capsys, ["table", "2", "2", "--cache-dir", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert f"error: cache file {path} is for (4,6), not (2,2)" in err


def test_table_rejects_stale_cache_entry(capsys, tmp_path):
    path = tmp_path / "table_n2_d2.json"
    run(capsys, ["table", "2", "2", "--out", str(path)])
    data = json.loads(path.read_text(encoding="utf-8"))
    data["entries"][0]["left"]["adj"] = [[3, 0], [1, 1]]  # a degree-5 graph
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, ["table", "2", "2", "--out", str(path)])
    assert code == 4
    assert out == ""
    assert f"error: cache file {path} is malformed: " in err


def test_table_rejects_cache_with_a_mistyped_symbol(capsys, tmp_path):
    path = tmp_path / "table_n1_d1.json"
    sym = {"parity": "even", "adj": [[1]]}
    entry = {"left": {"parity": "even", "adj": 5}, "right": sym, "terms": [[sym, 1]]}
    path.write_text(json.dumps({"n": 1, "d": 1, "entries": [entry]}), encoding="utf-8")
    code, out, err = run(capsys, ["table", "1", "1", "--out", str(path)])
    assert code == 4
    assert out == ""
    assert f"error: cache file {path} is malformed: " in err


def test_table_rejects_cache_without_entries(capsys, tmp_path):
    path = tmp_path / "table_n2_d2.json"
    path.write_text(json.dumps({"n": 2, "d": 2}), encoding="utf-8")
    code, out, err = run(capsys, ["table", "2", "2", "--out", str(path)])
    assert code == 4
    assert out == ""
    assert f"error: cache file {path} is malformed: " in err
    assert "entries" in err


def test_table_cache_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, err = run(capsys, ["table", "2", "2"])
    assert code == 0
    expected = tmp_path / "table_n2_d2.json"
    assert expected.exists()
    assert str(expected) in err


def test_table_field_label(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["table", "2", "2", "--field", "GF(5)", "--out", str(tmp_path / "t.json")]
    )
    assert code == 0
    assert "over GF(5)" in out


def test_table_rejects_bad_field(capsys, tmp_path):
    code, _, err = run(
        capsys, ["table", "2", "2", "--field", "GF(4)", "--out", str(tmp_path / "t.json")]
    )
    assert code == 2
    assert "not prime" in err


# -- sweep --------------------------------------------------------------------


def test_sweep_text(capsys):
    code, out, _ = run(capsys, ["sweep", "--n-max", "2", "--d-max", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("(1,1): phi iso=yes")
    assert "(1,2): phi iso=no" in out
    assert "psi kernel witness: 1/1*xi[[2]]" in out
    assert "psi iso frontier over Q (rows n, columns d):" in out
    assert lines[-2].startswith(" n=1  yes no")
    assert lines[-1].startswith(" n=2  yes yes")


def test_sweep_json(capsys):
    code, out, _ = run(capsys, ["sweep", "--n-max", "2", "--d-max", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "Q"
    assert len(data["cells"]) == 4
    cell = {(r["n"], r["d"]): r for r in data["cells"]}[(1, 2)]
    assert set(cell) >= {"n", "d", "field", "phi", "psi", "psi_kernel_witness"}
    assert cell["psi"]["iso"] is False
    assert cell["psi_kernel_witness_text"] == "1/1*xi[[2]]"


def test_sweep_budget_marks_skipped(capsys):
    code, out, _ = run(capsys, ["sweep", "--n-max", "2", "--d-max", "2", "--max-basis", "1"])
    assert code == 0
    # (1,2) has basis size 1 and survives; the other three cells are skipped
    assert out.count("skipped") == 3
    lines = out.splitlines()
    assert lines[-2].rstrip() == " n=1  -   no"
    assert lines[-1].rstrip() == " n=2  -   -"


def test_sweep_workers_agree(capsys):
    _, serial, _ = run(capsys, ["sweep", "--n-max", "2", "--d-max", "2"])
    _, parallel, _ = run(capsys, ["sweep", "--n-max", "2", "--d-max", "2", "--workers", "2"])
    assert serial == parallel


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps
    in this process, so no process is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


@pytest.mark.parametrize(
    "argv,jobs",
    [(["sweep", "--n-max", "2", "--d-max", "2"], 4), (["verify", "2", "2"], 6)],
    ids=["sweep", "verify"],
)
def test_workers_never_exceed_the_jobs(capsys, monkeypatch, argv, jobs):
    """A large --workers starts one process per job at most, and a single
    job runs without a pool; the output is the serial one."""
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    _, serial, _ = run(capsys, argv)
    _, pooled, _ = run(capsys, argv + ["--workers", "100000"])
    assert _SerialPool.sizes == [jobs] and pooled == serial
    run(capsys, ["sweep", "--n-max", "1", "--d-max", "1", "--workers", "100000"])
    assert _SerialPool.sizes == [jobs]


# -- verify -------------------------------------------------------------------


def test_verify_2_2(capsys):
    code, out, _ = run(capsys, ["verify", "2", "2"])
    assert code == 0
    lines = out.splitlines()
    assert "PASS oracle (256 checks)" in lines
    assert lines[-1] == "verify (2,2) over Q: 6/6 suites passed"


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "2", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [s["name"] for s in data["suites"]] == [
        "oracle",
        "identity",
        "associativity",
        "involution",
        "factorization",
        "delta",
    ]
    assert all(s["ok"] for s in data["suites"])


def test_verify_gf5(capsys):
    code, out, _ = run(capsys, ["verify", "2", "2", "--field", "GF5"])
    assert code == 0
    assert out.splitlines()[-1] == "verify (2,2) over GF(5): 6/6 suites passed"


def test_verify_runs_where_factorization_does_not_apply(capsys):
    """At n < d the factorization and delta identities have no instances, so
    those suites pass vacuously and the applicable ones still run."""
    code, out, _ = run(capsys, ["verify", "2", "3"])
    assert code == 0
    lines = out.splitlines()
    assert "PASS factorization (0 checks)" in lines
    assert "PASS delta (0 checks)" in lines
    assert lines[-1] == "verify (2,3) over Q: 6/6 suites passed"


def test_verify_budget(capsys):
    code, _, err = run(capsys, ["verify", "2", "20"])
    assert code == 3
    assert "refused" in err


@pytest.mark.parametrize(
    "argv,quantity",
    [
        (["verify", "3", "10000"], "n^d at (n,d)=(3,10000) exceeds the cap 1000000"),
        (["verify", "3", "9000"], "n^d at (n,d)=(3,9000) exceeds the cap 1000000"),
        (["verify", "3", "100000000"], "n^d at (n,d)=(3,100000000) exceeds the cap 1000000"),
        (["table", "1000", "10000"], "|M| + |N| at (n,d)=(1000,10000) exceeds the cap 5000"),
        (["table", "1000", "1000000"], "|M| + |N| at (n,d)=(1000,1000000) exceeds the cap 5000"),
        (["enumerate", "1000", "10000"], "|M| at (n,d)=(1000,10000) exceeds the cap 5000"),
    ],
)
def test_budget_refuses_a_cell_far_past_the_cap(capsys, tmp_path, argv, quantity):
    """A budget refusal is exit 3 with one line naming the quantity, (n, d)
    and the cap, however far past the cap the cell is, and is decided
    without forming the quantity itself."""
    start = time.perf_counter()
    code, out, err = run(capsys, argv + (["--out", str(tmp_path / "t.json")] if argv[0] == "table" else []))
    assert (code, out, err) == (3, "", f"refused: {quantity}\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n,d", [(0, 2), (-1, 2), (2, -1)])
def test_verify_rejects_n_below_one_or_negative_d(capsys, tmp_path, n, d):
    """n < 1 or d < 0 is invalid input to enumerate, table and verify: exit 2
    with one error line and no traceback, before any work, and no table file."""
    table_path = tmp_path / "table.json"
    for command, options in [("enumerate", []), ("table", ["--out", str(table_path)]), ("verify", [])]:
        code, out, err = run(capsys, [command, str(n), str(d)] + options)
        assert code == 2 and out == ""
        assert err == f"error: {command} needs n >= 1 and d >= 0, got n = {n}, d = {d}\n"
    assert not table_path.exists()


@pytest.mark.parametrize("n_max,d_max", [(0, 2), (-1, 3), (2, 0)])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_sweep_rejects_an_empty_grid(capsys, n_max, d_max, json_flag):
    """Sweep cells start at (1, 1): a bound below 1 leaves no cell, and is
    invalid input with exit 2 and one error line, not an empty report."""
    code, out, err = run(capsys, ["sweep", "--n-max", str(n_max), "--d-max", str(d_max)] + json_flag)
    assert code == 2 and out == ""
    assert err == f"error: sweep needs --n-max >= 1 and --d-max >= 1, got --n-max {n_max}, --d-max {d_max}\n"


@pytest.mark.parametrize("argv", [["sweep"], ["verify", "2", "2"]], ids=["sweep", "verify"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_are_rejected(capsys, argv, workers):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --workers: must be at least 1, got {int(workers)}" in err
    assert "Traceback" not in err


def test_verify_power_cap_is_not_a_basis_cap(capsys):
    # n^d = 4 fits the power cap; the 16 basis symbols fit the basis cap
    code, out, err = run(capsys, ["verify", "2", "2", "--max-power", "4", "--max-basis", "100"])
    assert code == 0, err
    assert out.splitlines()[-1] == "verify (2,2) over Q: 6/6 suites passed"


def test_verify_max_basis_reaches_the_oracle(capsys, monkeypatch):
    # the 16 basis symbols exceed the environment's cap but not the flag's
    monkeypatch.setenv("ALTSCHUR_MAX_BASIS", "10")
    code, out, err = run(capsys, ["verify", "2", "2", "--max-basis", "100"])
    assert code == 0, err
    assert out.splitlines()[-1] == "verify (2,2) over Q: 6/6 suites passed"


@pytest.mark.parametrize(
    "name,fake",
    [("relabel_sign", lambda g, sigma: 1), ("lambda_factorial", lambda parts: 1), ("iota_sign", lambda g: 1)],
    ids=["s_sigma", "h!", "iota_sign"],
)
def test_verify_catches_a_table_fill_mutation(capsys, monkeypatch, name, fake):
    """The oracle reads the products off the orbit-filled, mirrored and
    trace-form tables, so a wrong sign or factor in a fill fails it."""
    monkeypatch.setattr(algebra, name, fake)
    _clear(*_TABLE_CACHES)
    try:
        code, out, _ = run(capsys, ["verify", "3", "2"])
    finally:
        _clear(*_TABLE_CACHES)  # drop the tables built with the mutation
    assert code == 1
    assert any(line.startswith("FAIL oracle: ") for line in out.splitlines())


def test_verify_reports_failure(capsys, monkeypatch):
    def broken(n, d, field, power_cap):
        return False, 1, "forced failure for the exit-code path"

    monkeypatch.setattr(cli, "_VERIFY_SUITES", [("oracle", cli._suite_oracle), ("broken", broken)])
    code, out, _ = run(capsys, ["verify", "2", "2"])
    assert code == 1
    assert "FAIL broken: forced failure for the exit-code path" in out
    assert out.splitlines()[-1] == "verify (2,2) over Q: 1/2 suites passed"


def test_internal_error_exits_5(capsys, monkeypatch):
    def broken(n, d, field, cap=None):
        raise RuntimeError("eta does not vanish on the tensor relations")

    monkeypatch.setattr(cli, "phi_analysis", broken)
    code, out, err = run(capsys, ["sweep", "--n-max", "1", "--d-max", "1"])
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "internal error: eta does not vanish on the tensor relations\n"
