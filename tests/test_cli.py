"""Command-line behavior: exit codes, JSON reports, determinism."""

import concurrent.futures as cf
import json

import numpy as np
import pytest
from test_baselines import COLUMNS

from rcckit import cli
from rcckit.cli import main
from rcckit.network import dump, load, save
from rcckit.reasoning import a_closure


@pytest.fixture
def example1_path(tmp_path, example1):
    p = tmp_path / "example1.net"
    dump(example1, p)
    return str(p)


@pytest.fixture
def bad_path(tmp_path, bad_triangle):
    p = tmp_path / "bad.net"
    dump(bad_triangle, p)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_tables(capsys):
    code, out, _ = run(capsys, "verify-tables", "RCC8")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify-tables")
    assert code == 0 and "RCC5" in out and "RCC8" in out


def test_consistent_exit_codes(capsys, example1_path, bad_path):
    assert run(capsys, "consistent", example1_path)[0] == 0
    assert run(capsys, "consistent", bad_path)[0] == 1


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "consistent", str(tmp_path / "missing.net"))[0] == 2
    bad = tmp_path / "syntax.net"
    bad.write_text("calculus RCC5\nvars 2\n1 2 NOPE\n")
    assert run(capsys, "consistent", str(bad))[0] == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_closure_writes_network(capsys, example1_path, tmp_path, example1):
    out_path = tmp_path / "closed.net"
    code, _, _ = run(capsys, "closure", example1_path, "-o", str(out_path))
    assert code == 0
    assert load(out_path) == a_closure(example1).network


def test_closure_json_reports_updates(capsys, example1_path):
    code, out, _ = run(capsys, "closure", example1_path, "--json")
    assert code == 0
    assert json.loads(out)["metrics"]["updates"] > 0


def test_closure_json_reports_sweeps(capsys, example1_path, tmp_path):
    closed = tmp_path / "closed.net"
    code, out, _ = run(capsys, "closure", example1_path, "--json",
                       "-o", str(closed))
    assert code == 0
    assert json.loads(out)["metrics"]["sweeps"] >= 2
    code, out, _ = run(capsys, "closure", str(closed), "--json")
    assert code == 0
    # a closed input takes one sweep, which gathers n terms for each (i, k)
    # whose entry lacks DR and for each k = i
    net = load(closed)
    off_diagonal = ~np.eye(net.n, dtype=bool)
    free = np.count_nonzero(off_diagonal
                            & ((net.matrix & net.calculus.parse("DR")) == 0))
    assert json.loads(out)["metrics"] == {"updates": 0, "sweeps": 1,
                                          "terms": net.n * (free + net.n)}


def test_closure_inconsistent_reports_witness(capsys, bad_path):
    code, out, _ = run(capsys, "closure", bad_path, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["outcome"] == "inconsistent" and len(doc["witness"]) == 3
    assert doc["schema"] == cli.SCHEMA == 2


def test_solve_and_entails(capsys, example1_path, bad_path):
    assert run(capsys, "solve", example1_path)[0] == 0
    assert run(capsys, "solve", bad_path)[0] == 1
    assert run(capsys, "entails", example1_path, "1", "2", "PP")[0] == 0
    assert run(capsys, "entails", example1_path, "1", "2", "DR")[0] == 1


def test_redundant_exit_codes(capsys, example1_path):
    assert run(capsys, "redundant", example1_path, "1", "2")[0] == 0
    assert run(capsys, "redundant", example1_path, "3", "4")[0] == 1


def test_minimal_check_guards_only_a_search(capsys, tmp_path):
    import util_instances as gen

    chain = "calculus RCC5\nvars 3\n1 2 PP\n2 3 PP\n"
    closed, open_ = tmp_path / "closed.net", tmp_path / "open.net"
    closed.write_text(chain + "1 3 PP\n")
    open_.write_text(chain)
    # basic, or basic but for one universal entry: the closure decides
    assert run(capsys, "minimal-check", str(closed), "--guard", "0")[0] == 0
    assert run(capsys, "minimal-check", str(open_), "--guard", "0")[0] == 1
    hard = tmp_path / "hard.net"
    dump(gen.intractable_network(13, 1041), hard)
    code, out, err = run(capsys, "minimal-check", str(hard))
    assert code == 2 and out == ""
    assert [line.startswith("error:") for line in err.splitlines()] == [True]


@pytest.mark.parametrize("argv,message", [
    (("redundant", "0", "2"), "variable number 0 out of range 1..5"),
    (("entails", "0", "3", "PP"), "variable number 0 out of range 1..5"),
    (("entails", "1", "9", "DR"), "variable number 9 out of range 1..5"),
    (("prime", "--order", "1-2,x"), "malformed --order pair 'x'"),
    # an empty --order is the empty order, not a missing one
    (("prime", "--order", ""),
     "order must enumerate every non-trivial constraint exactly once"),
    (("entails", "1", "2", "FOO"), "unknown RCC5 basic relation 'FOO'"),
], ids=["redundant-zero", "entails-zero", "entails-past-n", "order-chunk",
        "order-empty", "relation-name"])
def test_bad_variable_numbers_exit_2(capsys, example1_path, argv, message):
    command, *rest = argv
    code, out, err = run(capsys, command, example1_path, *rest)
    assert code == 2 and not out
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    ("closure", "--seed", "5"),
    ("closure", "--workers", "3"),
    ("closure", "--subalgebra", "H5"),
    ("core", "--subalgebra", "H5"),
    ("entails", "1", "2", "PP", "--seed", "1"),
    ("prime", "--workers", "2"),
    ("reconstitute", "regions.json", "--guard", "5"),
    ("compare", "--algo", "prime"),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flags_a_subcommand_ignores_are_usage_errors(capsys, example1_path,
                                                     argv):
    command, *rest = argv
    with pytest.raises(SystemExit) as err:
        main([command, example1_path, *rest])
    assert err.value.code == 2
    assert run(capsys, "consistent", example1_path, "--guard", "5",
               "--subalgebra", "H5")[0] == 0
    assert run(capsys, "compare", example1_path, "--guard", "5",
               "--workers", "1")[0] == 0


@pytest.mark.parametrize("n", [2, 3])
def test_closure_names_an_empty_input_entry(capsys, tmp_path, n):
    path = tmp_path / "empty.net"
    path.write_text(f"calculus RCC5\nvars {n}\n1 2 0\n")
    code, out, _ = run(capsys, "closure", str(path))
    assert code == 1
    assert out == "inconsistent: entry (1,2) is empty in the input\n"
    code, out, _ = run(capsys, "closure", str(path), "--json")
    assert code == 1 and json.loads(out)["witness"] == [0, 0, 1]


def test_prime_removes_the_redundant_edge(capsys, tmp_path):
    # 1 PP 3 and 3 PP 2 force 1 PP 2, over Bhat5 inside D5_14
    path = tmp_path / "chain.net"
    path.write_text("calculus RCC5\nvars 3\n1 2 PP\n1 3 PP\n3 2 PP\n")
    out_path = tmp_path / "prime.net"
    code, out, _ = run(capsys, "prime", str(path), "-o", str(out_path),
                       "--subalgebra", "BHAT5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "algorithm1"
    assert [1, 2] in doc["removed"]
    net = load(out_path)
    assert net[0, 1].is_universal


# H5 is tractable but not distributive, so Algorithm 1's Q test does not
# hold over it: on this network it would drop the non-redundant 1 DR|PO 5
_OUTSIDE_D5 = """calculus RCC5
vars 6
1 2 DR|PPi
1 3 DR|PPi|EQ
1 4 PP|EQ
1 5 DR|PO
1 6 PO|PPi
2 3 PPi|EQ
2 4 DR|PO|PPi
2 5 PO|PPi
2 6 PO|PP
3 4 PO|PP|PPi|EQ
3 5 DR|PO
3 6 DR|PO|PP|EQ
4 5 DR|PP
4 6 PO|PPi|EQ
5 6 DR|PPi|EQ
"""


def test_prime_over_h5_keeps_an_equivalent_network(capsys, tmp_path):
    from rcckit.redundancy import equivalent, is_redundant

    path = tmp_path / "outside_d5.net"
    path.write_text(_OUTSIDE_D5)
    out_path = tmp_path / "prime.net"
    code, out, _ = run(capsys, "prime", str(path), "-o", str(out_path),
                       "--subalgebra", "H5", "--json")
    assert code == 0
    net, got = load(path), load(out_path)
    assert not is_redundant(net, 0, 4) and not got[0, 4].is_universal
    assert equivalent(net, got)
    assert json.loads(out)["method"] == "iterative"


def test_prime_with_explicit_order(capsys, example1_path, tmp_path):
    code, out, _ = run(capsys, "prime", example1_path,
                       "--order", "1-2,1-3,1-5,2-4,2-5,3-4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "iterative"
    assert doc["removed"] == [[1, 2]]


def test_prime_with_an_empty_order_folds_a_network_without_constraints(
        capsys, tmp_path):
    path = tmp_path / "none.net"
    path.write_text("calculus RCC8\nvars 2\n")
    code, out, _ = run(capsys, "prime", str(path), "--order", "", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "iterative" and doc["kept"] == []


@pytest.mark.parametrize("command", ["prime", "compare"])
@pytest.mark.parametrize("rel", ["DR", "0", "DR|PPi"])
def test_prime_and_compare_reject_inconsistent_input(capsys, tmp_path,
                                                     command, rel):
    # 1 PP 2 and 2 PP 3 force 1 PP 3.  DR fits D5_14 (Algorithm 1); 0 and
    # DR|PPi fit no distributive subalgebra (the fold)
    path = tmp_path / "bad.net"
    path.write_text(f"calculus RCC5\nvars 3\n1 2 PP\n2 3 PP\n1 3 {rel}\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == "error: a prime subnetwork needs a consistent network\n"


@pytest.mark.parametrize("argv", [
    ("consistent", "--subalgebra", "D8_64"),
    ("consistent", "--subalgebra", "BHAT8"),
    ("prime", "--subalgebra", "D8_41"),
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_a_subalgebra_of_the_other_calculus_exits_2(capsys, tmp_path, argv):
    # closure over an RCC8 subalgebra proves nothing about an RCC5 file
    path = tmp_path / "outside_h5.net"
    path.write_text("calculus RCC5\nvars 3\n1 2 PP|PPi\n2 3 PP|PPi\n"
                    "1 3 DR\n")
    command, *rest = argv
    code, out, err = run(capsys, command, str(path), *rest)
    assert code == 2 and out == ""
    assert err == "error: subalgebra from a different calculus\n"


# one argument contract: each bad input exits 2 with one message, whichever
# subcommand and engine path receives it
_BAD_INPUTS = {
    # closure over an RCC8 subalgebra proves nothing about an RCC5 file
    "other-calculus": ("calculus RCC5\nvars 3\n1 2 PP|PPi\n2 3 PP|PPi\n"
                       "1 3 DR\n", "subalgebra from a different calculus"),
    "outside": ("calculus RCC8\nvars 3\n1 2 DC|PO\n2 3 DC|PO\n1 3 DC|PO\n",
                "entries outside D8_41: DC|PO"),
    # NTPP composed with NTPP forces NTPP, so 1 DC 3 empties the triangle
    "inconsistent": ("calculus RCC8\nvars 3\n1 2 NTPP\n2 3 NTPP\n1 3 DC\n",
                     "a prime subnetwork needs a consistent network"),
    "malformed": ("calculus RCC8\nvars 3\n1 2 NOPE\n",
                  "line 3: unknown RCC8 basic relation 'NOPE'"),
}
_PATHS = {
    "consistent": ("consistent", "{net}", "--subalgebra", "D8_41"),
    "prime": ("prime", "{net}", "--subalgebra", "D8_41"),
    "prime-order": ("prime", "{net}", "--order", "1-2,2-3,1-3",
                    "--subalgebra", "D8_41"),
    # bench weakens its own RCC8 scenarios, so only the subalgebra can be bad
    "bench": ("bench", "--sizes", "5", "--subalgebra", "D5_20"),
}
_CONTRACT = [
    ("consistent", "other-calculus"), ("consistent", "outside"),
    ("consistent", "malformed"),
    ("prime", "other-calculus"), ("prime", "outside"),
    ("prime", "inconsistent"), ("prime", "malformed"),
    ("prime-order", "other-calculus"), ("prime-order", "outside"),
    ("prime-order", "inconsistent"), ("prime-order", "malformed"),
    ("bench", "other-calculus"),
]


@pytest.mark.parametrize("path,bad", _CONTRACT,
                         ids=[f"{p}-{b}" for p, b in _CONTRACT])
def test_every_engine_path_exits_2_on_bad_input(capsys, tmp_path, path, bad):
    text, message = _BAD_INPUTS[bad]
    net = tmp_path / "input.net"
    net.write_text(text)
    argv = [arg.format(net=net) for arg in _PATHS[path]]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_subalgebra_choices_are_the_name_table(capsys):
    from pathlib import Path

    from rcckit import algebra

    parser = cli.build_parser()
    for command in ("consistent", "prime", "bench"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--subalgebra", "NOPE", "x"])
        err = capsys.readouterr().err
        listed = err.split("choose from ")[1].rstrip().rstrip(")")
        names = [name.strip(" '") for name in listed.split(",")]
        assert names == ["auto", *algebra.NAMES]
    for name in algebra.NAMES:
        assert algebra.by_name(name).name.upper() == name
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert "--subalgebra {" + ",".join(["auto", *algebra.NAMES]) + "}" \
        in readme


def test_core_command(capsys, example1_path):
    code, out, _ = run(capsys, "core", example1_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert [1, 2] in doc["redundant"]


def test_subalg_golden_order(capsys):
    code, out, _ = run(capsys, "subalg", "D5_14")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert lines[0] == "DR"          # lowest bit mask first
    assert lines[-1] == "*"


def test_geometry_pipeline_round_trip(capsys, tmp_path):
    regs = tmp_path / "regions.json"
    net = tmp_path / "net.txt"
    prime = tmp_path / "prime.net"
    full = tmp_path / "full.net"
    assert run(capsys, "gen-regions", "-n", "10", "--seed", "5",
               "--profile", "nested", "-o", str(regs))[0] == 0
    assert run(capsys, "geom2net", str(regs), "-o", str(net))[0] == 0
    assert run(capsys, "prime", str(net), "-o", str(prime))[0] == 0
    assert run(capsys, "reconstitute", str(prime), str(regs),
               "-o", str(full))[0] == 0
    assert load(full) == load(net)


def test_reconstitute_rejects_a_non_rcc8_network(capsys, tmp_path):
    regs = tmp_path / "regs.json"
    assert run(capsys, "gen-regions", "-n", "4", "--seed", "3",
               "-o", str(regs))[0] == 0
    ids = [r["id"] for r in json.loads(regs.read_text())["regions"]]
    net = tmp_path / "p5.net"
    net.write_text(f"calculus RCC5\nvars 4\nlabels {' '.join(ids)}\n"
                   "1 2 DR\n")
    code, out, err = run(capsys, "reconstitute", str(net), str(regs))
    assert code == 2 and not out
    assert err == "error: reconstitution needs an RCC8 network, not RCC5\n"


@pytest.mark.parametrize("ids", [["a b", "#"], ["a b", "c", "d#e"],
                                 ["", "c"], ["a\tb", "c"], ["\ud800", "c"]])
def test_geom2net_rejects_ids_a_network_file_cannot_carry(capsys, tmp_path,
                                                          ids):
    regs = tmp_path / "regs.json"
    regs.write_text(json.dumps({"regions": [
        {"id": rid, "ring": [[4 * k, 0], [4 * k + 2, 0], [4 * k, 2]]}
        for k, rid in enumerate(ids)]}))
    out_path = tmp_path / "net.txt"
    code, out, err = run(capsys, "geom2net", str(regs), "-o", str(out_path))
    assert code == 2 and not out and not out_path.exists()
    assert err.startswith("error: region id ")


@pytest.mark.parametrize("rid", [None, 1.5, True, [], 7],
                         ids=["null", "float", "true", "list", "int"])
def test_geom2net_rejects_ids_that_are_not_strings(capsys, tmp_path, rid):
    regs = tmp_path / "regs.json"
    regs.write_text(json.dumps({"regions": [
        {"id": "a", "ring": [[0, 0], [2, 0], [0, 2]]},
        {"id": rid, "ring": [[4, 0], [6, 0], [4, 2]]}]}))
    out_path = tmp_path / "net.txt"
    code, out, err = run(capsys, "geom2net", str(regs), "-o", str(out_path))
    assert code == 2 and not out and not out_path.exists()
    assert err == f"error: region id {rid!r} is not a string\n"


def test_gen_regions_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen-regions", "-n", "6", "--seed", "9", "-o", str(a))
    run(capsys, "gen-regions", "-n", "6", "--seed", "9", "-o", str(b))
    assert a.read_text() == b.read_text()


def test_compare_csv(capsys, example1_path, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "compare", example1_path, example1_path,
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == ",".join(COLUMNS)
    code, out, _ = run(capsys, "compare", example1_path)
    assert code == 0
    assert out.splitlines()[:2] == ["prime: kept [5]", "simpleext: kept [6]"]
    assert "simple:" not in out
    code, out, _ = run(capsys, "compare", example1_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert [sorted(row) for row in doc["rows"]] == [sorted(COLUMNS)]


def test_bench_small(capsys, tmp_path):
    out_path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--sizes", "8,12", "--seed", "3",
                       "--out", str(out_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert doc["metrics"]["instances"] == 2
    assert "time_loglog_slope" in doc["metrics"]
    assert [sorted(row) for row in doc["rows"]] == [sorted(COLUMNS)] * 2
    assert out_path.read_text().splitlines()[0] == ",".join(COLUMNS)


@pytest.mark.parametrize("sizes", ["a", "8,x", "1.5", ",", ""])
def test_bench_malformed_sizes_exit_2(capsys, sizes):
    code, out, err = run(capsys, "bench", "--sizes", sizes)
    assert code == 2 and not out
    assert err.startswith(f"error: malformed --sizes {sizes!r}")


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["compare", "bench"])
def test_workers_below_one_exit_2(capsys, example1_path, command, workers):
    argv = [example1_path] if command == "compare" else ["--sizes", "5"]
    code, out, err = run(capsys, command, *argv, "--workers", workers)
    assert code == 2 and not out
    assert err == f"error: --workers must be at least 1, not {workers}\n"


def test_map_sizes_the_pool_by_items_and_cpus(monkeypatch):
    # a stand-in pool that records its size and starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, *columns):
            return map(func, *columns)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._map(pow, 8, [2, 3, 4], [2, 2, 2]) == [4, 9, 16]
    assert cli._map(pow, 3, [2] * 6, [1] * 6) == [2] * 6
    assert cli._map(pow, 64, [2] * 6, [1] * 6) == [2] * 6
    assert cli._map(pow, 8, [5], [2]) == [25]
    assert cli._map(pow, 1, [2, 3], [2, 2]) == [4, 9]
    assert sizes == [3, 3, 4]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._map(pow, 8, [2, 3], [2, 2]) == [4, 9]
    assert sizes == [3, 3, 4]


def test_bench_fits_only_over_distinct_sizes(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "5,5", "--json")
    assert code == 0
    assert json.loads(out)["metrics"] == {"instances": 2}


def test_bench_empty_sizes(capsys, tmp_path):
    # no size is a bad argument, not an empty table
    out_path = tmp_path / "empty.csv"
    code, _, _ = run(capsys, "bench", "--sizes", "", "--out", str(out_path))
    assert code == 2
    assert not out_path.exists()


def test_json_reports_are_stable(capsys, example1_path):
    _, a, _ = run(capsys, "consistent", example1_path, "--json")
    _, b, _ = run(capsys, "consistent", example1_path, "--json")
    assert a == b


# every subcommand that reads a file, with {bad} in the place of the file
# that is not UTF-8 and {net}, {regions} for good ones
_READS_A_FILE = {
    "closure": ("closure", "{bad}"),
    "consistent": ("consistent", "{bad}"),
    "solve": ("solve", "{bad}"),
    "entails": ("entails", "{bad}", "1", "2", "DC"),
    "redundant": ("redundant", "{bad}", "1", "2"),
    "minimal-check": ("minimal-check", "{bad}"),
    "prime": ("prime", "{bad}"),
    "core": ("core", "{bad}"),
    "compare": ("compare", "{bad}"),
    "compare-workers": ("compare", "--workers", "2", "{net}", "{bad}"),
    "geom2net": ("geom2net", "{bad}"),
    "reconstitute-net": ("reconstitute", "{bad}", "{regions}"),
    "reconstitute-regions": ("reconstitute", "{net}", "{bad}"),
}


@pytest.mark.parametrize("key", list(_READS_A_FILE))
def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path, key):
    regions = tmp_path / "regions.json"
    net = tmp_path / "scene.net"
    assert run(capsys, "gen-regions", "-n", "3", "-o", str(regions))[0] == 0
    assert run(capsys, "geom2net", str(regions), "-o", str(net))[0] == 0
    bad = tmp_path / "latin1"
    bad.write_bytes(b'calculus RCC8\nvars 2\n1 2 DC # caf\xe9\n'
                    if key != "geom2net" and not key.endswith("regions")
                    else b'{"regions": [{"id": "caf\xe9", "ring": []}]}')
    argv = [arg.format(bad=bad, net=net, regions=regions)
            for arg in _READS_A_FILE[key]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8" in err
