"""Command-line behavior: exit codes, JSON reports, determinism."""

import concurrent.futures as cf
import json

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
    assert json.loads(out)["metrics"] == {"updates": 0, "sweeps": 1}


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


@pytest.mark.parametrize("argv,message", [
    (("redundant", "0", "2"), "variable number 0 out of range 1..5"),
    (("entails", "0", "3", "PP"), "variable number 0 out of range 1..5"),
    (("entails", "1", "9", "DR"), "variable number 9 out of range 1..5"),
    (("prime", "--order", "1-2,x"), "malformed --order pair 'x'"),
    (("entails", "1", "2", "FOO"), "unknown RCC5 basic relation 'FOO'"),
], ids=["redundant-zero", "entails-zero", "entails-past-n", "order-chunk",
        "relation-name"])
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


def test_prime_removes_the_redundant_edge(capsys, example1_path, tmp_path):
    out_path = tmp_path / "prime.net"
    code, out, _ = run(capsys, "prime", example1_path, "-o", str(out_path),
                       "--subalgebra", "H5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "algorithm1"
    assert [1, 2] in doc["removed"]
    net = load(out_path)
    assert net[0, 1].is_universal


def test_prime_with_explicit_order(capsys, example1_path, tmp_path):
    code, out, _ = run(capsys, "prime", example1_path,
                       "--order", "1-2,1-3,1-5,2-4,2-5,3-4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "iterative"
    assert doc["removed"] == [[1, 2]]


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


@pytest.mark.parametrize("sizes", ["a", "8,x", "1.5"])
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
    out_path = tmp_path / "empty.csv"
    code, _, _ = run(capsys, "bench", "--sizes", "", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("n,constraint_total")


def test_json_reports_are_stable(capsys, example1_path):
    _, a, _ = run(capsys, "consistent", example1_path, "--json")
    _, b, _ = run(capsys, "consistent", example1_path, "--json")
    assert a == b
