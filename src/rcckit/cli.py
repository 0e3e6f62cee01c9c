"""Command-line interface.

One subcommand per library capability; all of them read the network file
format and report either as plain text or, with ``--json``, as a stable
versioned JSON document.  Exit codes: 0 for success or a positive
answer, 1 for a negative answer (inconsistent, not entailed, not
redundant), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import algebra, baselines, geometry, network, reasoning, redundancy
from .calculus import RCC5, RCC8, get_calculus, verify_relation_algebra
from .errors import RccError

SCHEMA = 2


def _report(args, command, outcome, metrics=None, artifacts=None, extra=None):
    doc = {
        "schema": SCHEMA,
        "command": command,
        "outcome": outcome,
        "metrics": metrics or {},
        "artifacts": artifacts or [],
    }
    if extra:
        doc.update(extra)
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    return doc


def _resolve_sub(name):
    if name in (None, "auto"):
        return None
    return algebra.by_name(name)


def _write_or_print(args, text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return [path]
    if not args.json:
        sys.stdout.write(text)
    return []


def cmd_verify_tables(args):
    names = ["RCC5", "RCC8"] if args.calculus == "all" else [args.calculus]
    ok = True
    lines = []
    for name in names:
        rep = verify_relation_algebra(get_calculus(name))
        ok &= rep.passed
        lines.append(str(rep))
    _report(args, "verify-tables", "pass" if ok else "fail",
            extra={"reports": lines})
    if not args.json:
        print("\n".join(lines))
    return 0 if ok else 1


def cmd_subalg(args):
    sub = algebra.by_name(args.name)
    members = [sub.calculus.format(m) for m in sub.sorted_masks()]
    _report(args, "subalg", "ok",
            metrics={"members": len(members)},
            extra={"name": sub.name, "calculus": sub.calculus.name,
                   "members": members,
                   "flags": {"contains_all_basic": sub.contains_all_basic,
                             "closed": sub.closed,
                             "distributive": sub.distributive,
                             "tractable": sub.tractable}})
    if not args.json:
        for m in members:
            print(m)
    return 0


def cmd_closure(args):
    net = network.load(args.net)
    res = reasoning.a_closure(net)
    if not res.consistent:
        _report(args, "closure", "inconsistent",
                metrics={"updates": res.updates, "sweeps": res.sweeps},
                extra={"input": net.digest(), "witness": list(res.witness)})
        if not args.json:
            i, k, j = res.witness
            how = "is empty in the input" if k == i else f"emptied via {k + 1}"
            print(f"inconsistent: entry ({i + 1},{j + 1}) {how}")
        return 1
    artifacts = _write_or_print(args, network.save(res.network), args.out)
    _report(args, "closure", "consistent",
            metrics={"updates": res.updates, "sweeps": res.sweeps},
            artifacts=artifacts, extra={"input": net.digest()})
    return 0


def _yes_no(args, yes, no, decide):
    """Load ``args.net`` and report ``decide(net)``: outcome ``yes`` and
    exit 0, or ``no`` and exit 1; text output spells dashes as spaces."""
    net = network.load(args.net)
    ok = decide(net)
    outcome = yes if ok else no
    _report(args, args.command, outcome, extra={"input": net.digest()})
    if not args.json:
        print(outcome.replace("-", " "))
    return 0 if ok else 1


def cmd_consistent(args):
    sub = _resolve_sub(args.subalgebra)
    return _yes_no(args, "consistent", "inconsistent",
                   lambda net: reasoning.is_consistent(net, sub,
                                                       guard=args.guard))


def cmd_solve(args):
    net = network.load(args.net)
    scenario = reasoning.solve(net, guard=args.guard)
    if scenario is None:
        _report(args, "solve", "no-scenario", extra={"input": net.digest()})
        if not args.json:
            print("no consistent scenario")
        return 1
    artifacts = _write_or_print(args, network.save(scenario), args.out)
    _report(args, "solve", "scenario", artifacts=artifacts,
            extra={"input": net.digest()})
    return 0


def cmd_entails(args):
    def decide(net):
        rel = net.calculus.relation(args.relation)
        i, j = net.index_of(args.i - 1), net.index_of(args.j - 1)
        return reasoning.entails(net, i, j, rel, guard=args.guard)

    return _yes_no(args, "entailed", "not-entailed", decide)


def cmd_redundant(args):
    return _yes_no(args, "redundant", "not-redundant",
                   lambda net: redundancy.is_redundant(
                       net, net.index_of(args.i - 1),
                       net.index_of(args.j - 1), guard=args.guard))


def cmd_minimal_check(args):
    return _yes_no(args, "minimal", "not-minimal",
                   lambda net: reasoning.check_minimal(net, guard=args.guard))


def _pairs_1based(pairs):
    return [[i + 1, j + 1] for i, j in sorted(pairs)]


def cmd_prime(args):
    net = network.load(args.net)
    order = None
    if args.order:
        order = []
        for chunk in args.order.split(","):
            try:
                a, b = (int(x) for x in chunk.split("-"))
            except ValueError:
                raise RccError(f"malformed --order pair {chunk!r}; "
                               "expected I-J") from None
            order.append((net.index_of(a - 1), net.index_of(b - 1)))
    t0 = time.perf_counter()
    rep = redundancy.prime(net, order, _resolve_sub(args.subalgebra),
                           guard=args.guard)
    elapsed = time.perf_counter() - t0
    artifacts = _write_or_print(args, network.save(rep.network), args.out)
    _report(args, "prime", "ok",
            metrics={"checks": rep.checks, "seconds": elapsed},
            artifacts=artifacts,
            extra={"input": net.digest(), "method": rep.method,
                   "removed": _pairs_1based(rep.nontrivial),
                   "kept": _pairs_1based(rep.network.constraint_pairs())})
    if not args.json:
        print(f"method {rep.method}: removed {len(rep.nontrivial)} "
              f"constraints, kept {rep.network.constraint_count()}")
    return 0


def cmd_core(args):
    net = network.load(args.net)
    t0 = time.perf_counter()
    rep = redundancy.core(net, guard=args.guard)
    elapsed = time.perf_counter() - t0
    artifacts = _write_or_print(args, network.save(rep.network), args.out)
    _report(args, "core", "ok",
            metrics={"checks": rep.checks, "seconds": elapsed},
            artifacts=artifacts,
            extra={"input": net.digest(),
                   "redundant": _pairs_1based(rep.redundant),
                   "trivially_redundant":
                       _pairs_1based(rep.trivially_redundant)})
    if not args.json:
        print(f"core kept {rep.network.constraint_count()} constraints; "
              f"{len(rep.nontrivial)} non-trivial redundant")
    return 0


def _map(func, workers, *columns):
    """func over the argument columns, in a pool of min(workers, items,
    CPUs) processes when that is more than one and a pool can be
    started."""
    if workers < 1:
        raise RccError(f"--workers must be at least 1, not {workers}")
    size = min(workers, len(columns[0]), os.cpu_count() or 1)
    if size > 1:
        import concurrent.futures as cf

        try:
            with cf.ProcessPoolExecutor(max_workers=size) as pool:
                return list(pool.map(func, *columns))
        except OSError as e:
            print(f"worker pool unavailable ({e}); running serially",
                  file=sys.stderr)
    return list(map(func, *columns))


def _compare_one(path, guard):
    rows, _ = baselines.compare([network.load(path)], guard=guard)
    return rows[0]


def cmd_compare(args):
    rows = _map(_compare_one, args.workers, args.nets,
                [args.guard] * len(args.nets))
    if not args.json:
        for name in ("prime", "simpleext"):
            print(f"{name}: kept {[getattr(r, f'{name}_kept') for r in rows]}")
    artifacts = _write_or_print(args, baselines.rows_to_csv(rows), args.out)
    _report(args, "compare", "ok",
            metrics={"instances": len(rows)}, artifacts=artifacts,
            extra={"rows": [vars(r) for r in rows]})
    return 0


def cmd_geom2net(args):
    with open(args.regions, encoding="utf-8") as fh:
        regions = geometry.regions_from_json(fh.read())
    net = geometry.scenario_from_regions(regions)
    artifacts = _write_or_print(args, network.save(net), args.out)
    _report(args, "geom2net", "ok",
            metrics={"regions": len(regions)}, artifacts=artifacts)
    return 0


def cmd_reconstitute(args):
    net = network.load(args.net)
    with open(args.regions, encoding="utf-8") as fh:
        regions = geometry.regions_from_json(fh.read())
    full = geometry.hybrid_reconstitute(net, regions)
    artifacts = _write_or_print(args, network.save(full), args.out)
    _report(args, "reconstitute", "ok", artifacts=artifacts,
            extra={"input": net.digest()})
    return 0


def cmd_gen_regions(args):
    regions = geometry.generate_regions(args.n, args.seed, args.profile)
    text = geometry.regions_to_json(regions)
    artifacts = _write_or_print(args, text + "\n", args.out)
    _report(args, "gen-regions", "ok",
            metrics={"regions": len(regions)}, artifacts=artifacts)
    return 0


def _bench_one(size, seed, profile, sub_name):
    regions = geometry.generate_regions(size, seed, profile)
    scenario = geometry.scenario_from_regions(regions)
    sub = algebra.by_name(sub_name)
    import random as _random

    weak = redundancy.weaken_scenario(scenario, sub,
                                      _random.Random(seed + size))
    rows, _ = baselines.compare([weak])
    return rows[0]


def cmd_bench(args):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise RccError(f"malformed --sizes {args.sizes!r}; expected "
                       "comma-separated integers") from None
    sub_name = args.subalgebra if args.subalgebra not in (None, "auto") \
        else "D8_41"
    rows = _map(_bench_one, args.workers, sizes, [args.seed] * len(sizes),
                [args.profile] * len(sizes), [sub_name] * len(sizes))
    csv_text = baselines.rows_to_csv(rows)
    metrics = {"instances": len(rows)}
    # a fit over fewer than two distinct sizes is meaningless
    if len(set(sizes)) >= 2:
        ns = np.array([r.n for r in rows], dtype=float)
        kept = np.array([r.prime_kept for r in rows], dtype=float)
        times = np.array([max(r.prime_time, 1e-9) for r in rows])
        slope_fit = np.polyfit(np.log(ns), np.log(times), 1)
        lin = np.polyfit(ns, kept, 1)
        pred = np.polyval(lin, ns)
        ss_res = float(((kept - pred) ** 2).sum())
        ss_tot = float(((kept - kept.mean()) ** 2).sum())
        metrics["time_loglog_slope"] = float(slope_fit[0])
        metrics["kept_linear_r2"] = 1.0 - ss_res / ss_tot if ss_tot else 1.0
        metrics["kept_linear_coeff"] = float(lin[0])
    artifacts = _write_or_print(args, csv_text, args.out)
    _report(args, "bench", "ok", metrics=metrics, artifacts=artifacts,
            extra={"rows": [vars(r) for r in rows]})
    if not args.json:
        for key in ("time_loglog_slope", "kept_linear_r2"):
            if key in metrics:
                print(f"{key}: {metrics[key]:.3f}")
    return 0


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*names, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes --json plus only the flags it reads
    common = _flag("--json", action="store_true",
                   help="emit a JSON report instead of plain text")
    seed = _flag("--seed", type=int, default=0,
                 help="seed for the randomized generators")
    workers = _flag("--workers", type=int, default=1,
                    help="worker processes for batch commands")
    guard = _flag("--guard", type=int, default=reasoning.DEFAULT_GUARD,
                  help="size limit for the backtracking oracle")
    subalgebra = _flag("--subalgebra", default="auto",
                       choices=["auto", "BHAT5", "BHAT8", "D5_14", "D5_20",
                                "D8_41", "D8_64", "H5"],
                       help="subalgebra to assume instead of auto-detection")

    parser = argparse.ArgumentParser(
        prog="rcckit",
        description="RCC5/RCC8 reasoning, redundancy, and geometry tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *flags, **kwargs):
        p = sub.add_parser(name, parents=[common, *flags], **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("verify-tables", cmd_verify_tables,
            help="check the embedded tables")
    p.add_argument("calculus", nargs="?", default="all",
                   choices=["RCC5", "RCC8", "all"])

    p = add("subalg", cmd_subalg, help="print a built-in subalgebra")
    p.add_argument("name")

    for name, func, flags, extra_out in (
            ("closure", cmd_closure, (), True),
            ("consistent", cmd_consistent, (guard, subalgebra), False),
            ("solve", cmd_solve, (guard,), True)):
        p = add(name, func, *flags)
        p.add_argument("net")
        if extra_out:
            p.add_argument("-o", "--out")

    p = add("entails", cmd_entails, guard,
            help="does the network entail i REL j?")
    p.add_argument("net")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("relation")

    p = add("redundant", cmd_redundant, guard,
            help="is constraint (i,j) redundant?")
    p.add_argument("net")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)

    p = add("minimal-check", cmd_minimal_check, guard,
            help="is every basic in every entry feasible?")
    p.add_argument("net")

    p = add("prime", cmd_prime, guard, subalgebra,
            help="compute a prime subnetwork")
    p.add_argument("net")
    p.add_argument("-o", "--out")
    p.add_argument("--order",
                   help="iterative removal order, e.g. '1-2,2-3,1-3'")

    p = add("core", cmd_core, guard, help="per-constraint redundancy sweep")
    p.add_argument("net")
    p.add_argument("-o", "--out")

    p = add("compare", cmd_compare, guard, workers,
            help="prime vs SimpleExt")
    p.add_argument("nets", nargs="+")
    p.add_argument("--out")

    p = add("geom2net", cmd_geom2net, help="RCC8 scenario from region JSON")
    p.add_argument("regions")
    p.add_argument("-o", "--out")

    p = add("reconstitute", cmd_reconstitute,
            help="rebuild a full network from prime + geometry")
    p.add_argument("net")
    p.add_argument("regions")
    p.add_argument("-o", "--out")

    p = add("gen-regions", cmd_gen_regions, seed,
            help="deterministic synthetic regions")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--profile", default="mixed",
                   choices=["scattered", "nested", "mixed"])
    p.add_argument("-o", "--out")

    p = add("bench", cmd_bench, seed, workers, subalgebra,
            help="scalability harness")
    p.add_argument("--sizes", default="25,50,100")
    p.add_argument("--profile", default="nested",
                   choices=["scattered", "nested", "mixed"])
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RccError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
