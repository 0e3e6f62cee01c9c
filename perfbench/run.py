#!/usr/bin/env python3
"""rcckit benchmark: three single-process workloads, end to end and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; it imports rcckit from ``src/``.
With ``--trace 0`` it starts five fresh processes, each of which imports
rcckit, derives the subalgebras and makes the inputs; the median of their
set-up times is ``setup_s``, and the last one also runs the timed loop.
With ``--trace 1`` one process runs with spans and counts around rcckit's
public functions and reports the per-layer metrics.  The last line of
standard output is the result as JSON; a copy with more detail goes to
``perfbench/results/``.  ``--smoke`` runs every workload at tiny size, traced
and untraced, with all checks, in a few seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("prime-weakened", "gis-polygons", "oracle-sweep")
SETUP_PROCESSES = 5
# the whole command must end within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {"op_s.p50": "s", "ops_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    # internal: the fresh process that does the work
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


# -- the fresh process -------------------------------------------------------


def trace_targets():
    from rcckit import (algebra, baselines, geometry, network, reasoning,
                        redundancy)
    from rcckit.calculus import RCC8

    dc = RCC8.parse("DC")

    def on_relation(counts, rel):
        counts["rcc8_relation.dc"] += rel.mask == dc

    def on_closure(counts, res):
        counts["a_closure.updates"] += res.updates

    def on_algorithm1(counts, report):
        counts["core_algorithm1.checks"] += report.checks
        counts["core_algorithm1.redundant"] += len(report.nontrivial)

    def on_save(counts, text):
        counts["save.bytes"] += len(text)

    return [
        (geometry, "scenario_from_regions", "geometry.scenario_from_regions",
         None),
        (geometry, "rcc8_relation", "geometry.rcc8_relation", on_relation),
        (geometry, "hybrid_reconstitute", "geometry.hybrid_reconstitute",
         None),
        (reasoning, "a_closure", "reasoning.a_closure", on_closure),
        (reasoning, "entails", "reasoning.entails", None),
        (reasoning, "is_consistent", "reasoning.is_consistent", None),
        (reasoning, "detect_tractable", "reasoning.detect_tractable", None),
        (reasoning, "solve", "reasoning.solve", None),
        (redundancy, "core_algorithm1", "redundancy.core_algorithm1",
         on_algorithm1),
        (redundancy, "is_redundant", "redundancy.is_redundant", None),
        (network.Network, "copy", "network.Network.copy", None),
        (network, "save", "network.save", on_save),
        (network, "loads", "network.loads", None),
        (baselines, "simple", "baselines.simple", None),
        (baselines, "simple_ext", "baselines.simple_ext", None),
        (algebra, "maximal_distributive", "algebra.maximal_distributive",
         None),
    ]


def per_layer(tracer, rounds: int) -> dict:
    """Set-up plus one round of operations, for each per-layer metric."""

    def span(name, index):
        return (tracer.stats["setup"][name][index]
                + tracer.stats["ops"][name][index] / rounds)

    def count(key):
        return (tracer.counts["setup"][key]
                + tracer.counts["ops"][key] / rounds)

    def ratio(a, b):
        return a / b if b else 0.0

    calls, total, self_time = 0, 1, 2
    values = {
        "geometry.scenario_from_regions.s":
            (span("geometry.scenario_from_regions", total), "s"),
        "geometry.rcc8_relation.calls":
            (span("geometry.rcc8_relation", calls), "count"),
        "geometry.exact_dc_share":
            (ratio(count("rcc8_relation.dc"),
                   span("geometry.rcc8_relation", calls)), "ratio"),
        "geometry.hybrid_reconstitute.s":
            (span("geometry.hybrid_reconstitute", total), "s"),
        "reasoning.a_closure.s": (span("reasoning.a_closure", total), "s"),
        "reasoning.a_closure.calls":
            (span("reasoning.a_closure", calls), "count"),
        "reasoning.a_closure.updates":
            (count("a_closure.updates"), "count"),
        "redundancy.core_algorithm1.s":
            (span("redundancy.core_algorithm1", self_time), "s"),
        "redundancy.core_algorithm1.checks":
            (count("core_algorithm1.checks"), "count"),
        "redundancy.redundant_per_check":
            (ratio(count("core_algorithm1.redundant"),
                   count("core_algorithm1.checks")), "ratio"),
    }
    for name in ("reasoning.entails", "reasoning.is_consistent",
                 "reasoning.detect_tractable", "reasoning.solve",
                 "redundancy.is_redundant", "network.Network.copy"):
        values[name + ".calls"] = (span(name, calls), "count")
    values["reasoning.solve.s"] = (span("reasoning.solve", total), "s")
    for name in ("baselines.simple", "baselines.simple_ext", "network.save",
                 "network.loads"):
        values[name + ".s"] = (span(name, total), "s")
    values["network.bytes"] = (count("save.bytes"), "bytes")
    values["algebra.maximal_distributive.s"] = (
        span("algebra.maximal_distributive", total), "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def child(args) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rcckit

    if Path(rcckit.__file__).resolve().parent != SRC / "rcckit":
        print(f"rcckit imported from {rcckit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(trace_targets())
        tracer.active = True
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    workloads.prepare(args.workload)
    inputs = workload.inputs(args.seed)
    setup_s = time.perf_counter() - start
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.phase = "ops"
    # the collector no longer walks the set-up's objects, so the collection
    # forced before each operation costs about what the operation left
    gc.collect()
    gc.freeze()
    # the first output of each input, and how many later ones differed
    firsts = [None] * len(inputs)
    changed = [0] * len(inputs)
    op_times = []
    ok_times = []
    failures = []
    rounds = 0
    loop_start = round_start = time.perf_counter()
    while True:
        for index, item in enumerate(inputs):
            gc.collect()
            t0 = time.perf_counter()
            try:
                out = workload.run(item)
            except Exception:
                op_times.append(time.perf_counter() - t0)
                failures.append((index, traceback.format_exc(limit=3)))
                continue
            op_times.append(time.perf_counter() - t0)
            ok_times.append(op_times[-1])
            if firsts[index] is None:
                firsts[index] = out
            elif not workload.same(firsts[index], out):
                changed[index] += 1
        rounds += 1
        # stop at the round boundary nearest to the requested run length
        now = time.perf_counter()
        if now - loop_start + (now - round_start) / 2 >= args.seconds:
            break
        round_start = now
    loop_s = now - loop_start
    if tracer is not None:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"input {index}: {count} outputs differ from the first"
                for index, count in enumerate(changed) if count]
    checked = []
    for index, (item, out) in enumerate(zip(inputs, firsts)):
        if out is None:
            continue
        checked.append((item, out))
        try:
            workload.check(index, item, out)
        except workloads.CheckError as e:
            problems.append(f"input {index}: {e}")
        except Exception:
            problems.append(f"input {index}: check raised "
                            + traceback.format_exc(limit=3))

    if not ok_times:
        print(f"every operation failed; the first: {failures[0][1]}",
              file=sys.stderr)
        return 1
    attempted = len(op_times)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"input {i}: {tb}" for i, tb in failures[:3]],
        "rounds": rounds,
        "op_times_s": op_times,
        "inputs": len(inputs),
        "setup_s": setup_s,
        "op_s.p50": statistics.median(ok_times),
        "ops_per_s": len(ok_times) / loop_s,
        "peak_rss_mb": peak_rss_mb,
        "info": (workload.describe(*map(list, zip(*checked)))
                 if checked else {}),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, rounds)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.dump()))
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


# -- the command -------------------------------------------------------------


def spawn(args, role: str, deadline: float, tiny: bool = False) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another process")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, deadline: float, tiny: bool = False) -> dict:
    """One result: end-to-end metrics untraced, per-layer metrics traced."""
    if args.trace:
        run = spawn(args, "measure", deadline, tiny)
        metrics = run["per_layer"]
    else:
        setups = [spawn(args, "setup", deadline, tiny)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1 if not tiny else 0)]
        run = spawn(args, "measure", deadline, tiny)
        setups.append(run["setup_s"])
        run["setup_runs_s"] = setups
        values = {"op_s.p50": run["op_s.p50"],
                  "ops_per_s": run["ops_per_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    run["metrics"] = metrics
    return run


def smoke() -> int:
    deadline = time.monotonic() + DEADLINE_S
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0,
                                      trace=trace)
            try:
                run = measure(args, deadline, tiny=True)
            except RuntimeError as e:
                ok = False
                print(f"{name} trace={trace}: {e}")
                continue
            ok = ok and run["correct"] and run["failed"] == 0
            print(f"{name} trace={trace}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']} "
                  f"problems={run['problems']} failures={run['failures']}")
    print(json.dumps({"smoke": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child(args)
    if not (SRC / "rcckit" / "__init__.py").is_file():
        print(f"no rcckit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    run = measure(args, time.monotonic() + DEADLINE_S)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(run, indent=1))
    print(json.dumps(run["info"]))
    print(json.dumps({key: run[key] for key in ("correct", "attempted",
                                                "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
