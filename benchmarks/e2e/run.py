#!/usr/bin/env python3
"""Deltas-to-fresh-answer benchmark: SVC at m = 10 % versus full IVM.

    run.py --workload W --seed N --seconds S --trace 0|1   one workload
    run.py [--seed N]                                     the suite → BENCH_13
    run.py --aa K                                         A/A evidence → AA_13

The last line of standard output of a workload run is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``).  Every workload runs in a process of its own with
``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 13
PR = 13
MANIFEST = harness.MANIFEST
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


def measure(workload: str, seed: int, seconds: int, trace: bool,
            smoke: bool) -> dict:
    """Run one workload in this process; returns its outcome."""
    if workload == "serve_mixed":
        import serve

        return serve.run_workload(seed, seconds, trace, smoke)
    import batch

    return batch.run_workload(workload, seed, seconds, trace, smoke)


def result_object(outcome: dict, trace: bool) -> dict:
    """The contract's result: the declared metrics of this trace mode.

    The contract wants a number for every declared metric on every
    workload.  A per-layer metric of a layer the workload never enters is
    null everywhere else this benchmark reports (with the reason, see
    ``report``); here it is what the span machinery measures for that
    layer: the duration of a span around nothing (time units), else 0.
    """
    run = outcome["run"]
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    out = {}
    for metric in declared:
        value = outcome["metrics"].get(metric["name"])
        if value is None:
            start = harness.now()
            empty_span = harness.now() - start
            value = empty_span if metric["unit"] in ("s", "ms") else 0.0
        out[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": out,
    }


def report(workload: str, outcome: dict, trace: bool) -> dict:
    """Print every metric by name and unit, then the result line."""
    units = {m["name"]: m["unit"]
             for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    run = outcome["run"]
    print(f"# {workload}  trace={int(trace)}  {json.dumps(outcome['diag'])}")
    for name, value in outcome["metrics"].items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    for name, why in outcome["nulls"].items():
        print(f"{name:42s} null ({why})")
    print(f"ops_attempted {run.attempted}")
    print(f"ops_failed {run.failed}")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("ALL " + json.dumps(
        {**outcome["metrics"], **dict.fromkeys(outcome["nulls"])}))
    result = result_object(outcome, trace)
    print(json.dumps(result))
    return result


def pinned_env() -> dict:
    """The environment of every measuring process: a fixed hash seed, so
    set and dict orders — and with them the work — repeat."""
    return {**os.environ, "PYTHONHASHSEED": "0"}


def spawn(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One workload in a fresh process; returns result + all metrics."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    done = subprocess.run(cmd, env=pinned_env(), capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} (seed {seed}) exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-4000:]}")
    everything = next(json.loads(line[4:]) for line in reversed(lines)
                      if line.startswith("ALL "))
    return {"result": json.loads(lines[-1]), "all": everything}


# ----------------------------------------------------------------------
# Suite and A/A
# ----------------------------------------------------------------------
def suite(seed: int, seconds: int) -> None:
    """All four workloads, untraced and traced; archives BENCH_<PR>.json
    (a seed other than the default archives beside it)."""
    out = {"pr": PR, "seed": seed, "seconds": seconds,
           "commit": harness.commit_id(), "machine": harness.machine_info(),
           "workloads": {}}
    for workload in WORKLOAD_NAMES:
        plain = spawn(workload, seed, seconds, trace=False)
        traced = spawn(workload, seed, seconds, trace=True)
        out["workloads"][workload] = {
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "attempted": plain["result"]["attempted"],
            "failed": plain["result"]["failed"] + traced["result"]["failed"],
            "end_to_end": {name: plain["all"][name]
                           for name in harness.END_TO_END},
            "per_layer": {name: traced["all"][name]
                          for name in harness.PER_LAYER},
        }
        print(f"{workload}: " + ", ".join(
            f"{name}={plain['all'][name]:.4g}" for name in harness.END_TO_END))
    harness.RESULTS.mkdir(exist_ok=True)
    suffix = "" if seed == DEFAULT_SEED else f"_seed{seed}"
    path = harness.RESULTS / f"BENCH_{PR}{suffix}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def aa(runs: int, seed: int, seconds: int) -> None:
    """Two sets of ``runs`` suites on unchanged code, one seed per suite
    (the same seeds in both sets), alternating workload order.

    Per metric × workload: median, quartiles and IQR ÷ median of each
    set, how much worse the second set's median is than the first's, and
    the worst deviation between two runs at one seed.
    """
    better = {m["name"]: m["better"]
              for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    seeds = [seed + i for i in range(runs)]
    values = [dict(), dict()]
    for set_id in range(2):
        for i, run_seed in enumerate(seeds):
            order = WORKLOAD_NAMES if (i + set_id) % 2 == 0 else WORKLOAD_NAMES[::-1]
            for workload in order:
                got = spawn(workload, run_seed, seconds, trace=False)
                if not got["result"]["correct"]:
                    raise SystemExit(f"{workload} seed {run_seed}: not correct")
                for name, value in got["all"].items():
                    if value is not None:
                        values[set_id].setdefault(workload, {}).setdefault(
                            name, []).append(value)
            print(f"set {set_id + 1} seed {run_seed} done", file=sys.stderr)

    table = {}
    for workload in WORKLOAD_NAMES:
        table[workload] = {}
        for name in values[0][workload]:
            first, second = values[0][workload][name], values[1][workload][name]
            row = {
                "first": harness.spread(first), "second": harness.spread(second),
                "second_median_worse_by": worse_by(
                    harness.spread(first)["median"],
                    harness.spread(second)["median"], better[name]),
                "worst_pair_deviation": max(
                    abs(worse_by(a, b, better[name]))
                    for a, b in zip(first, second)),
                "values": [first, second],
            }
            table[workload][name] = row
            print(f"{workload:16s} {name:36s} median {row['first']['median']:.5g}"
                  f"  iqr/med {row['first']['iqr_over_median']:.4f}"
                  f" / {row['second']['iqr_over_median']:.4f}"
                  f"  2nd worse by {row['second_median_worse_by']:+.4f}"
                  f"  worst pair {row['worst_pair_deviation']:.4f}")
    out = {"pr": PR, "runs_per_set": runs, "seeds": seeds, "seconds": seconds,
           "commit": harness.commit_id(), "machine": harness.machine_info(),
           "table": table}
    harness.RESULTS.mkdir(exist_ok=True)
    path = harness.RESULTS / f"AA_{PR}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the tier-1 smoke test)")
    parser.add_argument("--aa", type=int, nargs="?", const=5, metavar="K",
                        help="A/A mode: two sets of K suites")
    args = parser.parse_args(argv)

    if args.aa:
        aa(args.aa, args.seed, args.seconds)
        return 0
    if args.workload is None:
        suite(args.seed, args.seconds)
        return 0
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same process id, fresh interpreter: the hash seed only takes
        # effect at start-up.
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"),
                                   *(argv or sys.argv[1:])], pinned_env())
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    finally:
        # On every path out: no process started here outlives the run.
        harness.end_child_processes()
    result = report(args.workload, outcome, bool(args.trace))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
