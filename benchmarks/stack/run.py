#!/usr/bin/env python3
"""BENCH_stack: one end-to-end + per-layer benchmark for the managed farm.

    python3 benchmarks/stack/run.py --workload echo_dist --seed 1 --seconds 20 --trace 0
    python3 benchmarks/stack/run.py --workload all [--traced] [--quick] [--out DIR]

One workload runs in this process: it generates its inputs from
``--seed``, measures for about ``--seconds``, checks every result, prints
every metric by name with unit and sample count, and ends its standard
output with one JSON line — ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end set of ``BENCHMARK.json`` untraced, the
per-layer set traced).  ``--workload all`` runs each workload in a fresh
child process and writes ``result.json`` (and, traced, ``trace.jsonl``)
under ``--out``.  The exit code is non-zero when any result was missing,
wrong, duplicated, dead-lettered or wrongly refused.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# the farms hand sys.path to their worker processes, so this is also how
# the workers find the kernels (this directory is already sys.path[0])
sys.path.insert(1, os.path.join(ROOT, "src"))

QUICK_SECONDS = 3
TRACED_WORKLOAD_SHARE = 0.5


def load_contract():
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("benchmarks/stack/run.py: no src/repro beside it; run it inside a checkout of the repo")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def environment(seed):
    from repro.runtime.dist_proto import available_codecs, negotiate_codec

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "codec": negotiate_codec(available_codecs(), trusted=True),
        "git_commit": commit or "unknown",
        "seed": seed,
        "loadavg_1min": os.getloadavg()[0],
    }


def reap_children():
    """Wait for every child this process started; returns how many were
    still running (a farm that leaves a worker behind has failed)."""
    import workloads

    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            return 0
    running = workloads.child_pids()
    for pid in running:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return len(running)


def run_one(args):
    """Run one workload here; returns its full record."""
    import lab
    import spans
    import workloads

    workloads.pin_harness()
    tracer = spans.Tracer() if args.trace else spans.OFF
    workdir = os.path.join(args.out or os.path.join(HERE, "out"), f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = environment(args.seed)
    # a traced run splits its time between the workload and the layer lab
    seconds = args.seconds * (TRACED_WORKLOAD_SHARE if args.trace else 1.0)
    run = workloads.Run(args.workload, args.seed, seconds, tracer, workdir, quick=args.quick)
    cpu0 = workloads.cpu_seconds()
    t0 = time.perf_counter()
    try:
        if args.selftest_bad_kernel:
            workloads.echo_dist(run, kernel=workloads.kernels.echo_corrupting)
        else:
            workloads.WORKLOADS[args.workload](run)
        run.finish()
        leftovers = reap_children()
        # RUSAGE_CHILDREN counts a worker only once it has been reaped
        run.detail["whole_run_cpu_s_per_ktask"] = (
            (workloads.cpu_seconds() - cpu0) * 1000.0 / run.attempted
        )
        run.end_to_end["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if args.trace:
            tracer.scope = f"{args.workload}/lab/0"
            run.layers.update(
                lab.measure(tracer, args.seed, args.seconds, workdir, run.size(lab.LADDER_TASKS))
            )
            leftovers += reap_children()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not args.out:
            try:
                os.rmdir(os.path.dirname(workdir))  # leave no empty out/ behind
            except OSError:
                pass
    run.failed += leftovers
    run.end_to_end["failed_share"] = run.failed / max(1, run.attempted)
    record = {
        "workload": args.workload,
        "traced": bool(args.trace),
        "quick": bool(args.quick),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - t0,
        "environment": env,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": run.end_to_end,
        "samples": run.samples,
        "per_layer": {
            name: dict(zip(("value", "unit", "n"), cell)) for name, cell in run.layers.items()
        },
        "detail": run.detail,
    }
    if args.trace:
        record["self_times"] = tracer.self_times()
        if args.out:
            tracer.write_jsonl(os.path.join(args.out, f"trace-{args.workload}.jsonl"))
    if args.out:
        with open(os.path.join(args.out, f"{args.workload}.json"), "w") as handle:
            json.dump(record, handle, indent=1)
    return record


def report(record, contract):
    """Every metric by name with unit (and sample count where it has one);
    returns the driver's ``metrics`` object."""
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    print(f"== {record['workload']}  ({'traced' if record['traced'] else 'untraced'}, "
          f"{record['wall_s']:.1f} s wall, {record['attempted']} tasks, "
          f"{record['failed']} failed)")
    for name, value in record["end_to_end"].items():
        note = f"  n={record['samples'][name]}" if name in record["samples"] else ""
        gated = "" if name in units else "  (not gated)"
        print(f"  {name:34s} {value:14.4f} {units.get(name, ''):8s}{note}{gated}")
    for name, cell in sorted(record["per_layer"].items()):
        note = f"  n={cell['n']}" if "n" in cell else ""
        print(f"  {name:34s} {cell['value']:14.4f} {cell['unit']:8s}{note}")
    if record["traced"]:
        report_ladder(record["per_layer"])
    if record["traced"]:
        wanted = {m["name"]: m["unit"] for m in contract["per_layer"]}
        have = record["per_layer"]
    else:
        wanted = units
        have = {n: {"value": v, "unit": units.get(n, "")} for n, v in record["end_to_end"].items()}
    missing = sorted(set(wanted) - set(have))
    if missing:
        raise SystemExit(f"metrics named in BENCHMARK.json were not measured: {missing}")
    return {name: {"value": have[name]["value"], "unit": unit} for name, unit in wanted.items()}


def report_ladder(per_layer):
    """Each rung beside the rung it adds a layer to; along the managed
    chain the deltas sum to the top rung."""
    import lab

    def rung(name):
        return per_layer[f"ladder.{name}.us_per_task"]["value"]

    print("  ladder: us/task of each rung over the rung it extends")
    for name, base in lab.EXTENDS.items():
        print(f"    {name:22s} {rung(name):9.2f} = {base:20s} {rung(base):9.2f} {rung(name) - rung(base):+9.2f}")
    chain, total = "dist_managed", 0.0
    while chain in lab.EXTENDS:
        total += rung(chain) - rung(lab.EXTENDS[chain])
        chain = lab.EXTENDS[chain]
    print(f"    {chain} {rung(chain):.2f} + deltas {total:.2f} = dist_managed {rung('dist_managed'):.2f}")


def run_all(args, names):
    """Each workload in a fresh child process; merge into result.json."""
    out = args.out or os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    records = []
    status = 0
    for name in names:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)), "--out", out,
        ] + (["--quick"] if args.quick else [])
        child = subprocess.run(cmd)
        status = status or child.returncode
        path = os.path.join(out, f"{name}.json")
        if os.path.exists(path):
            with open(path) as handle:
                records.append(json.load(handle))
            os.unlink(path)
    result = {
        "quick": bool(args.quick),
        "traced": bool(args.trace),
        "seed": args.seed,
        "workloads": {r["workload"]: r for r in records},
    }
    with open(os.path.join(out, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    if args.trace:
        with open(os.path.join(out, "trace.jsonl"), "w") as merged:
            for name in names:
                part = os.path.join(out, f"trace-{name}.jsonl")
                if os.path.exists(part):
                    with open(part) as handle:
                        shutil.copyfileobj(handle, merged)
                    os.unlink(part)
    print(f"wrote {os.path.join(out, 'result.json')}")
    return status or int(len(records) != len(names))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload, a comma-separated list (run in that order), or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring budget per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--out", default=None, help="directory for result.json / trace.jsonl")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run; its result.json is refused by compare.py")
    parser.add_argument("--selftest-bad-kernel", action="store_true",
                        help="echo_dist with a kernel that corrupts 1%% of results: must fail")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.selftest_bad_kernel:
        args.workload, args.quick = "echo_dist", True
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else contract["run_seconds"]
    known = [w["name"] for w in contract["workloads"]]
    names = known if args.workload == "all" else args.workload.split(",")
    if not set(names) <= set(known):
        parser.error(f"unknown workload in {args.workload!r}; choose from {', '.join(known)}")
    if len(names) > 1:
        return run_all(args, names)
    record = run_one(args)
    metrics = report(record, contract)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
