#!/usr/bin/env python3
"""Compare two result.json files of ``run.py --workload all``.

    python3 benchmarks/stack/compare.py A.json B.json

Per workload × end-to-end metric: both values, B's relative difference
from A, the regression bound, and a verdict.  The bounds are the ones in
``BENCHMARK.json``; the two metrics that file cannot carry — because the
driver wants every gated metric on every workload and never 0 — are
bounded here.  Exits non-zero when B is worse than A by more than a
bound anywhere, or when ``failed_share`` rose (or is non-zero).  Run on
two results of one commit this is the A/A check; on parent and change it
is the before/after table a PR pastes.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: end-to-end metrics BENCHMARK.json cannot list: (better, bound)
EXTRA = {
    # adapt_recover only.  One run has eight faults of 1-8 ticks each, and
    # ten runs of one commit ranged 0.19-0.29 s: a pair of runs resolves no
    # less than this, and a claim on the metric needs ten pairs
    "out_of_contract_s_per_fault": ("lower", 0.5),
}


def load(path):
    with open(path) as handle:
        result = json.load(handle)
    if result.get("quick"):
        raise SystemExit(f"{path}: a --quick result is a smoke run, not a measurement")
    if result.get("traced"):
        raise SystemExit(f"{path}: end-to-end metrics come from the untraced set")
    return result


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    a, b = load(argv[1]), load(argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    rules = {m["name"]: (m["better"], m["bound"]) for m in contract["end_to_end"]}
    rules.update(EXTRA)
    breaches = 0
    print(f"{'workload':16s} {'metric':30s} {'A':>14s} {'B':>14s} {'diff':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        ra, rb = a["workloads"].get(workload), b["workloads"].get(workload)
        if ra is None or rb is None:
            print(f"{workload:16s} missing from {'A' if ra is None else 'B'}")
            breaches += 1
            continue
        for name, va in ra["end_to_end"].items():
            vb = rb["end_to_end"].get(name)
            if vb is None:
                continue
            if name == "failed_share":
                bad = vb > va or vb > 0
                print(f"{workload:16s} {name:30s} {va:14.6f} {vb:14.6f} {'':>8s} {'0':>6s}  "
                      f"{'BREACH' if bad else 'ok'}")
                breaches += bad
                continue
            better, bound = rules[name]
            diff = (vb - va) / va if va else float("inf")
            worse = diff if better == "lower" else -diff
            bad = worse > bound
            print(f"{workload:16s} {name:30s} {va:14.4f} {vb:14.4f} {diff:+8.1%} {bound:6.0%}  "
                  f"{'BREACH' if bad else 'ok'}")
            breaches += bad
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
