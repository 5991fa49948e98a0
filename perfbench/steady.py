#!/usr/bin/env python3
"""Steadiness check: two sets of ten runs of the same build, alternating.

Run from the root of a checkout:

    python3 perfbench/steady.py

Both sets run every workload in BENCHMARK.json once per seed 1..10, so
within a set the seeds vary as between a benchmark's runs, and the two sets
see the same inputs. Rounds alternate which set runs first. For every
workload and end-to-end metric it prints each set's median and quartiles and
the quartile spread as a share of the median, then says whether the sets
agree within the bounds in BENCHMARK.json: every spread except setup_s's
within its bound, set B's median no worse than set A's by more than the
bound, and the same share of failed operations in both sets. Exits 1 if not.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SETS = "AB"


def run_once(config, workload, seed):
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = [w["name"] for w in config["workloads"]]
    results = {s: {w: [] for w in workloads} for s in SETS}
    for i in range(RUNS):
        for s in SETS if i % 2 == 0 else SETS[::-1]:
            for w in workloads:
                results[s][w].append(run_once(config, w, i + 1))
                print(f"round {i + 1}/{RUNS} set {s} {w} done", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        shares = []
        for s in SETS:
            runs = results[s][w]
            shares.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
            correct = all(r["correct"] for r in runs)
            print(f"set {s}: failed share {shares[-1]:.6f}, all correct: {correct}")
            ok &= correct
        ok &= shares[0] == shares[1]
        print(f"{'metric':<20} {'set':<4} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for s in SETS:
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians[s] = med
                verdict = "ok" if name == "setup_s" or spread <= bound else "SPREAD"
                ok &= verdict == "ok"
                print(f"{name:<20} {s:<4} {q1:>12.4f} {med:>12.4f} {q3:>12.4f} "
                      f"{spread:>8.3f} {bound:>6.2f}  {verdict}")
            a, b = medians["A"], medians["B"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok &= worse <= bound
            print(f"{'':<20} B vs A: {worse:+.3f} of A's median "
                  f"({'within' if worse <= bound else 'OUTSIDE'} bound)")
    print("\nsets agree within BENCHMARK.json bounds" if ok else "\nNOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
