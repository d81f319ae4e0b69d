"""Steadiness check: run a workload N times, each in a fresh process with
its own seed, and print each end-to-end metric's median, quartiles,
quartile spread and max/min ratio next to its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload segmap --runs 10
    python3 perfbench/steady.py --workload qsort --runs 10 --sets 2

With ``--sets 2`` the runs of two sets alternate (A, B, A, B, ...), and
the second set's median is compared with the first's, as a regression
check between two identical commits would.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ns = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in bench["end_to_end"]}
    seconds = ns.seconds or bench["run_seconds"]
    sets = [[] for _ in range(ns.sets)]
    seed = ns.first_seed
    for i in range(ns.runs):
        for runs in sets:
            res = one_run(ns.workload, seed, seconds)
            seed += 1
            runs.append(res)
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"seed {seed - 1}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"{vals}", flush=True)
    names = list(sets[0][0]["metrics"])
    medians = []
    for k, runs in enumerate(sets):
        print(f"\nset {k + 1}: {len(runs)} runs of {ns.workload}, "
              f"{seconds:g} s each")
        print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'max/min':>8} {'bound':>6}")
        meds = {}
        for m in names:
            vals = [r["metrics"][m]["value"] for r in runs]
            med, q1, q3, rel = spread(vals)
            meds[m] = med
            bound = bounds.get(m, (float("nan"), ""))[0]
            flag = "" if m == "setup_s" or rel <= bound / 3 else \
                "  <- above bound/3" if rel <= bound else "  <- ABOVE BOUND"
            print(f"{m:18} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.4f} "
                  f"{max(vals) / min(vals):8.3f} {bound:6.3f}{flag}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"failed share: {sorted(shares)}")
        medians.append(meds)
    if ns.sets == 2:
        print("\nset 2 median against set 1 median:")
        for m in names:
            bound, better = bounds.get(m, (float("nan"), "lower"))
            a, b = medians[0][m], medians[1][m]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            print(f"{m:18} {worse:+8.4f} (bound {bound:.3f})"
                  f"{'  <- WORSE THAN BOUND' if worse > bound else ''}")


if __name__ == "__main__":
    main()
