#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--runs N] [--workloads cli,replicas,...]
                                [--seconds S]

For each run index, each workload runs once in set A and once in set B, the
set that goes first alternating; every run gets its own seed. For each
(workload, end-to-end metric) the report gives each set's median and
quartiles, the spread (interquartile range over median) of each set and of
both together, and whether set B's median is worse than set A's by more than
the metric's bound in BENCHMARK.json. A spread above the bound fails, except
for setup_s, whose bound applies to the medians only. The runs go to
``perfbench/results/steady-<time>.json``. Exit code 0 when everything holds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    runs = {(w, s): [] for w in workloads for s in "AB"}
    for r in range(args.runs):
        for w in workloads:
            for s in ("AB" if r % 2 == 0 else "BA"):
                seed = 1000 * (1 + "AB".index(s)) + r
                start = time.perf_counter()
                out = run_once(w, seed, args.seconds)
                runs[(w, s)].append(out)
                print(f"run {r} set {s} {w} seed {seed}: {time.perf_counter() - start:.1f} s "
                      + json.dumps({k: v["value"] for k, v in out["metrics"].items()}),
                      flush=True)

    ok = True
    print(f"\n{'workload':<9} {'metric':<17} {'set A median [q1, q3]':<30} "
          f"{'set B median [q1, q3]':<30} {'spread A/B/all':<20} {'drift':>7} {'bound':>6}")
    for w in workloads:
        shares = {s: [o["failed"] / o["attempted"] for o in runs[(w, s)]] for s in "AB"}
        if len(set(shares["A"] + shares["B"])) > 1:
            ok = False
            print(f"{w}: the share of failed operations differs between runs: {shares}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = {s: [o["metrics"][name]["value"] for o in runs[(w, s)]] for s in "AB"}
            sa, sb = spread(vals["A"]), spread(vals["B"])
            s_all = spread(vals["A"] + vals["B"])[3]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (sb[0] - sa[0]) / sa[0]
            agree = drift <= bound
            steady = name == "setup_s" or max(sa[3], sb[3]) <= bound
            ok = ok and agree and steady
            flag = "" if agree and steady else "  <- FAIL"
            if steady and name != "setup_s" and s_all > bound / 3:
                flag = "  (spread above a third of the bound)"
            print(f"{w:<9} {name:<17} {sa[0]:>10.5g} [{sa[1]:.5g}, {sa[2]:.5g}]".ljust(58)
                  + f" {sb[0]:>10.5g} [{sb[1]:.5g}, {sb[2]:.5g}]".ljust(31)
                  + f" {sa[3]:.3f}/{sb[3]:.3f}/{s_all:.3f}".ljust(21)
                  + f" {drift:>+7.3f} {bound:>6.2f}{flag}")
    (ROOT / "perfbench" / "results").mkdir(exist_ok=True)
    out = ROOT / "perfbench" / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({f"{w}/{s}": v for (w, s), v in runs.items()}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; runs written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
