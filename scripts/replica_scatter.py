#!/usr/bin/env python3
"""Distribution of S over many replica experiments at the calibrated point.

Runs N independent replicas (seeds derived from a master seed), prints the
mean and per-run spread of S, and optionally writes the per-replica values
plus the significance curve to CSV for plotting. Fewer than two replicas
(no spread) or no trials is a usage error, exit 2; a replica too short to
fill all four setting pairs exits 2 with one ``error:`` line.

Usage: python scripts/replica_scatter.py [--replicas N] [--master-seed N]
                                         [--csv PATH] [--curve PATH]
"""

import argparse
import csv
import sys

import numpy as np

from bellsim import bell_stats, engine
from bellsim.config import default_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicas", type=int, default=1000)
    parser.add_argument("--master-seed", type=int, default=2025)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--csv", help="write per-replica S, k, p values here")
    parser.add_argument("--curve", help="write the p-versus-I curve here")
    args = parser.parse_args()
    if args.replicas < 2:
        parser.error(f"--replicas must be at least 2 for a per-run spread, got {args.replicas}")
    if args.trials is not None and args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")

    cfg = default_config()
    trials = args.trials if args.trials is not None else cfg.experiment.trials
    tau = cfg.rng.tau_out

    rows = []
    for i in range(args.replicas):
        log = engine.run_experiment(cfg, n_trials=trials,
                                    seed=engine.replica_seed(args.master_seed, i))
        try:
            res = bell_stats.analyze_records(log.records, tau_out=tau,
                                             win_adjustment=cfg.statistics.win_adjustment)
        except bell_stats.MissingSettingError as exc:
            print(f"error: replica {i} of {trials} trials: {exc}", file=sys.stderr)
            return 2
        rows.append((i, res.s, res.sigma_s, res.k, res.p_conventional, res.p_complete))

    s_values = np.array([r[1] for r in rows])
    k_values = np.array([r[3] for r in rows])
    print(f"{args.replicas} replicas of {trials} trials")
    print(f"  mean S        {s_values.mean():.4f}")
    print(f"  per-run sigma {s_values.std(ddof=1):.4f}")
    print(f"  mean k        {k_values.mean():.1f}")
    print(f"  S range       [{s_values.min():.3f}, {s_values.max():.3f}]")
    frac = float(np.mean([r[5] <= 0.05 for r in rows]))
    print(f"  fraction with memory-robust p <= 0.05: {frac:.3f}")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("replica", "S", "sigma_S", "k", "p_conventional", "p_complete"))
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    if args.curve:
        curve = bell_stats.p_vs_i_curve(trials, tau_out=tau,
                                        win_adjustment=cfg.statistics.win_adjustment)
        with open(args.curve, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("k", "I", "p_complete", "p_conventional"))
            writer.writerows((r.k, r.i, r.p_complete, r.p_conventional) for r in curve)
        print(f"wrote {args.curve}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
