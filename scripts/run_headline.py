#!/usr/bin/env python3
"""End-to-end demonstration run at the calibrated working point.

Simulates one 245-trial experiment, analyses it with both hypothesis tests,
audits every trial against the locality conditions, and prints the headline
numbers next to the model's predictions. A run too short to fill all four
setting pairs exits 2 with one ``error:`` line.

Usage: python scripts/run_headline.py [--seed N] [--trials N]
"""

import argparse
import math
import sys

from bellsim import bell_stats, engine, heralding, optimizer, quantum, spacetime
from bellsim.config import default_config, herald_probability


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    args = parser.parse_args()
    if args.trials is not None and args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")

    cfg = default_config()
    seed = args.seed if args.seed is not None else cfg.experiment.seed
    trials = args.trials if args.trials is not None else cfg.experiment.trials

    herald = cfg.heralded_state()
    fidelity = quantum.singlet_fidelity(herald.spin_state)
    s_pred = optimizer.expected_s(herald.spin_state, cfg.readout_model("A"),
                                  cfg.readout_model("B"), cfg.basis_set())
    p_attempt = herald_probability(cfg.link)

    print("model predictions")
    print(f"  heralded-state fidelity      {fidelity:.4f}")
    print(f"  herald probability/attempt   {p_attempt:.3e}")
    print(f"  expected S at eps=0.026 pi   {s_pred:.4f}")
    vis = heralding.hom_visibility(cfg.heralding.hom_counts_indistinguishable,
                                   cfg.heralding.hom_counts_distinguishable)
    print(f"  visibility estimate          {vis.value:.3f} +- {vis.sigma:.3f}")

    log = engine.run_experiment(cfg, n_trials=trials, seed=seed)
    hours = sum(r.attempts for r in log.records) * cfg.link.attempt_period_ns / 3600e9
    try:
        result = bell_stats.analyze_records(log.records, tau_out=cfg.rng.tau_out,
                                            win_adjustment=cfg.statistics.win_adjustment)
    except bell_stats.MissingSettingError as exc:
        print(f"error: {trials} trials: {exc}", file=sys.stderr)
        return 2

    print(f"\nsimulated run (seed {seed}, {trials} trials, ~{hours:.0f} h of attempts)")
    print(f"  S                            {result.s:.3f} +- {result.sigma_s:.3f}")
    print(f"  wins k                       {result.k} of {result.n}  (I = {result.i:.3f})")
    print(f"  conventional p-value         {result.p_conventional:.4f}")
    print(f"  memory-robust p-value        {result.p_complete:.4f}")

    geometry = cfg.spacetime_geometry()
    budget = cfg.timing_budget()
    worst = math.inf
    failures = 0
    for rec in log.records:
        report = spacetime.audit_trial(engine.record_events(rec), geometry, budget)
        worst = min(worst, report.min_margin_ns)
        failures += 0 if report.all_pass else 1
    print("\nlocality audit")
    print(f"  separation window            {geometry.light_times_ns[0]:.1f} ns")
    print(f"  worst margin over run        {worst:.1f} ns "
          f"(allowance {budget.sync_allowance_ns:.0f} ns)")
    print(f"  failing trials               {failures}")
    return 0 if failures == 0 else 3


if __name__ == "__main__":
    raise SystemExit(main())
