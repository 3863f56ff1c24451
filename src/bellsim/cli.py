"""Command-line front end.

Subcommands: characterize | simulate | analyze | audit | optimize.
Exit codes: 0 success, 1 usage error, 2 data error, 3 scientific failure
(a locality condition failed the audit). Tabular reports are CSV with fixed
column orders and '.' decimal separator; structured results are JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import bell_stats, engine, heralding, logio, optimizer, quantum, spacetime
from .config import ConfigError, SimulationConfig, default_config, load_config
from .readout import observable_components

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SCIENCE = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _run_budget(convert, ok, rule: str):
    """argparse type for a run-budget flag: ``convert`` the text, then require ``ok``."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
    return parse


def _load(args) -> SimulationConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


def _emit_json(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header, rows) -> None:
    if path:
        fh = open(path, "w", newline="", encoding="utf-8")
    else:
        fh = sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            fh.close()


def _read_log(path):
    try:
        return logio.read_log(path)
    except FileNotFoundError as exc:
        raise DataError(f"cannot read log: {exc}") from exc
    except logio.LogFormatError as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---- characterize -----------------------------------------------------------


def _colinear_correlations(cfg: SimulationConfig) -> list[tuple[str, str, float]]:
    """Expected correlations for co-linear readout (Z-Z and X-X axes)."""
    tensor = quantum.correlation_tensor(cfg.heralded_state().spin_state)
    model_a = cfg.readout_model("A")
    model_b = cfg.readout_model("B")
    rows = []
    for basis_name, theta in (("ZZ", 0.0), ("XX", math.pi / 2)):
        u_a = observable_components(model_a, theta)
        for orientation, theta_b in (("parallel", theta), ("antiparallel", theta + math.pi)):
            u_b = observable_components(model_b, theta_b)
            rows.append((basis_name, orientation, float(u_a @ tensor @ u_b)))
    return rows


def cmd_characterize(args) -> int:
    cfg = _load(args)
    herald = cfg.heralded_state()
    fidelity = quantum.fidelity_to_pure(herald.spin_state, quantum.psi_minus())
    visibility = heralding.hom_visibility(
        cfg.heralding.hom_counts_indistinguishable,
        cfg.heralding.hom_counts_distinguishable,
    )
    spin_photon_rows = []
    for side in ("A", "B"):
        state = heralding.spin_photon_state(side, cfg.spin_photon_errors)
        rho = state.density_matrix()
        for bin_idx, bin_name in enumerate(("early", "late")):
            p_bin = float(np.real(rho[0 * 2 + bin_idx, 0 * 2 + bin_idx]
                                  + rho[1 * 2 + bin_idx, 1 * 2 + bin_idx]))
            p_up = float(np.real(rho[bin_idx, bin_idx])) / p_bin
            spin_photon_rows.append((side, bin_name, p_up, 1.0 - p_up))
    colinear = _colinear_correlations(cfg)
    correlations = bell_stats.expected_correlations(
        herald.spin_state, cfg.readout_model("A"), cfg.readout_model("B"), cfg.basis_set()
    )
    summary = {
        "heralded_fidelity": fidelity,
        "herald_pattern_probability": herald.probability,
        "herald_probability_per_attempt": engine.herald_probability(cfg.link),
        "visibility": {"value": visibility.value, "sigma": visibility.sigma},
        "expected_correlations": {f"{a}{b}": e for (a, b), e in sorted(correlations.items())},
        "expected_s": bell_stats.chsh_combination(correlations),
        "readout_fidelity_a": cfg.readout_model("A").fidelities,
        "readout_fidelity_b": cfg.readout_model("B").fidelities,
    }
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "spin_photon_correlations.csv",
               ("side", "time_bin", "p_spin_up", "p_spin_down"), spin_photon_rows)
    _write_csv(out / "setting_correlations.csv",
               ("basis", "orientation", "expected_correlation"), colinear)
    _emit_json(summary, None)
    return EXIT_OK


# ---- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _load(args)
    log = engine.run_experiment(cfg, n_trials=args.n, hours=args.hours, seed=args.seed)
    if args.stamp:
        log.created = datetime.now(timezone.utc).isoformat()
    out = args.out or "bell_trials.jsonl"
    try:
        logio.write_log(log, out)
    except OSError as exc:
        raise DataError(f"cannot write log to {out}: {exc}") from exc
    print(f"wrote {len(log)} trials to {out}" + (" (partial)" if log.partial else ""))
    return EXIT_OK


# ---- analyze ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    cfg = _load(args)
    log = _read_log(args.logfile)
    tau = args.tau if args.tau is not None else cfg.rng.tau_out
    try:
        result = bell_stats.analyze_records(log.records, tau_out=tau,
                                            win_adjustment=cfg.statistics.win_adjustment)
    except bell_stats.StatisticsError as exc:
        raise DataError(str(exc)) from exc
    if args.curve:
        rows = bell_stats.p_vs_i_curve(result.n, tau_out=tau,
                                       win_adjustment=cfg.statistics.win_adjustment)
        _write_csv(args.curve, ("k", "I", "p_complete", "p_conventional"),
                   [(r.k, r.i, r.p_complete, r.p_conventional) for r in rows])
    _emit_json({**result.to_dict(), "partial": log.partial}, args.out)
    return EXIT_OK


# ---- audit ------------------------------------------------------------------


def cmd_audit(args) -> int:
    cfg = _load(args)
    log = _read_log(args.logfile)
    geometry = cfg.spacetime_geometry()
    budget = cfg.timing_budget()
    rows = []
    any_fail = False
    for rec in log.records:
        report = spacetime.audit_trial(engine.record_events(rec), geometry, budget)
        for check in report.checks:
            rows.append((rec.idx, check.label, f"{check.margin_ns:.1f}",
                         "pass" if check.passed else "fail"))
            any_fail = any_fail or not check.passed
    _write_csv(args.out, ("trial", "condition", "margin_ns", "result"), rows)
    return EXIT_SCIENCE if any_fail else EXIT_OK


# ---- optimize ---------------------------------------------------------------


def cmd_optimize(args) -> int:
    cfg = _load(args)
    opt = cfg.optimizer
    spec = optimizer.OptimizationSpec(
        objective=opt.objective,
        epsilon_min=opt.epsilon_min_pi * math.pi,
        epsilon_max=opt.epsilon_max_pi * math.pi,
        grid_points=opt.grid_points,
        tolerance_rad=opt.tolerance_rad,
    )
    try:
        result = optimizer.optimize(spec, cfg.heralded_state().spin_state,
                                    cfg.readout_model("A"), cfg.readout_model("B"))
    except optimizer.OptimizerError as exc:
        raise DataError(f"optimizer aborted: {exc}") from exc
    payload = {
        "epsilon_rad": result.epsilon,
        "epsilon_pi": result.epsilon / math.pi,
        "angles_rad": {
            "a0": result.basis.a0,
            "a1": result.basis.a1,
            "b0": result.basis.b0,
            "b1": result.basis.b1,
        },
        "objective": opt.objective,
        "objective_value": result.objective_value,
        "expected_s": result.expected_s,
        "degenerate": result.degenerate,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


# ---- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bellsim",
        description="Simulate and certify an event-ready CHSH Bell experiment.",
        epilog="CSV reports use fixed column orders and '.' as decimal separator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", metavar="PATH", help="YAML config (defaults built in)")

    p = sub.add_parser("characterize", help="report the modelled state, visibility, correlations")
    add_config(p)
    p.add_argument("--out", metavar="DIR", help="directory for the CSV reports (default .)")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("simulate", help="run trials and write a JSON-lines log")
    add_config(p)
    p.add_argument("--n", type=_run_budget(int, lambda v: v >= 0, "a count >= 0"),
                   metavar="COUNT", help="number of trials (with neither --n nor --hours: "
                   "the config's experiment.trials and experiment.hours)")
    hours = _run_budget(float, lambda v: 0 < v < math.inf, "finite hours > 0")
    p.add_argument("--hours", type=hours, metavar="H", help="simulated wall-clock budget")
    p.add_argument("--seed", type=int, metavar="U64", help="master seed (default from config)")
    p.add_argument("--out", metavar="PATH", help="log path (default bell_trials.jsonl)")
    p.add_argument("--stamp", action="store_true",
                   help="record the wall-clock creation time (breaks byte-reproducibility)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="estimate S and both p-values from a log")
    add_config(p)
    p.add_argument("logfile", metavar="LOG")
    p.add_argument("--tau", type=float, metavar="FLOAT",
                   help="input excess predictability (default: derived from config)")
    p.add_argument("--out", metavar="PATH", help="write the JSON result here instead of stdout")
    p.add_argument("--curve", metavar="PATH", help="also write the p-versus-I curve CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("audit", help="check every trial against the locality conditions")
    add_config(p)
    p.add_argument("logfile", metavar="LOG")
    p.add_argument("--out", metavar="PATH", help="CSV report path (default stdout)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("optimize", help="choose the readout tilt for the configured model")
    add_config(p)
    p.add_argument("--out", metavar="PATH", help="write the JSON result here instead of stdout")
    p.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
