"""Command-line front end.

Subcommands: characterize | simulate | analyze | audit | optimize.
Exit codes: 0 success, 1 usage error, 2 data error, 3 scientific failure
(a locality condition failed the audit). Commands raise; ``main`` alone maps
an exception to its exit code, by the table of ``_failure``. An output path that
names an input or the other output is a usage error, found before any file opens.
A reader that closes stdout early (``bellsim audit LOG | head``) ends the command
quietly with 141, the code a shell gives a command that a closed pipe stopped.
Tabular reports are CSV with fixed column orders and '.' decimal separator;
structured results are JSON. Each command imports, in its own body, the modules
that only it uses, so that a fresh process loads what its command needs and no more.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from . import heralding, spacetime
from .config import ConfigError, OptimizerError, SimulationConfig, default_config, load_config
from .readout import ReadoutBasisSet, chsh_combination, expected_correlations

if TYPE_CHECKING:
    from . import logio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SCIENCE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _run_budget(convert, ok, rule: str):
    """argparse type for a run-budget or seed flag: ``convert`` the text, then require ``ok``."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
    return parse


def _load(args) -> SimulationConfig:
    return load_config(args.config) if args.config else default_config()


def _read_log(args, cfg: SimulationConfig) -> logio.TrialLog:
    """The log at ``args.logfile``, with one stderr warning if another config wrote it."""
    from . import logio
    log = logio.read_log(args.logfile)
    if log.config_hash != (active := cfg.config_hash):
        print(f"warning: {args.logfile} was written under config {log.config_hash[:8]}, "
              f"not the active config {active[:8]}", file=sys.stderr)
    return log


def _same_file(p: str, q: str) -> bool:
    try:
        return os.path.samefile(p, q)
    except OSError:  # a path that does not exist yet: compare where it would be
        return os.path.realpath(p) == os.path.realpath(q)


def _refuse_overwrite(args) -> None:
    """Raise UsageError if an output path (--out, --curve, or a report in
    characterize's --out directory) names an input (LOG, --config) or the other
    output; it runs before any file is opened."""
    outputs = [(f"--{flag}", path) for flag in ("out", "curve")
               if (path := getattr(args, flag, None))]
    if args.func is cmd_characterize:  # --out is a directory: the reports in it count too
        outputs += [("--out", os.path.join(args.out or ".", name)) for name in _REPORTS]
    inputs = [(name, path) for name, path in
              (("LOG", getattr(args, "logfile", None)), ("--config", args.config)) if path]
    for i, (name, path) in enumerate(outputs):
        for other, other_path in outputs[i + 1:] + inputs:
            if _same_file(path, other_path):
                raise UsageError(f"{name} and {other} name the same file: {path}")


def _output(path):
    """``path`` opened for writing text, or stdout when no path is given."""
    return open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout)


def _emit_json(payload: dict, fh) -> None:
    fh.write(json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _write_csv(fh, header, rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---- characterize -----------------------------------------------------------

# the CSV reports characterize writes into its --out directory
_REPORTS = ("spin_photon_correlations.csv", "setting_correlations.csv")


def cmd_characterize(args) -> int:
    from . import quantum
    cfg = _load(args)
    herald = cfg.heralded_state()
    fidelity = quantum.singlet_fidelity(herald.spin_state)
    visibility, errors = cfg.heralding.visibility, cfg.spin_photon_errors
    spin_photon_rows = []
    for side, e_early, e_late in (("A", errors.a_early, errors.a_late),
                                  ("B", errors.b_early, errors.b_late)):
        # ideal: spin up with the early photon, down with the late
        spin_photon_rows += [(side, "early", 1.0 - e_early, e_early),
                             (side, "late", e_late, 1.0 - e_late)]
    model_a, model_b = cfg.readout_model("A"), cfg.readout_model("B")
    colinear = []
    for basis_name, theta in (("ZZ", 0.0), ("XX", math.pi / 2)):
        # A reads along theta; B along theta for b = 0 and theta + pi for b = 1
        e = expected_correlations(herald.spin_state, model_a, model_b,
                                  ReadoutBasisSet(theta, theta, theta, theta + math.pi))
        colinear += [(basis_name, "parallel", e[0, 0]), (basis_name, "antiparallel", e[0, 1])]
    correlations = expected_correlations(herald.spin_state, model_a, model_b, cfg.basis_set())
    summary = {
        "heralded_fidelity": fidelity,
        "herald_pattern_probability": herald.probability,
        "herald_probability_per_attempt": cfg.link.herald_probability,
        "visibility": {"value": visibility.value, "sigma": visibility.sigma},
        "expected_correlations": {f"{a}{b}": e for (a, b), e in sorted(correlations.items())},
        "expected_s": chsh_combination(correlations),
        "readout_fidelity_a": model_a.fidelities,
        "readout_fidelity_b": model_b.fidelities,
    }
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    with _output(out / _REPORTS[0]) as fh:
        _write_csv(fh, ("side", "time_bin", "p_spin_up", "p_spin_down"), spin_photon_rows)
    with _output(out / _REPORTS[1]) as fh:
        _write_csv(fh, ("basis", "orientation", "expected_correlation"), colinear)
    _emit_json(summary, sys.stdout)
    return EXIT_OK


# ---- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    from . import engine, logio
    cfg = _load(args)
    log = engine.run_experiment(cfg, n_trials=args.n, hours=args.hours, seed=args.seed)
    if args.stamp:
        from datetime import datetime, timezone
        log.created = datetime.now(timezone.utc).isoformat()
    logio.write_log(log, args.out)
    print(f"wrote {len(log)} trials to {args.out}" + (" (partial)" if log.partial else ""))
    return EXIT_OK


# ---- analyze ----------------------------------------------------------------


def cmd_analyze(args) -> int:
    from . import bell_stats
    cfg = _load(args)
    with ExitStack() as outputs:  # opened first, so a path that cannot be written fails at once
        curve = outputs.enter_context(_output(args.curve)) if args.curve else None
        out = outputs.enter_context(_output(args.out))
        log = _read_log(args, cfg)
        tau = args.tau if args.tau is not None else cfg.rng.tau_out
        result = bell_stats.analyze_records(log.records, tau_out=tau,
                                            win_adjustment=cfg.statistics.win_adjustment)
        if curve:
            rows = bell_stats.p_vs_i_curve(result.n, tau_out=tau,
                                           win_adjustment=cfg.statistics.win_adjustment)
            _write_csv(curve, ("k", "I", "p_complete", "p_conventional"),
                       [(r.k, r.i, r.p_complete, r.p_conventional) for r in rows])
        _emit_json({**result.to_dict(), "partial": log.partial}, out)
    return EXIT_OK


# ---- audit ------------------------------------------------------------------


# one trial's three CSV lines, one per check in LABELS order; %.1f writes f"{m:.1f}"
_AUDIT_LINES = "".join(f"%d,{label},%.1f,%s\n" for label in spacetime.LABELS)
_RESULT = ("fail", "pass")


def cmd_audit(args) -> int:
    from . import logio
    cfg = _load(args)
    log = _read_log(args, cfg)
    geometry = cfg.spacetime_geometry()
    budget = cfg.timing_budget()
    audit, events, result = spacetime.audit_trial, logio.record_events, _RESULT
    records = log.records
    any_fail = False
    with _output(args.out) as fh:
        fh.write("trial,condition,margin_ns,result\n")
        for start in range(0, len(records), logio.BLOCK_TRIALS):  # trials per write
            lines = []
            for rec in records[start:start + logio.BLOCK_TRIALS]:
                m_a, m_b, m_c, allowance = audit(events(rec), geometry, budget)
                ok_a, ok_b, ok_c = m_a > allowance, m_b > allowance, m_c > allowance
                any_fail = any_fail or not (ok_a and ok_b and ok_c)
                i = rec.idx
                lines.append(_AUDIT_LINES % (i, m_a, result[ok_a], i, m_b, result[ok_b],
                                             i, m_c, result[ok_c]))
            fh.write("".join(lines))
    return EXIT_SCIENCE if any_fail else EXIT_OK


# ---- optimize ---------------------------------------------------------------


def cmd_optimize(args) -> int:
    from . import optimizer
    cfg = _load(args)
    result = optimizer.optimize(cfg.optimizer.spec, cfg.heralded_state().spin_state,
                                cfg.readout_model("A"), cfg.readout_model("B"))
    payload = {
        "epsilon_rad": result.epsilon,
        "epsilon_pi": result.epsilon / math.pi,
        "angles_rad": {name: getattr(result.basis, name) for name in ("a0", "a1", "b0", "b1")},
        "objective": cfg.optimizer.objective,
        "objective_value": result.objective_value,
        "expected_s": result.expected_s,
        "degenerate": result.degenerate,
    }
    with _output(args.out) as fh:
        _emit_json(payload, fh)
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
    p.add_argument("--seed", type=_run_budget(int, lambda v: v >= 0, "a seed >= 0"),
                   metavar="U64", help="master seed (default from config)")
    p.add_argument("--out", metavar="PATH", default="bell_trials.jsonl",
                   help="log path (default bell_trials.jsonl)")
    p.add_argument("--stamp", action="store_true",
                   help="record the wall-clock creation time (breaks byte-reproducibility)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="estimate S and both p-values from a log")
    add_config(p)
    p.add_argument("logfile", metavar="LOG")
    tau = _run_budget(float, lambda v: 0 <= v <= 0.5, "a tau in [0, 1/2]")
    p.add_argument("--tau", type=tau, metavar="FLOAT",
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


def _failure(exc: Exception) -> tuple[int, str] | None:
    """(exit code, stderr line) for ``exc``; None for a bug, which keeps its traceback.

    The table is built here, on the error path, so that no command loads a module
    for its exception class alone. An EngineError is a bug.
    """
    from . import bell_stats, logio
    failures = (  # (exception classes, exit code, stderr prefix); the first matching row wins
        ((UsageError,), EXIT_USAGE, "error"),
        # the photonic model's inputs come only from the config
        ((ConfigError, heralding.HeraldingError), EXIT_USAGE, "config error"),
        ((OSError, logio.LogFormatError, bell_stats.StatisticsError, OptimizerError),
         EXIT_DATA, "data error"),
    )
    for classes, code, prefix in failures:
        if isinstance(exc, classes):
            where = f"{exc.path}: " if isinstance(exc, logio.LogFormatError) else ""
            return code, f"{prefix}: {where}{exc}"
    return None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _refuse_overwrite(args)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: what is still buffered goes to devnull,
        # so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except Exception as exc:
        if (failure := _failure(exc)) is None:
            raise
        code, line = failure
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
