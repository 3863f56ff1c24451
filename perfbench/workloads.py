"""The four workloads of the benchmark.

Each workload repeats whole rounds of the same operations on inputs made from
the seed. It times the program's calls itself (``program_s``), so the checks
that follow each operation do not count against the program; a check that
fails fails its operation. Each timed call is also scaled to a reference
machine speed (``adjusted_s``, see SpeedProbe). The calls go through module
attributes (``engine.run_experiment``, ...), so a traced round sees them
wrapped by ``spans.instrument``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from spans import NULL

CONFIG = "configs/default.yaml"
CHILD = str(Path(__file__).resolve().parent / "child.py")
CHILD_TIMEOUT_S = 150.0


@dataclasses.dataclass
class Round:
    ops: int = 0
    failed: int = 0
    units: float = 0.0
    program_s: float = 0.0
    adjusted_s: float = 0.0
    child_rss_kb: int = 0
    parts: dict = dataclasses.field(default_factory=dict)  # operation -> adjusted seconds


class SpeedProbe:
    """Follows the machine's speed with a fixed reference kernel.

    On a shared 2-core host the same code runs up to 25 % slower for spells of
    a fraction of a second to many seconds. The kernel mixes the program's
    kinds of work: a Python loop with dict stores, a 160 x 160 complex matrix
    product, building small tuples, dicts and strings, and starting and
    waiting for a bare interpreter (``python -S -c pass``). It runs after every
    timed program call; the call's time is divided by the kernel's slowdown
    against REFERENCE_S, averaged over the kernel runs just before and just
    after the call.
    """

    REFERENCE_S = 0.0177  # median of 300 back-to-back kernel runs on the reference machine

    def __init__(self):
        self.matrix = np.random.default_rng(0).random((160, 160)) + 1j
        self.last = self.kernel()

    def kernel(self) -> float:
        start = perf_counter()
        acc, table = 0, {}
        for i in range(15_000):
            acc += i * i
            table[i & 255] = acc
        self.matrix @ self.matrix
        [(i, str(i), {"i": i}) for i in range(5_000)]
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        return perf_counter() - start

    def adjust(self, seconds: float) -> float:
        """``seconds`` just measured, at the reference speed."""
        now = self.kernel()
        slowdown = 0.5 * (self.last + now) / self.REFERENCE_S
        self.last = now
        return seconds / slowdown


def run_child(argv: list[str], cwd, env: dict, out_path: Path) -> tuple[int, float, int]:
    """Run one child process; return its exit code, wall seconds and peak RSS (KiB).

    stdout goes to ``out_path`` and stderr next to it. The child is reaped
    with wait4 so that its own peak RSS is known; a child that outlives
    CHILD_TIMEOUT_S is killed.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Workload:
    name = ""
    unit = ""          # what ref_throughput_per_s counts
    in_process = True  # False: the program runs in child processes
    OPS = 1            # operations per round

    def __init__(self, root: Path, workdir: Path, seed: int, env: dict):
        self.root, self.workdir, self.seed, self.env = root, workdir, seed, env
        self.errors: list[str] = []
        self.probe = SpeedProbe()

    def timed(self, r: Round, fn, *args, **kwargs):
        """Call the program, adding the call's time to the round."""
        start = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - start
        r.program_s += elapsed
        r.adjusted_s += self.probe.adjust(elapsed)
        return result

    def fail(self, where: str, errors: list[str]) -> bool:
        for e in errors:
            self.errors.append(f"{where}: {e}")
        return bool(errors)

    def guarded(self, where: str, fn, *args) -> bool:
        """Run one check; an exception counts as a failed check, with its traceback."""
        try:
            return self.fail(where, fn(*args))
        except Exception:
            return self.fail(where, [traceback.format_exc()])

    def warm_up(self) -> None:
        """Import, build the default model and check its readout calibration."""
        from bellsim import config, engine
        self.cfg = config.load_config(self.root / CONFIG)
        self.rho = self.cfg.heralded_state().spin_state.density_matrix()
        engine.outcome_distribution(self.cfg)
        self.fidelities = {}
        for side, anchor in (("A", self.cfg.readout_a), ("B", self.cfg.readout_b)):
            m = self.cfg.readout_model(side)
            rates = (m.bright_rate_per_us, m.dark_rate_per_us, m.flip_rate_per_us, m.duration_us)
            self.fail(f"readout {side}", checks.calibration(rates, anchor.mean_fidelity))
            self.fidelities[side] = checks.readout_fidelities(rates)
        self.epsilon = self.cfg.basis.epsilon_pi * math.pi

    def round(self, index: int, tracer) -> Round:
        raise NotImplementedError

    @staticmethod
    def throughput(rounds: list[Round]) -> float:
        """Units per second at reference speed: the median over rounds."""
        return statistics.median(r.units / r.adjusted_s for r in rounds)


class Cli(Workload):
    """The paper's pipeline as a user runs it: five fresh ``python -m bellsim`` calls."""

    name = "cli"
    unit = "pipeline passes"
    in_process = False
    COMMANDS = ("characterize", "simulate", "analyze", "audit", "optimize")
    OPS = len(COMMANDS)

    def warm_up(self) -> None:
        super().warm_up()
        self.first_log: bytes | None = None

    def round(self, index: int, tracer) -> Round:
        d = self.workdir / f"pass{index}"
        d.mkdir()
        log, curve, analysis = d / "run.jsonl", d / "curve.csv", d / "analysis.json"
        audit, opt = d / "audit.csv", d / "optimize.json"
        argv = {
            "characterize": ["characterize", "--out", str(d)],
            "simulate": ["simulate", "--n", "245", "--seed", str(self.seed), "--out", str(log)],
            "analyze": ["analyze", str(log), "--curve", str(curve), "--out", str(analysis)],
            "audit": ["audit", str(log), "--out", str(audit)],
            "optimize": ["optimize", "--out", str(opt)],
        }
        r = Round(ops=self.OPS, units=1)
        self.scan = None  # set by check_simulate, read by the later checks
        codes, stdout = {}, {}
        for name in self.COMMANDS:
            args = argv[name] + ["--config", CONFIG]
            spans_path = d / f"{name}.spans.json"
            if tracer is NULL:
                cmd = [sys.executable, "-m", "bellsim", *args]
            else:
                cmd = [sys.executable, CHILD, "cli", str(spans_path), *args]
            with tracer.span(f"cli.{name}", 1) as idx:
                code, wall, rss = run_child(cmd, self.root, self.env, d / f"{name}.out")
            if tracer is not NULL and spans_path.exists():
                tracer.merge(json.loads(spans_path.read_text()), idx)
            codes[name] = code
            stdout[name] = (d / f"{name}.out").read_text()
            r.program_s += wall
            r.parts[name] = self.probe.adjust(wall)
            r.adjusted_s += r.parts[name]
            r.child_rss_kb = max(r.child_rss_kb, rss)
        with tracer.span("bench.check"):
            for name in self.COMMANDS:
                if codes[name] != 0:
                    err = (d / f"{name}.err").read_text()[-2000:]
                    bad = self.fail(f"pass {index} {name}", [f"exit code {codes[name]}: {err}"])
                else:
                    bad = self.guarded(f"pass {index} {name}", getattr(self, f"check_{name}"),
                                       d, stdout[name])
                r.failed += bad
        return r

    @staticmethod
    def throughput(rounds: list[Round]) -> float:
        """Passes per second, from the median time of each subcommand over the passes."""
        return 1.0 / sum(statistics.median(r.parts[name] for r in rounds) for name in Cli.COMMANDS)

    def check_characterize(self, d: Path, stdout: str) -> list[str]:
        out = json.loads(stdout)
        errors = []
        if abs(out["herald_probability_per_attempt"] - checks.HERALD_P) > 1e-12 * checks.HERALD_P:
            errors.append(f"herald probability {out['herald_probability_per_attempt']!r}, "
                          f"link budget {checks.HERALD_P!r}")
        s = checks.expected_s(self.rho, self.fidelities["A"], self.fidelities["B"], self.epsilon)
        if abs(out["expected_s"] - s) > 1e-9:
            errors.append(f"expected S {out['expected_s']!r}, recomputed {s!r}")
        if abs(out["heralded_fidelity"] - checks.singlet_fidelity(self.rho)) > 1e-12:
            errors.append(f"heralded fidelity {out['heralded_fidelity']!r} != <psi-|rho|psi->")
        return errors

    def check_simulate(self, d: Path, stdout: str) -> list[str]:
        from bellsim import logio
        scan = checks.LogScan(d / "run.jsonl")
        self.scan = scan
        errors = checks.attempts(scan.attempts, scan.n)
        if scan.n != 245 or scan.header["partial"]:
            errors.append(f"log has {scan.n} trials, partial={scan.header['partial']}")
        data = (d / "run.jsonl").read_bytes()
        if self.first_log is None:
            self.first_log = data
        elif data != self.first_log:
            errors.append("two simulate runs with the same seed wrote different logs")
        logio.write_log(logio.read_log(d / "run.jsonl"), d / "rewrite.jsonl")
        if (d / "rewrite.jsonl").read_bytes() != data:
            errors.append("write -> read -> write changed the log bytes")
        return errors

    def check_analyze(self, d: Path, stdout: str) -> list[str]:
        out = json.loads((d / "analysis.json").read_text())
        scan = self.scan
        errors = scan.stats(out["k"], out["S"], out["n"])
        errors += checks.pvalue(out["p_complete"], scan.k, scan.n)
        with open(d / "curve.csv", newline="", encoding="utf-8") as fh:
            rows = [(int(r[0]), float(r[1]), float(r[2]), float(r[3]))
                    for r in list(csv.reader(fh))[1:]]
        return errors + checks.curve(rows, scan.k, scan.n, out["p_complete"])

    def check_audit(self, d: Path, stdout: str) -> list[str]:
        with open(d / "audit.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        errors = []
        labels = [r[1] for r in rows]
        if labels != list(checks.AUDIT_LABELS) * (len(rows) // 3):
            errors.append("audit rows are not three conditions per trial in order")
        if any(r[3] != "pass" for r in rows):
            errors.append("audit reports a failing condition")
        # margins are printed to 0.1 ns
        return errors + self.scan.audit([float(r[2]) for r in rows], 0.05 + 1e-6)

    def check_optimize(self, d: Path, stdout: str) -> list[str]:
        out = json.loads((d / "optimize.json").read_text())
        return checks.optimizer(out["epsilon_rad"], out["expected_s"], self.rho,
                                self.fidelities["A"], self.fidelities["B"], self.epsilon)


class Replicas(Workload):
    """Many replicas of the 245-trial experiment, each certified with the exact p-value."""

    name = "replicas"
    unit = "replicas"
    OPS = 8
    TRIALS = 245

    def round(self, index: int, tracer) -> Round:
        from bellsim import engine
        r = Round(ops=self.OPS, units=self.OPS)
        pooled = checks.Tally()
        tau = self.cfg.rng.tau_out
        adjustment = self.cfg.statistics.win_adjustment
        for j in range(self.OPS):
            seed = engine.replica_seed(self.seed, index * self.OPS + j)
            log, res = self.timed(r, self.replica, seed, tau, adjustment)
            with tracer.span("bench.check"):
                r.failed += self.guarded(f"replica {seed}", self.check_replica, log, res, pooled)
        with tracer.span("bench.check"):
            where = f"round {index} pooled"
            if self.fail(where, checks.uniform_settings(pooled.pair_counts)
                         + checks.attempts(pooled.attempts, pooled.n)):
                r.failed = r.ops
        return r

    def replica(self, seed, tau: float, adjustment: float):
        from bellsim import bell_stats, engine
        log = engine.run_experiment(self.cfg, n_trials=self.TRIALS, seed=seed)
        return log, bell_stats.analyze_records(log.records, tau_out=tau, win_adjustment=adjustment)

    def check_replica(self, log, res, pooled: checks.Tally) -> list[str]:
        tally = checks.tally_records(log.records)
        pooled.cells += tally.cells
        pooled.attempts += tally.attempts
        errors = tally.stats(res.k, res.s, res.n)
        if tally.n != self.TRIALS:
            errors.append(f"{tally.n} trials, expected {self.TRIALS}")
        return errors + checks.pvalue(res.p_complete, tally.k, tally.n)


class LongRun(Workload):
    """One long experiment per round through engine, log I/O, statistics and audit."""

    name = "long_run"
    unit = "trials"
    TARGET = 20_000
    # 95 % of the expected duration of TARGET trials: the budget ends the run first
    HOURS = 0.95 * TARGET / checks.HERALD_P * checks.ATTEMPT_PERIOD_NS / 3.6e12

    def round(self, index: int, tracer) -> Round:
        from bellsim import bell_stats, engine, logio, spacetime
        path, again = self.workdir / "long_run.jsonl", self.workdir / "long_run.again.jsonl"
        geometry, budget = self.cfg.spacetime_geometry(), self.cfg.timing_budget()

        def audit(records):
            with tracer.span("spacetime.audit", len(records)):
                return [spacetime.audit_trial(engine.record_events(rec), geometry, budget)
                        for rec in records]

        r = Round(ops=self.OPS)
        log = self.timed(r, engine.run_experiment, self.cfg, n_trials=self.TARGET,
                         hours=self.HOURS, seed=(self.seed, index))
        self.timed(r, logio.write_log, log, path)
        back = self.timed(r, logio.read_log, path)
        est = self.timed(r, bell_stats.chsh_estimate, back.records)
        k = self.timed(r, bell_stats.win_count, back.records)
        reports = self.timed(r, audit, back.records)
        r.units = len(back)
        with tracer.span("bench.check"):
            r.failed += self.guarded(f"chain {index}", self.check_chain, log, back, est, k,
                                     reports, path, again)
        return r

    def check_chain(self, log, back, est, k, reports, path, again) -> list[str]:
        from bellsim import logio
        scan = checks.LogScan(path)
        errors = scan.stats(k, est.s, len(back))
        errors += checks.audit_passed(reports)
        errors += scan.audit([[c.margin_ns for c in rep.checks] for rep in reports], 1e-6)
        errors += checks.attempts(scan.attempts, scan.n)
        errors += checks.budget(scan.attempts, scan.n, self.TARGET, self.HOURS,
                                log.partial and scan.header["partial"])
        logio.write_log(back, again)
        if again.read_bytes() != path.read_bytes():
            errors.append("write -> read -> write changed the log bytes")
        return errors


class Sweep(Workload):
    """A design study over distinct (visibility, spin-photon error) points."""

    name = "sweep"
    unit = "model points"
    OPS = 4  # the first point of each round has zero spin-photon errors

    def warm_up(self) -> None:
        super().warm_up()
        from bellsim import optimizer
        o = self.cfg.optimizer
        self.spec = optimizer.OptimizationSpec(
            objective=o.objective, epsilon_min=o.epsilon_min_pi * math.pi,
            epsilon_max=o.epsilon_max_pi * math.pi, grid_points=o.grid_points,
            tolerance_rad=o.tolerance_rad)

    def round(self, index: int, tracer) -> Round:
        rng = np.random.default_rng([self.seed, index])
        ra, rb = self.cfg.readout_model("A"), self.cfg.readout_model("B")
        r = Round(ops=self.OPS, units=self.OPS)
        for j in range(self.OPS):
            visibility = float(rng.uniform(0.80, 0.99))
            errors = rng.uniform(0.0, 0.03, 4) if j else np.zeros(4)
            herald, corr, result = self.timed(r, self.point, visibility, errors, ra, rb)
            with tracer.span("bench.check"):
                r.failed += self.guarded(f"point V={visibility!r} errors={errors.tolist()}",
                                         self.check_point, herald, corr, result,
                                         visibility, j == 0)
        return r

    def point(self, visibility: float, errors, ra, rb):
        from bellsim import bell_stats, heralding, optimizer
        cfg = dataclasses.replace(
            self.cfg, interference=heralding.InterferenceModel(visibility=visibility),
            spin_photon_errors=heralding.SpinPhotonErrorModel(*map(float, errors)))
        herald = cfg.heralded_state()
        corr = bell_stats.expected_correlations(herald.spin_state, ra, rb, cfg.basis_set())
        return herald, corr, optimizer.optimize(self.spec, herald.spin_state, ra, rb)

    def check_point(self, herald, corr, result, visibility: float, zero_error: bool) -> list[str]:
        rho = herald.spin_state.density_matrix()
        fa, fb = self.fidelities["A"], self.fidelities["B"]
        errors = checks.visibility_law(rho, visibility) if zero_error else []
        s = checks.expected_s(rho, fa, fb, self.epsilon)
        s_program = corr[(0, 0)] + corr[(0, 1)] + corr[(1, 0)] - corr[(1, 1)]
        if abs(s_program - s) > 1e-9:
            errors.append(f"expected correlations give S = {s_program!r}, recomputed {s!r}")
        return errors + checks.optimizer(result.epsilon, result.expected_s, rho, fa, fb,
                                         self.epsilon)


WORKLOADS = {w.name: w for w in (Cli, Replicas, LongRun, Sweep)}
