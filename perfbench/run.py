#!/usr/bin/env python3
"""Benchmark of bellsim: one workload, checked, with every metric by name and unit.

    python3 perfbench/run.py --workload {cli,replicas,long_run,sweep}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; bellsim is imported from ``src/``.
The run first times SETUP_PROBES fresh interpreters that import bellsim, load
``configs/default.yaml`` and build the calibrated model, then repeats whole
rounds of the workload for ``--seconds``. Every output is checked against
computations made apart from the program (``checks.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones of BENCHMARK.json. With ``--trace 1`` the rounds alternate between
untraced and traced; the metrics are the per-layer ones from the traced
rounds and setup probes, and the spans plus a per-layer self-time table are
written to ``perfbench/results/``. The exit code is 0 when every check
passed, 1 when one failed and 2 when the checkout is incomplete.
"""

import os

# one BLAS thread: runs on a 2-core machine repeat better without thread contention
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import NULL, Tracer, instrument, layer_table, summarize  # noqa: E402
from workloads import WORKLOADS, SpeedProbe, run_child  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_ROUNDS = 2  # the cli log comparison and a traced run need two rounds
DEFAULT_SEEDS = {"cli": 59, "replicas": 2025, "long_run": 1, "sweep": 7}

# per-layer metrics: (span name, "s" per call or "us" per trial)
LAYER_METRICS = (
    ("startup.import", "s"),
    ("startup.scipy_import", "s"),
    ("config.load_config", "s"),
    ("readout.calibrate_readout", "s"),
    ("heralding.event_ready_state_first", "s"),
    ("heralding.event_ready_state_point", "s"),
    ("optimizer.optimize", "s"),
    ("bell_stats.expected_correlations", "s"),
    ("engine.outcome_distribution", "s"),
    ("engine.run_experiment", "us"),
    ("logio.write_log", "us"),
    ("logio.read_log", "us"),
    ("bell_stats.complete_pvalue", "s"),
    ("bell_stats.p_vs_i_curve", "s"),
    ("bell_stats.chsh_estimate", "us"),
    ("bell_stats.win_count", "us"),
    ("spacetime.audit", "us"),
    ("cli.characterize", "s"),
    ("cli.simulate", "s"),
    ("cli.analyze", "s"),
    ("cli.audit", "s"),
    ("cli.optimize", "s"),
)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of scipy.optimize from ``python -X importtime`` output."""
    for line in importtime_log.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*scipy\.optimize$", line)
        if m:
            return int(m.group(1)) * 1e-6
    return 0.0


def setup_probes(tracer, env: dict, workdir: Path) -> tuple[list[float], list[float]]:
    """Fresh-interpreter setups: wall seconds as measured and at reference speed.

    Traced probes also record spans.
    """
    probe = SpeedProbe()
    walls, adjusted = [], []
    for i in range(SETUP_PROBES):
        spans_path = workdir / f"setup{i}.spans.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "setup", "configs/default.yaml"]
        if tracer is not NULL:
            cmd = [sys.executable, "-X", "importtime", *cmd[1:], str(spans_path)]
        with tracer.span("bench.setup") as idx:
            code, wall, _ = run_child(cmd, ROOT, env, workdir / f"setup{i}.out")
        err = (workdir / f"setup{i}.err").read_text()
        if code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}:\n{err[-2000:]}")
        walls.append(wall)
        adjusted.append(probe.adjust(wall))
        if tracer is not NULL:
            first = len(tracer.names)
            tracer.merge(json.loads(spans_path.read_text()), idx)
            imp = tracer.names.index("startup.import", first)
            tracer.add("startup.scipy_import", tracer.start[imp],
                       tracer.start[imp] + scipy_import_s(err), imp, 1)
    return walls, adjusted


def layer_metrics(summary: dict, overhead_pct: float) -> dict:
    by_name = summary["by_name"]
    empty = {"calls": 0, "work": 0, "total_s": 0.0}
    out = {}
    for stem, kind in LAYER_METRICS:
        row = by_name.get(stem, empty)
        if kind == "s":
            out[f"{stem}_s"] = metric(row["total_s"] / row["calls"] if row["calls"] else 0.0, "s")
            out[f"{stem}_calls"] = metric(row["calls"], "count")
        else:
            out[f"{stem}_us_per_trial"] = metric(
                1e6 * row["total_s"] / row["work"] if row["work"] else 0.0, "us")
            out[f"{stem}_trials"] = metric(row["work"], "count")
    out["heralding.event_ready_state_hits"] = metric(
        by_name.get("heralding.event_ready_state_hit", empty)["calls"], "count")
    written = by_name.get("logio.write_log", empty)["work"]
    out["logio.bytes_per_trial"] = metric(
        summary["counters"].get("logio.write_log.bytes", 0) / written if written else 0.0, "B")
    out["trace.overhead_pct"] = metric(overhead_pct, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default per workload, see README)")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    missing = [p for p in ("src/bellsim/__init__.py", "configs/default.yaml")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a bellsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "_work"))
    try:
        tracer = Tracer() if args.trace else NULL
        setup, setup_adjusted = setup_probes(tracer, env, workdir)
        wl = WORKLOADS[args.workload](ROOT, workdir, seed, env)
        wl.warm_up()
        if wl.in_process:
            wl.round(0, NULL)  # fills caches; not counted
        attempted = failed = 0
        rounds = {False: [], True: []}  # traced? -> completed rounds
        roots = []
        child_rss_kb = 0
        start = perf_counter()
        index = 1
        while index <= MIN_ROUNDS or perf_counter() - start < args.seconds:
            traced = bool(args.trace) and index % 2 == 0
            rec = tracer if traced else NULL
            try:
                with (instrument(tracer) if traced and wl.in_process else nullcontext()):
                    with rec.span("bench.round") as idx:
                        r = wl.round(index, rec)
            except Exception:
                wl.fail(f"round {index}", [traceback.format_exc()])
                attempted += wl.OPS
                failed += wl.OPS
                index += 1
                continue
            if traced:
                roots.append(idx)
            attempted += r.ops
            failed += r.failed
            rounds[traced].append(r)
            child_rss_kb = max(child_rss_kb, r.child_rss_kb)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in wl.errors:
        print(f"check failed: {e}", file=sys.stderr)
    if not rounds[False] or (args.trace and not rounds[True]):
        print("error: no round completed", file=sys.stderr)
        return 1
    print(f"{args.workload}: setup_s at reference speed "
          + " ".join(f"{w:.3f}" for w in setup_adjusted)
          + "\nas measured " + " ".join(f"{w:.3f}" for w in setup)
          + f"\n{wl.unit}/s per round at reference speed "
          + " ".join(f"{r.units / r.adjusted_s:.5g}" for r in rounds[False])
          + "\nas measured " + " ".join(f"{r.units / r.program_s:.5g}" for r in rounds[False]),
          file=sys.stderr)
    correct = not wl.errors
    if args.trace:
        untraced, traced_rates = wl.throughput(rounds[False]), wl.throughput(rounds[True])
        overhead = 100.0 * (untraced / traced_rates - 1.0)
        setup_roots = [i for i, n in enumerate(tracer.names) if n == "bench.setup"]
        summary = summarize(tracer.to_dict(), roots + setup_roots)
        rounds_only = summarize(tracer.to_dict(), roots)
        table = layer_table(rounds_only)
        layers = rounds_only["layers"]
        program_self = sum(v for k, v in layers.items() if k != "bench")
        program_timed = sum(r.program_s for r in rounds[True])
        note = (f"{args.workload}: {len(roots)} traced and {len(rounds[False])} untraced rounds; "
                f"{untraced:.6g} {wl.unit}/s untraced, {traced_rates:.6g} traced at reference "
                f"speed: tracing overhead {overhead:.2f} %\n"
                f"traced rounds: {rounds_only['total_s']:.4f} s; program layers' self time "
                f"{program_self:.4f} s against {program_timed:.4f} s timed as program calls; "
                f"benchmark code (checks, speed probe, loops) {layers.get('bench', 0.0):.4f} s")
        print(note, file=sys.stderr)
        print(table, file=sys.stderr)
        (BENCH / "results").mkdir(exist_ok=True)
        with open(BENCH / "results" / f"trace-{args.workload}-{seed}.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": seed, "note": note,
                       "rounds": rounds_only, "with_setup": summary,
                       "table": table, "spans": tracer.to_dict()}, fh)
        metrics = layer_metrics(summary, overhead)
    else:
        if wl.in_process:
            child_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": metric(statistics.median(setup_adjusted), "s"),
            "ref_throughput_per_s": metric(wl.throughput(rounds[False]), "1/s"),
            "peak_rss_mb": metric(child_rss_kb / 1024.0, "MB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
