import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellsim import cli

FAST_LINK = """
link:
  collection_efficiency: 1.0
  fibre_km_per_arm: 1.0e-6
  detector_efficiency: 1.0
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.yaml"
    path.write_text(FAST_LINK)
    return str(path)


def run(argv):
    return cli.main(argv)


# ---- simulate ------------------------------------------------------------------


def test_simulate_writes_requested_trials(tmp_path, fast_config, capsys):
    out = tmp_path / "log.jsonl"
    code = run(["simulate", "--config", fast_config, "--n", "245", "--seed", "8",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 246  # header + 245 trials
    assert "245 trials" in capsys.readouterr().out


def test_simulate_zero_trials_header_only(tmp_path, fast_config):
    out = tmp_path / "empty.jsonl"
    assert run(["simulate", "--config", fast_config, "--n", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


def test_simulate_same_seed_byte_identical(tmp_path, fast_config):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert run(["simulate", "--config", fast_config, "--n", "50", "--seed", "4",
                    "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_stamp_breaks_reproducibility_on_purpose(tmp_path, fast_config):
    out = tmp_path / "stamped.jsonl"
    assert run(["simulate", "--config", fast_config, "--n", "1", "--stamp",
                "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["created"] is not None


def test_simulate_honours_config_hours(tmp_path, capsys):
    # 245 heralds at p ~ 1/4 take about 5.4e-6 h of 20 us attempts
    cfg = tmp_path / "short.yaml"
    cfg.write_text(FAST_LINK + "experiment:\n  hours: 2.0e-6\n")
    out = tmp_path / "log.jsonl"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "(partial)" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["partial"] is True
    assert 1 < len(lines) < 246


@pytest.mark.parametrize("flags", [
    ["--n", "-3"], ["--n", "2.5"], ["--n", "many"],
    ["--hours", "-1"], ["--hours", "0"], ["--hours", "nan"], ["--hours", "inf"],
    ["--hours", "soon"],
], ids=["n-negative", "n-fraction", "n-word", "hours-negative", "hours-zero", "hours-nan",
        "hours-inf", "hours-word"])
def test_simulate_bad_budget_flag_is_usage_error(tmp_path, fast_config, capsys, flags):
    out = tmp_path / "log.jsonl"
    assert run(["simulate", "--config", fast_config, *flags, "--out", str(out)]) == 1
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


def test_simulate_unwritable_path_is_data_error(fast_config):
    assert run(["simulate", "--config", fast_config, "--n", "1",
                "--out", "/nonexistent-dir/x.jsonl"]) == 2


# ---- analyze --------------------------------------------------------------------


def make_log(tmp_path, fast_config, n=245, seed=8):
    out = tmp_path / "log.jsonl"
    assert run(["simulate", "--config", fast_config, "--n", str(n), "--seed", str(seed),
                "--out", str(out)]) == 0
    return out


def test_analyze_reports_headline_quantities(tmp_path, fast_config, capsys):
    log = make_log(tmp_path, fast_config)
    capsys.readouterr()
    code = run(["analyze", str(log), "--tau", "0.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 245
    assert 0 <= payload["k"] <= 245
    assert set(payload["correlations"]) == {"00", "01", "10", "11"}
    assert 0.0 <= payload["p_complete"] <= 1.0


def test_analyze_reports_whether_the_log_is_partial(tmp_path, fast_config, capsys):
    from bellsim import engine
    from bellsim.config import load_config

    link = load_config(fast_config).link
    hours = 120 / engine.herald_probability(link) * link.attempt_period_ns / 3600e9
    full = make_log(tmp_path, fast_config, n=100)
    cut = tmp_path / "cut.jsonl"
    assert run(["simulate", "--config", fast_config, "--n", "245", "--hours", str(hours),
                "--seed", "8", "--out", str(cut)]) == 0
    assert "(partial)" in capsys.readouterr().out
    for path, partial in ((full, False), (cut, True)):
        assert run(["analyze", str(path), "--config", fast_config]) == 0
        assert json.loads(capsys.readouterr().out)["partial"] is partial


def test_analyze_synthetic_equal_cells_log(tmp_path, capsys):
    # hand-built log: 61 trials per cell except (1,1) with 62, k = 196, n = 245
    from bellsim.engine import TrialLog, TrialRecord
    from bellsim.logio import write_log

    log = TrialLog(config_hash="manual", seed=0)
    idx = 0

    def add(a, b, x, y, count):
        nonlocal idx
        for _ in range(count):
            log.records.append(TrialRecord(idx, a, b, x, y, 4168.0, 2500.0, 2500.0,
                                   6680.0, 6680.0, 1))
            idx += 1

    for a, b in ((0, 0), (0, 1), (1, 0)):
        add(a, b, 1, 1, 49)
        add(a, b, 1, -1, 12)
    add(1, 1, 1, -1, 49)
    add(1, 1, 1, 1, 13)
    path = tmp_path / "manual.jsonl"
    write_log(log, path)

    assert run(["analyze", str(path), "--tau", "0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 245 and payload["k"] == 196
    assert abs(payload["I"] - 2.4) < 1e-12
    assert abs(payload["p_complete"] - 0.03907767138965722) < 1e-15


def test_analyze_all_wins_log(tmp_path, capsys):
    from bellsim.engine import TrialLog, TrialRecord
    from bellsim.logio import write_log

    log = TrialLog(config_hash="manual", seed=0)
    idx = 0
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x, y = (1, 1) if (a, b) != (1, 1) else (1, -1)
        for _ in range(5):
            log.records.append(TrialRecord(idx, a, b, x, y, 4168.0, 2500.0, 2500.0,
                                   6680.0, 6680.0, 1))
            idx += 1
    path = tmp_path / "wins.jsonl"
    write_log(log, path)
    assert run(["analyze", str(path), "--tau", "0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 20
    assert abs(payload["p_complete"] - 0.75**20) < 1e-15


def test_analyze_shuffled_outcomes_show_null_behaviour(tmp_path, fast_config, capsys):
    import numpy as np

    from bellsim.engine import TrialRecord
    from bellsim.logio import read_log as rl, write_log

    log_path = make_log(tmp_path, fast_config, n=400, seed=12)
    log = rl(log_path)
    rng = np.random.default_rng(0)
    xs = rng.permutation([r.x for r in log.records])
    ys = rng.permutation([r.y for r in log.records])
    shuffled = [
        TrialRecord(r.idx, r.a, r.b, int(x), int(y), r.t_herald_ns, r.t_choice_a_ns,
                    r.t_choice_b_ns, r.t_read_done_a_ns, r.t_read_done_b_ns, r.attempts)
        for r, x, y in zip(log.records, xs, ys)
    ]
    log.records[:] = shuffled
    out = tmp_path / "shuffled.jsonl"
    write_log(log, out)
    capsys.readouterr()
    assert run(["analyze", str(out), "--tau", "0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["S"]) < 0.5
    assert payload["p_complete"] > 0.4


def test_analyze_curve_csv(tmp_path, fast_config):
    log = make_log(tmp_path, fast_config, n=40)
    curve = tmp_path / "curve.csv"
    result = tmp_path / "result.json"
    assert run(["analyze", str(log), "--tau", "0.0", "--out", str(result),
                "--curve", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "k,I,p_complete,p_conventional"
    assert len(lines) == 42  # header + k = 0..40
    json.loads(result.read_text())


def test_analyze_corrupt_log_names_line(tmp_path, fast_config, capsys):
    log = make_log(tmp_path, fast_config, n=5)
    lines = log.read_text().splitlines()
    lines[3] = "{broken"
    log.write_text("\n".join(lines) + "\n")
    assert run(["analyze", str(log)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_analyze_missing_file_is_data_error(capsys):
    assert run(["analyze", "/no/such/log.jsonl"]) == 2


def test_analyze_missing_setting_cell_is_data_error(tmp_path, capsys):
    from bellsim.engine import TrialLog, TrialRecord
    from bellsim.logio import write_log

    log = TrialLog(config_hash="manual", seed=0)
    for i in range(10):
        log.records.append(TrialRecord(i, 0, 0, 1, -1, 4168.0, 2500.0, 2500.0, 6680.0, 6680.0, 1))
    path = tmp_path / "single.jsonl"
    write_log(log, path)
    assert run(["analyze", str(path)]) == 2
    assert "setting pair" in capsys.readouterr().err


# ---- audit ---------------------------------------------------------------------


def test_audit_default_budget_passes(tmp_path, fast_config, capsys):
    log = make_log(tmp_path, fast_config, n=30)
    capsys.readouterr()
    assert run(["audit", str(log)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "trial,condition,margin_ns,result"
    assert len(lines) == 1 + 30 * 3
    assert all(line.endswith("pass") for line in lines[1:])
    margins = [float(line.split(",")[2]) for line in lines[1:]
               if "readout" in line]
    assert min(margins) > 16.0
    assert abs(min(margins) - 90.0) < 16.0  # jittered around the 89.6 ns margin


def test_audit_stretched_readout_fails_with_exit_3(tmp_path, fast_config):
    stretched = tmp_path / "stretched.yaml"
    stretched.write_text(FAST_LINK + "\ntiming:\n  readout_duration_ns: 4300.0\n")
    out = tmp_path / "log.jsonl"
    assert run(["simulate", "--config", str(stretched), "--n", "10", "--out", str(out)]) == 0
    assert run(["audit", str(out), "--config", str(stretched)]) == 3


def test_audit_empty_log_passes_with_empty_report(tmp_path, fast_config, capsys):
    out = tmp_path / "empty.jsonl"
    assert run(["simulate", "--config", fast_config, "--n", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["audit", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["trial,condition,margin_ns,result"]


def test_audit_csv_to_file(tmp_path, fast_config):
    log = make_log(tmp_path, fast_config, n=5)
    report = tmp_path / "audit.csv"
    assert run(["audit", str(log), "--out", str(report)]) == 0
    assert report.read_text().splitlines()[0] == "trial,condition,margin_ns,result"


# ---- characterize -----------------------------------------------------------------


def test_characterize_default_model(tmp_path, capsys):
    assert run(["characterize", "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.89 <= payload["heralded_fidelity"] <= 0.95
    assert abs(payload["visibility"]["value"] - 0.893) < 5e-4
    assert 2.23 <= payload["expected_s"] <= 2.37
    spin_photon = (tmp_path / "spin_photon_correlations.csv").read_text().splitlines()
    assert spin_photon[0] == "side,time_bin,p_spin_up,p_spin_down"
    assert len(spin_photon) == 5
    corr = (tmp_path / "setting_correlations.csv").read_text().splitlines()
    assert corr[0] == "basis,orientation,expected_correlation"


def test_characterize_zero_noise_config(tmp_path, capsys):
    cfg = tmp_path / "clean.yaml"
    cfg.write_text(
        "interference:\n  visibility: 1.0\n"
        "spin_photon_errors:\n  a_early: 0.0\n  a_late: 0.0\n  b_early: 0.0\n  b_late: 0.0\n"
        "readout_a:\n  mean_fidelity: 0.9975\n  dark_fidelity: 0.999\n"
        "  flip_rate_per_us: 0.0\n"
        "readout_b:\n  mean_fidelity: 0.9975\n  dark_fidelity: 0.999\n"
        "  flip_rate_per_us: 0.0\n"
        "basis:\n  epsilon_pi: 0.0\n"
    )
    assert run(["characterize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["heralded_fidelity"] > 1 - 1e-9
    rows = (tmp_path / "setting_correlations.csv").read_text().splitlines()[1:]
    for row in rows:
        value = abs(float(row.split(",")[2]))
        assert value > 0.98  # near-perfect readout keeps correlations near +-1


def test_characterize_zero_visibility_kills_xx_correlations(tmp_path, capsys):
    cfg = tmp_path / "v0.yaml"
    cfg.write_text("interference:\n  visibility: 0.0\n")
    assert run(["characterize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "setting_correlations.csv").read_text().splitlines()[1:]
    for row in rows:
        basis, orientation, value = row.split(",")
        if basis == "XX":
            assert abs(float(value)) < 0.01
        else:
            assert abs(float(value)) > 0.5


# ---- optimize ----------------------------------------------------------------------


def test_optimize_default_model(capsys):
    assert run(["optimize"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 < payload["epsilon_pi"] < 0.05
    assert not payload["degenerate"]
    assert {"a0", "a1", "b0", "b1"} == set(payload["angles_rad"])


def test_optimize_ideal_model(tmp_path, capsys):
    cfg = tmp_path / "ideal.yaml"
    cfg.write_text(
        "interference:\n  visibility: 1.0\n"
        "spin_photon_errors:\n  a_early: 0.0\n  a_late: 0.0\n  b_early: 0.0\n  b_late: 0.0\n"
        "readout_a:\n  mean_fidelity: 0.9995\n  dark_fidelity: 0.9995\n"
        "  flip_rate_per_us: 0.0\n"
        "readout_b:\n  mean_fidelity: 0.9995\n  dark_fidelity: 0.9995\n"
        "  flip_rate_per_us: 0.0\n"
    )
    assert run(["optimize", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["epsilon_rad"]) < 1e-3


def test_optimize_rejects_seed(capsys):
    # the optimum is deterministic; a seed flag would be a knob that does nothing
    assert run(["optimize", "--seed", "3"]) == 1
    assert "--seed" in capsys.readouterr().err


# ---- usage errors -------------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_bad_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("interference:\n  visibillity: 0.5\n")
    assert run(["characterize", "--config", str(cfg)]) == 1
    assert "visibillity" in capsys.readouterr().err


def test_removed_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "old.yaml"
    cfg.write_text("rng:\n  extraction_time_ns: 160.0\n")
    assert run(["characterize", "--config", str(cfg)]) == 1
    assert "rng.extraction_time_ns" in capsys.readouterr().err


@pytest.mark.parametrize("yaml_text, command", [
    ("timing:\n  readout_duration_ns: .nan\n", ["simulate", "--n", "5"]),
    ("statistics:\n  win_adjustment: .nan\n", ["analyze", "LOG"]),
    ("geometry:\n  ab_m: .nan\n", ["audit", "LOG"]),
    ("link:\n  attempt_period_ns: .inf\n", ["simulate", "--hours", "1"]),
], ids=["readout-nan", "win-adjustment-nan", "ab-nan", "attempt-period-inf"])
def test_non_finite_config_float_is_usage_error(tmp_path, fast_config, capsys,
                                                yaml_text, command):
    log = make_log(tmp_path, fast_config, n=5)
    cfg = tmp_path / "non_finite.yaml"
    cfg.write_text(yaml_text)
    argv = [str(log) if arg == "LOG" else arg for arg in command]
    if command[0] == "simulate":
        argv += ["--out", str(tmp_path / "out.jsonl")]
    capsys.readouterr()
    assert run(argv + ["--config", str(cfg)]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("yaml_text", [
    "geometry:\n  ab_m: -5\n",
    "timing:\n  sync_allowance_ns: -1\n",
    "timing:\n  jitter_ns: -0.5\n",
    "link:\n  attempt_period_ns: 0\n",
    "link:\n  herald_probability: 0\n",
    "link:\n  herald_probability: 1.5\n",
    "link:\n  loss_db_per_km: -100\n",
    "link:\n  fibre_km_per_arm: -0.1\n",
    "link:\n  collection_efficiency: 1.2\n",
    "link:\n  detector_efficiency: -0.2\n",
    "experiment:\n  trials: -3\n",
    "experiment:\n  hours: -1.0\n",
    "experiment:\n  hours: 0\n",
], ids=["negative-ab", "negative-sync-allowance", "negative-jitter", "zero-attempt-period",
        "zero-herald-probability", "over-unit-herald-probability", "negative-loss",
        "negative-fibre", "over-unit-collection", "negative-detector", "negative-trials",
        "negative-hours", "zero-hours"])
def test_invalid_geometry_or_timing_fails_at_load(tmp_path, fast_config, capsys, yaml_text):
    log = make_log(tmp_path, fast_config, n=5)
    cfg = tmp_path / "invalid.yaml"
    cfg.write_text(yaml_text)
    capsys.readouterr()
    assert run(["audit", str(log), "--config", str(cfg)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_missing_required_argument_is_usage_error():
    assert run(["analyze"]) == 1


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the tests imported do not count
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, bellsim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
