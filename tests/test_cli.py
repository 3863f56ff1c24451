import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from bellsim import cli

FAST_LINK = """
link:
  collection_efficiency: 1.0
  loss_db_per_km: 0.0
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


def test_simulate_clock_that_overflows_ends_the_budget_quietly(tmp_path, capsys):
    # 1e308 ns per attempt overflows the clock at the first herald: past any finite
    # budget, so the log is partial with no trial, and numpy warns of nothing
    cfg = tmp_path / "slow.yaml"
    cfg.write_text("link:\n  attempt_period_ns: 1.0e+308\n")
    out = tmp_path / "log.jsonl"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["simulate", "--n", "3", "--hours", "1", "--config", str(cfg),
                    "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote 0 trials to {out} (partial)\n", "")
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["partial"] is True


def test_simulate_choice_delay_within_the_rounding_runs(tmp_path, capsys):
    # one ulp of 1e19 ns is 2,048 ns: the engine's sums round by at most 3,072 ns of
    # the 4,175 ns from a choice to its readout end, so the config loads and every
    # readout still ends after its choice (1e20 fails at load, see FAILING)
    cfg = tmp_path / "late.yaml"
    cfg.write_text("timing:\n  choice_delay_ns: 1.0e+19\n")
    out = tmp_path / "log.jsonl"
    capsys.readouterr()
    assert run(["simulate", "--n", "50", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 50
    assert all(r[f"t_choice_{s}_ns"] < r[f"t_read_done_{s}_ns"] for r in rows for s in "ab")


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


@pytest.mark.parametrize("how", [["--tau", "0.25"], ["--tau", "0.3"], ["--tau", "0.5"], "config"],
                         ids=["tau-quarter", "tau-0.3", "tau-half", "config-tau-0.3"])
def test_a_tau_whose_win_bound_reaches_one_gives_p_one(tmp_path, fast_config, capsys, how):
    # 3/4 + c tau >= 1 for every allowed c >= 1: no local bound is left to beat
    if how == "config":  # one raw bit of bias 0.3 per output: tau_out = 0.3
        config = tmp_path / "tau.yaml"
        config.write_text(FAST_LINK + "rng:\n  excess_predictability: 0.3\n"
                          "  raw_bits_per_output: 1\n")
        how = ["--config", str(config)]
        make_log(tmp_path, str(config))
    else:
        make_log(tmp_path, fast_config)
    capsys.readouterr()
    assert run(["analyze", str(tmp_path / "log.jsonl"), *how]) == 0
    assert json.loads(capsys.readouterr().out)["p_complete"] == 1.0


def test_analyze_reports_whether_the_log_is_partial(tmp_path, fast_config, capsys):
    from bellsim import engine
    from bellsim.config import load_config

    link = load_config(fast_config).link
    hours = 120 / link.herald_probability * link.attempt_period_ns / 3600e9
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
    from bellsim.logio import TrialLog, TrialRecord, write_log

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
    assert payload["p_complete"] == 0.039077671389657224


def test_analyze_all_wins_log(tmp_path, capsys):
    from bellsim.logio import TrialLog, TrialRecord, write_log

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

    from bellsim.logio import TrialRecord, read_log as rl, write_log

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
    from bellsim.logio import TrialLog, TrialRecord, write_log

    log = TrialLog(config_hash="manual", seed=0)
    for i in range(10):
        log.records.append(TrialRecord(i, 0, 0, 1, -1, 4168.0, 2500.0, 2500.0, 6680.0, 6680.0, 1))
    path = tmp_path / "single.jsonl"
    write_log(log, path)
    assert run(["analyze", str(path)]) == 2
    assert "setting pair" in capsys.readouterr().err


def test_a_log_from_another_config_is_flagged_on_stderr_only(tmp_path, capsys):
    from bellsim.config import default_config

    # tau_out = 0.02 where it was written, 2.1e-23 under the defaults it is read with
    other = tmp_path / "rbits.yaml"
    other.write_text("rng:\n  raw_bits_per_output: 2\n")
    log = tmp_path / "rbits.jsonl"
    assert run(["simulate", "--config", str(other), "--out", str(log)]) == 0
    written = json.loads(log.read_text().partition("\n")[0])["config_hash"]
    active = default_config().config_hash
    # the same trials under a header that names the active config
    relabelled = tmp_path / "relabelled.jsonl"
    relabelled.write_text(log.read_text().replace(written, active, 1))
    for command in ("analyze", "audit"):
        capsys.readouterr()
        assert run([command, str(relabelled)]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert run([command, str(log)]) == 0
        flagged = capsys.readouterr()
        assert flagged.out == quiet.out
        assert flagged.err == (f"warning: {log} was written under config {written[:8]}, "
                               f"not the active config {active[:8]}\n")
        assert run([command, str(log), "--config", str(other)]) == 0
        assert capsys.readouterr().err == ""


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
    stretched.write_text(FAST_LINK + "\nreadout_a:\n  duration_us: 4.3\n")
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


def _spin_photon_rows(tmp_path, rates):
    """``characterize``'s spin-photon rows under these (a_early, a_late, b_early, b_late)."""
    import yaml
    keys = ("a_early", "a_late", "b_early", "b_late")
    cfg = tmp_path / "rates.yaml"
    cfg.write_text(yaml.safe_dump({"spin_photon_errors": dict(zip(keys, rates))}))
    assert run(["characterize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spin_photon_correlations.csv").read_text().splitlines()
    assert lines[0] == "side,time_bin,p_spin_up,p_spin_down"
    return [(side, time_bin, float(up), float(down))
            for side, time_bin, up, down in (line.split(",") for line in lines[1:])]


def test_characterize_spin_photon_rows_are_the_configured_rates(tmp_path, capsys):
    # the spin goes up with the early photon and down with the late one, and
    # flips at the configured rate of the time bin: the rows are those rates,
    # bit for bit, and their complements
    import numpy as np
    rng = np.random.default_rng(4180)
    points = [(0.0,) * 4, (0.5,) * 4, (0.014, 0.008, 0.016, 0.007)]
    points += [tuple(float(v) for v in rng.uniform(0.0, 0.5, 4)) for _ in range(25)]
    for a_early, a_late, b_early, b_late in points:
        rows = _spin_photon_rows(tmp_path, (a_early, a_late, b_early, b_late))
        assert rows == [("A", "early", 1.0 - a_early, a_early), ("A", "late", a_late, 1.0 - a_late),
                        ("B", "early", 1.0 - b_early, b_early), ("B", "late", b_late, 1.0 - b_late)]


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


def test_model_outputs_are_pinned_by_digest(tmp_path, capsys):
    # the default-config characterize stdout and its two CSVs, and the optimize
    # JSON: every byte of what the model reports
    import hashlib
    assert run(["characterize", "--out", str(tmp_path)]) == 0
    outputs = {"characterize": capsys.readouterr().out.encode()}
    for name in ("spin_photon_correlations.csv", "setting_correlations.csv"):
        outputs[name] = (tmp_path / name).read_bytes()
    assert run(["optimize", "--out", str(tmp_path / "optimize.json")]) == 0
    outputs["optimize"] = (tmp_path / "optimize.json").read_bytes()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == {
        "characterize":
            "bd93d09df86251fa1c67c02f0827445f161e314a0c49bf4b2f4a382607b4735d",
        "spin_photon_correlations.csv":
            "0b50e5ad68baa7966018ea1778820b0c08e59670daf359f8653285ad09b19a20",
        "setting_correlations.csv":
            "8ffe45b6ca9e78c7a14711110a15ab5e24eaef8707089793edb5e566cd02eef9",
        "optimize":
            "117626c6791749779b8b9a8d07d1ef3d20923c0a4f56689b7e159c607a2f361d",
    }


def test_characterize_out_is_an_existing_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run(["characterize", "--out", str(out)]) == 2
    assert "data error:" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


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
    # each value loaded when its key existed; include_same_port gave the herald a
    # second, uncorrected psi+ pattern, herald_probability the link a rate beside
    # its budget, and the last two reached the model only as one false-click
    # probability, now interference.false_click_prob
    for section, key, value in (("rng", "extraction_time_ns", "160.0"),
                                ("timing", "readout_duration_ns", "160.0"),
                                ("heralding", "include_same_port", "true"),
                                ("link", "herald_probability", "0.5"),
                                ("interference", "dark_count_prob", "0.01"),
                                ("interference", "laser_leakage_prob", "0.01")):
        cfg.write_text(f"{section}:\n  {key}: {value}\n")
        assert run(["characterize", "--config", str(cfg)]) == 1
        assert f"unknown key(s): {section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("basis", "angles"), ("link", "herald_delay_ns"),
                                          ("link", "herald_probability"), ("optimizer", "spec")])
def test_a_kept_value_written_as_a_key_is_usage_error(tmp_path, capsys, section, key):
    # a section keeps the value its check builds, but no config key sets it
    cfg = tmp_path / "kept.yaml"
    cfg.write_text(f"{section}:\n  {key}: 0.5\n")
    assert run(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == f"config error: unknown key(s): {section}.{key}\n"


def test_stale_keys_of_every_section_are_one_error(tmp_path, capsys):
    cfg = tmp_path / "old.yaml"
    # a bad value elsewhere does not hide them: unknown keys are found first
    cfg.write_text("link:\n  herald_probability: 0.5\n  loss_db_per_km: -1.0\n"
                   "interference:\n  dark_count_prob: 0.01\n  visibility: 0.5\n"
                   "bogus_section: 1\n")
    assert run(["analyze", "LOG", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == ("config error: unknown key(s): bogus_section, "
                                       "interference.dark_count_prob, "
                                       "link.herald_probability\n")


@pytest.mark.parametrize("raw_bits", [10**6, 10**12])
@pytest.mark.parametrize("command", [["simulate", "--n", "5"], ["analyze", "LOG"]],
                         ids=lambda command: command[0])
def test_raw_bits_per_output_beyond_the_bound_is_usage_error(tmp_path, fast_config, capsys,
                                                             raw_bits, command):
    log = make_log(tmp_path, fast_config, n=5)
    cfg = tmp_path / "raw_bits.yaml"
    cfg.write_text(f"rng:\n  raw_bits_per_output: {raw_bits}\n")
    argv = [str(log) if arg == "LOG" else arg for arg in command]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "out"), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == ("config error: rng: raw bits per output must be in "
                                       f"[1, 1024], got {raw_bits}\n")


@pytest.mark.parametrize("yaml_text, command", [
    ("readout_a:\n  duration_us: .nan\n", ["simulate", "--n", "5"]),
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
    "link:\n  loss_db_per_km: -100\n",
    "link:\n  fibre_km_per_arm: -0.1\n",
    "link:\n  collection_efficiency: 1.2\n",
    "link:\n  detector_efficiency: -0.2\n",
    "experiment:\n  trials: -3\n",
    "experiment:\n  hours: -1.0\n",
    "experiment:\n  hours: 0\n",
    "timing:\n  choice_to_readout_ns: 0\nreadout_b:\n  duration_us: 0\n",
    "timing:\n  choice_to_readout_ns: 2\n  jitter_ns: 5\nreadout_a:\n  duration_us: 0.003\n",
    "link:\n  collection_efficiency: 0\n",
    "link:\n  detector_efficiency: 0\n",
    "link:\n  loss_db_per_km: 1.0e+6\n",
    "link:\n  refractive_index: 0.5\n",
    "link:\n  fibre_km_per_arm: 0.1\n",
    "geometry:\n  ab_m: 5000.0\n",
], ids=["negative-ab", "negative-sync-allowance", "negative-jitter", "zero-attempt-period",
        "negative-loss",
        "negative-fibre", "over-unit-collection", "negative-detector", "negative-trials",
        "negative-hours", "zero-hours", "zero-readout-time", "readout-within-jitter",
        "zero-collection", "zero-detector", "transmission-underflow",
        "sub-unit-refractive-index", "fibre-shorter-than-light-path", "broken-triangle"])
def test_invalid_geometry_or_timing_fails_at_load(tmp_path, fast_config, capsys, yaml_text):
    log = make_log(tmp_path, fast_config, n=5)
    cfg = tmp_path / "invalid.yaml"
    cfg.write_text(yaml_text)
    capsys.readouterr()
    assert run(["audit", str(log), "--config", str(cfg)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_simulate_link_beyond_the_attempt_cap_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "lossy.yaml"
    cfg.write_text("link:\n  loss_db_per_km: 200\n")  # p about 1.5e-41
    out = tmp_path / "lossy.jsonl"
    capsys.readouterr()
    assert run(["simulate", "--n", "3", "--config", str(cfg), "--out", str(out)]) == 1
    assert "expected attempts per trial" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_argument_is_usage_error():
    assert run(["analyze"]) == 1


def test_engine_error_is_a_bug_that_keeps_its_traceback(tmp_path, monkeypatch, capsys):
    from bellsim import engine, logio

    def fail(*args, **kwargs):
        raise logio.EngineError("a row the engine built broke a log rule")

    monkeypatch.setattr(engine, "run_experiment", fail)
    capsys.readouterr()
    with pytest.raises(logio.EngineError, match="a row the engine built") as info:
        run(["simulate", "--n", "1", "--out", str(tmp_path / "x.jsonl")])
    assert info.traceback[-1].name == "fail"  # raised again as it was, not wrapped
    assert capsys.readouterr().err == ""


# ---- every failure ends in one prefixed line, never a traceback ---------------------

HEADER = '{"format_version":1,"config_hash":"h","seed":59,"created":null,"partial":false}'


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """Paths the failing invocations use, keyed by their name in FAILING."""
    root = tmp_path_factory.mktemp("bad")
    paths = {"dir": str(root)}
    log = root / "log.jsonl"
    assert cli.main(["simulate", "--n", "5", "--out", str(log)]) == 0
    rows = log.read_text().splitlines()[1:]
    texts = {
        "latin1.jsonl": log.read_bytes() + b"\xe9\n",
        "latin1.yaml": b"# caf\xe9\n",
        "objective.yaml": b"optimizer:\n  objective: bogus\n",
        "bounds.yaml": b"optimizer:\n  epsilon_min_pi: 0.1\n  epsilon_max_pi: 0.1\n",
        "seed.yaml": b"experiment:\n  seed: -5\n",
        "anchor.yaml": b"readout_a:\n  mean_fidelity: 0.3\n",
        "duration0.yaml": b"readout_a:\n  mean_fidelity: 0.971\n  duration_us: 0\n",
        "hom0.yaml": b"heralding:\n  hom_counts_distinguishable: 0\n",
        "window.yaml": b"timing:\n  choice_to_readout_ns: 2\n  jitter_ns: 5\n"
                       b"readout_b:\n  duration_us: 0.003\n",
        "homneg.yaml": b"heralding:\n  hom_counts_indistinguishable: -1\n",
        "homtiny.yaml": b"heralding:\n  hom_counts_distinguishable: 1.0e-200\n",
        "homhuge.yaml": b"heralding:\n  hom_counts_indistinguishable: 1.0e+200\n",
        "homhugeref.yaml": b"heralding:\n  hom_counts_distinguishable: 1.0e+200\n",
        "win.yaml": b"statistics:\n  win_adjustment: -1\n",
        "win0.yaml": b"statistics:\n  win_adjustment: 0.0\n",
        "tilt.yaml": b"basis:\n  epsilon_pi: 1.0e+308\n",
        "bound1e308.yaml": b"optimizer:\n  epsilon_min_pi: -1.0e+308\n",
        "list.yaml": b"- readout_a\n- readout_b\n",
        "dark.yaml": b"interference:\n  visibility: 0.0\n  detector_efficiency: [0.0, 0.0]\n",
        "fibre01.yaml": b"link:\n  fibre_km_per_arm: 0.1\n",
        "ab5000.yaml": b"geometry:\n  ab_m: 5000.0\n",
        "readout1e306.yaml": b"readout_a:\n  duration_us: 1.0e+306\n",
        "choice1e308.yaml": b"timing:\n  choice_to_readout_ns: 1.0e+308\n"
                            b"  choice_delay_ns: 1.0e+308\n",
        "fibre1e306.yaml": b"link:\n  fibre_km_per_arm: 1.0e+306\n  loss_db_per_km: 0.0\n",
        "choice1e20.yaml": b"timing:\n  choice_delay_ns: 1.0e+20\n",
        "malformed.yaml": b"link: [1\n",
        "twice.yaml": b"interference:\n  visibility: 0.5\ninterference:\n  visibility: 0.9\n",
        "own.yaml": b"experiment:\n  seed: 59\n",
        # blank line 3 and a broken line 6
        "blank.jsonl": "\n".join([HEADER, rows[0], "", *rows[1:3], "{broken", ""]).encode(),
    }
    for name, old, new in (("partial", "false", '"no"'), ("hash", '"h"', "5"),
                           ("created", "null", "7"), ("seed", "59", '{"x":1}'),
                           ("negseed", "59", "-1"), ("seeds", "59", "[7,-2]"),
                           ("boolseed", "59", "true"),
                           ("plan", '"partial":false', '"partial":false,"plan":{"tau_out":0.5}'),
                           ("noseed", '"seed":59,', ""),
                           ("twice", '"partial":false', '"partial":true,"partial":false')):
        texts[f"{name}.jsonl"] = "\n".join([HEADER.replace(old, new, 1), *rows, ""]).encode()
    for name, data in texts.items():
        (root / name).write_bytes(data)
        paths[name.replace(".", "_")] = str(root / name)
    paths["log"] = str(log)
    # a valid config under the name of each report that characterize writes
    reports = root / "reports"
    reports.mkdir()
    for name in ("setting_correlations.csv", "spin_photon_correlations.csv"):
        (reports / name).write_bytes(texts["own.yaml"])
        paths[f"reports_{name.partition('_')[0]}"] = str(reports / name)
    paths["reports"] = str(reports)
    (root / "link.jsonl").symlink_to(log)
    paths["link_jsonl"] = str(root / "link.jsonl")
    return paths


FAILING = {
    "analyze-out-dir": ("analyze {log} --out {dir}", 2, "data error: [Errno 21] Is a directory"),
    "analyze-curve-dir": ("analyze {log} --curve {dir}", 2, "data error: [Errno 21]"),
    "audit-out-dir": ("audit {log} --out {dir}", 2, "data error: [Errno 21]"),
    "optimize-out-dir": ("optimize --out {dir}", 2, "data error: [Errno 21]"),
    "analyze-dir": ("analyze {dir}", 2, "data error: [Errno 21]"),
    "config-dir": ("characterize --config {dir}", 2, "data error: [Errno 21]"),
    "log-not-utf8": ("analyze {latin1_jsonl}", 2, "data error: {latin1_jsonl}: not UTF-8"),
    "config-not-utf8": ("optimize --config {latin1_yaml}", 1,
                        "config error: {latin1_yaml}: not UTF-8"),
    "bogus-objective": ("optimize --config {objective_yaml}", 1,
                        "config error: optimizer: objective must be one of"),
    "empty-tilt-bounds": ("optimize --config {bounds_yaml}", 1,
                          "config error: optimizer: empty search interval"),
    "negative-seed-flag": ("simulate --n 1 --seed -1 --out {dir}/x.jsonl", 1,
                           "error: argument --seed: expected a seed >= 0"),
    "negative-config-seed": ("simulate --n 1 --config {seed_yaml} --out {dir}/x.jsonl", 1,
                             "config error: experiment: seed must be >= 0"),
    # every section is checked at load, whichever command reads it
    "audit-bad-readout-anchor": ("audit {log} --config {anchor_yaml}", 1,
                                 "config error: readout_a: mean fidelity must be in (0.5, 1)"),
    "zero-readout-duration": ("characterize --out {dir} --config {duration0_yaml}", 1,
                              "config error: readout_a: readout duration must be positive"),
    "readout-window-within-jitter": (
        "simulate --n 1 --config {window_yaml} --out {dir}/x.jsonl", 1,
        "config error: timing.choice_to_readout_ns + 1e3 * min(readout_a.duration_us, "
        "readout_b.duration_us) must exceed timing.jitter_ns"),
    "zero-hom-reference-counts": ("characterize --out {dir} --config {hom0_yaml}", 1,
                                  "config error: heralding: visibility undefined"),
    "negative-hom-counts": ("simulate --n 1 --config {homneg_yaml} --out {dir}/x.jsonl", 1,
                            "config error: heralding: coincidence counts must be non-negative"),
    # 1e-200 squared underflows to 0 and 1e200 squared overflows: the sigma fails at load
    "underflowing-hom-reference-counts": (
        "audit {log} --config {homtiny_yaml}", 1,
        "config error: heralding: visibility and its sigma from coincidence counts"),
    "overflowing-hom-counts": (
        "characterize --out {dir} --config {homhuge_yaml}", 1,
        "config error: heralding: visibility and its sigma from coincidence counts"),
    "overflowing-hom-reference-counts": (
        "optimize --config {homhugeref_yaml}", 1,
        "config error: heralding: visibility and its sigma from coincidence counts"),
    "negative-win-adjustment": ("analyze {log} --config {win_yaml}", 1,
                                "config error: statistics: win_adjustment must be >= 1"),
    # x = y = +1 wins with 3/4 + tau - tau^2 against settings biased by tau
    "win-adjustment-below-one": ("analyze {log} --config {win0_yaml}", 1,
                                 "config error: statistics: win_adjustment must be >= 1"),
    # pi * 1e308 overflows: the tilt fails at load, not in the first model build
    "overflowing-tilt-simulate": ("simulate --n 5 --config {tilt_yaml} --out {dir}/x.jsonl", 1,
                                  "config error: basis: angle b0 must be finite"),
    "overflowing-tilt-characterize": ("characterize --out {dir} --config {tilt_yaml}", 1,
                                      "config error: basis: angle b0 must be finite"),
    # a bound in units of pi that overflows once multiplied by pi
    "overflowing-optimizer-bound": ("optimize --config {bound1e308_yaml}", 1,
                                    "config error: optimizer: bounds must be finite"),
    "config-top-level-list": ("characterize --out {dir} --config {list_yaml}", 1,
                              "config error: {list_yaml}: top level must be a mapping"),
    "unheraldable-characterize": ("characterize --out {dir} --config {dark_yaml}", 1,
                                  "config error: requested detection pattern has zero"),
    "unheraldable-simulate": ("simulate --n 1 --config {dark_yaml} --out {dir}/x.jsonl", 1,
                              "config error: requested detection pattern has zero"),
    "unheraldable-optimize": ("optimize --config {dark_yaml}", 1,
                              "config error: requested detection pattern has zero"),
    "header-partial-string": ("analyze {partial_jsonl}", 2,
                              "data error: {partial_jsonl}: line 1: header partial must be"),
    "header-hash-number": ("analyze {hash_jsonl}", 2, "{hash_jsonl}: line 1: header config_hash"),
    "header-created-number": ("audit {created_jsonl}", 2,
                              "{created_jsonl}: line 1: header created"),
    "header-seed-object": ("analyze {seed_jsonl}", 2, "{seed_jsonl}: line 1: header seed"),
    "header-seed-negative": ("analyze {negseed_jsonl}", 2, "line 1: header seed"),
    "header-seed-list": ("analyze {seeds_jsonl}", 2, "line 1: header seed"),
    "header-seed-bool": ("analyze {boolseed_jsonl}", 2, "line 1: header seed"),
    # a key the reader would ignore, such as a trial plan, could change what the log means
    "header-unknown-key": ("analyze {plan_jsonl}", 2,
                           "data error: {plan_jsonl}: line 1: header has unknown key(s): plan"),
    "header-missing-seed": ("analyze {noseed_jsonl}", 2,
                            "data error: {noseed_jsonl}: line 1: header is missing 'seed'"),
    "blank-line-counted": ("analyze {blank_jsonl}", 2, "{blank_jsonl}: line 6: invalid JSON"),
    "tau-above-half": ("analyze {log} --tau 5", 1,
                       "error: argument --tau: expected a tau in [0, 1/2], got '5'"),
    "tau-just-above-half": ("analyze {log} --tau 0.6", 1, "error: argument --tau: expected"),
    "tau-negative": ("analyze {log} --tau -1", 1, "error: argument --tau: expected"),
    "tau-nan": ("analyze {log} --tau nan", 1, "error: argument --tau: expected"),
    "tau-inf": ("analyze {log} --tau inf", 1, "error: argument --tau: expected"),
    # 1e3 * 1e306 us, 1e308 + 1e308 ns and the flight time of 1e306 km overflow: the
    # event times fail at load, which is what keeps every engine row's times finite
    "overflowing-readout-end": ("simulate --n 3 --config {readout1e306_yaml} --out {dir}/x.jsonl",
                                1, "config error: the latest event time of a trial overflows"),
    "overflowing-choice-time": ("simulate --n 3 --config {choice1e308_yaml} --out {dir}/x.jsonl",
                                1, "config error: the latest event time of a trial overflows"),
    "overflowing-herald-time": ("simulate --n 3 --config {fibre1e306_yaml} --out {dir}/x.jsonl",
                                1, "config error: the latest event time of a trial overflows"),
    # one ulp of 1e20 ns is 16,384 ns, so the engine's sums would round the 4,175 ns from a
    # choice to its readout end away: the window fails at load, before any trial is sampled
    "choice-delay-past-rounding": (
        "simulate --n 3 --config {choice1e20_yaml} --out {dir}/x.jsonl", 1,
        "config error: timing.choice_to_readout_ns + 1e3 * min(readout_a.duration_us, "
        "readout_b.duration_us) must exceed timing.jitter_ns by more than the engine's "
        "rounding of the event times (24576.0 ns)"),
    # libyaml and PyYAML word the rest of the message differently
    "malformed-yaml": ("characterize --out {dir} --config {malformed_yaml}", 1,
                       "config error: {malformed_yaml}: YAML parse error"),
    # PyYAML alone would keep the last of the two values
    "repeated-yaml-key": ("characterize --out {dir} --config {twice_yaml}", 1,
                          "config error: {twice_yaml}: line 3: key 'interference' is given "
                          "twice in one mapping"),
    # json.loads alone would keep the last of the two values
    "repeated-log-key": ("analyze {twice_jsonl}", 2,
                         "data error: {twice_jsonl}: line 1: key 'partial' is given twice"),
    # no output may overwrite an input or the other output, by any path to the file
    "out-is-log-analyze": ("analyze {log} --out {log}", 1,
                           "error: --out and LOG name the same file: {log}"),
    "curve-is-log": ("analyze {log} --curve {log}", 1,
                     "error: --curve and LOG name the same file: {log}"),
    "out-is-log-audit": ("audit {log} --out {log}", 1,
                         "error: --out and LOG name the same file: {log}"),
    "out-is-log-by-a-link": ("audit {link_jsonl} --out {log}", 1,
                             "error: --out and LOG name the same file: {log}"),
    "out-is-curve": ("analyze {log} --curve {dir}/same.csv --out {dir}/same.csv", 1,
                     "error: --out and --curve name the same file: {dir}/same.csv"),
    "out-is-config-simulate": ("simulate --n 1 --config {own_yaml} --out {own_yaml}", 1,
                               "error: --out and --config name the same file: {own_yaml}"),
    "out-is-config-optimize": ("optimize --config {own_yaml} --out {own_yaml}", 1,
                               "error: --out and --config name the same file: {own_yaml}"),
    # characterize's --out is a directory: its two reports are the outputs (the test runs
    # in {reports}, so the default --out . is that directory)
    "report-is-config-default-out": (
        "characterize --config setting_correlations.csv", 1,
        "error: --out and --config name the same file: ./setting_correlations.csv"),
    "report-is-config-out": (
        "characterize --out {reports} --config {reports_spin}", 1,
        "error: --out and --config name the same file: {reports_spin}"),
    # the outputs are opened before the log is read
    "curve-dir-before-log": ("analyze {latin1_jsonl} --curve {dir}", 2, "data error: [Errno 21]"),
    "out-dir-before-log": ("analyze {latin1_jsonl} --out {dir}", 2, "data error: [Errno 21]"),
}
# an apparatus no geometry allows fails at load, whichever command reads the config
IMPOSSIBLE_GEOMETRY = {
    "fibre01": "link.fibre_km_per_arm=0.1 is shorter than the 640.0 m from a site",
    "ab5000": "geometry distances ab_m=5000.0, ac_m=640.0, cb_m=640.0 break the triangle",
}
FAILING.update({
    f"{name}-{command.split()[0]}": (f"{command} --config {{{name}_yaml}}", 1,
                                     f"config error: {fragment}")
    for command in ("characterize", "simulate --n 1 --out {dir}/x.jsonl", "analyze {log}",
                    "audit {log}", "optimize")
    for name, fragment in IMPOSSIBLE_GEOMETRY.items()
})


@pytest.mark.parametrize("case", FAILING)
def test_failure_is_one_prefixed_line(bad_inputs, capsys, monkeypatch, case):
    argv, code, fragment = FAILING[case]
    monkeypatch.chdir(bad_inputs["reports"])
    files = {path: Path(path).read_bytes() for path in bad_inputs.values() if Path(path).is_file()}
    capsys.readouterr()
    assert run([arg.format(**bad_inputs) for arg in argv.split()]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert fragment.format(**bad_inputs) in err
    assert {path: Path(path).read_bytes() for path in files} == files  # every input kept
    assert not Path(bad_inputs["dir"], "same.csv").exists()


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    log = tmp_path / "big.jsonl"
    assert cli.main(["simulate", "--n", "5000", "--seed", "59", "--out", str(log)]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # about 450 kB of CSV: far more than a pipe holds, so writing blocks until the close
    proc = subprocess.Popen([sys.executable, "-m", "bellsim", "audit", str(log)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"trial,condition,margin_ns,result\n"
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE
    assert err == ""


def loaded_in_fresh_interpreter(code: str, modules) -> list[str]:
    """Those of ``modules`` that ``code`` leaves in ``sys.modules`` of a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += f"\nimport json, sys; print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout.splitlines()[-1])  # the command's own output comes first


DEFAULT_YAML = str(Path(cli.__file__).resolve().parents[2] / "configs" / "default.yaml")


# modules a command has no use for, so a fresh process of it must not load them:
# the physics outside the commands that build a model (the certification reads only
# each trial's settings, outcomes and event times), numpy outside the command that
# samples trials (the state, its tensor and the optimizer are plain Python), the
# statistics of logs and their decimal and fractions outside analyze (the model's
# predictions are readout's), the optimizer outside optimize, and the log format
# and its hash outside the commands that read or write a log
UNUSED_MODULES = {
    "characterize": ["bellsim.bell_stats", "bellsim.logio", "bellsim.optimizer", "decimal",
                     "fractions", "hashlib", "numpy"],
    "simulate": ["bellsim.bell_stats", "bellsim.optimizer"],
    "analyze": ["bellsim.optimizer", "numpy"],
    "audit": ["bellsim.bell_stats", "bellsim.optimizer", "numpy"],
    "optimize": ["bellsim.bell_stats", "bellsim.logio", "decimal", "fractions", "hashlib",
                 "numpy"],
}


@pytest.mark.parametrize("with_config", [True, False], ids=["config", "built-in"])
@pytest.mark.parametrize("command", UNUSED_MODULES)
def test_a_command_loads_only_the_modules_it_uses(tmp_path, command, with_config):
    log = tmp_path / "run.jsonl"
    if command in ("analyze", "audit"):
        assert cli.main(["simulate", "--n", "245", "--out", str(log)]) == 0
    argv = {"characterize": ["characterize", "--out", str(tmp_path)],
            "simulate": ["simulate", "--n", "245", "--out", str(log)],
            "analyze": ["analyze", str(log), "--curve", str(tmp_path / "curve.csv"),
                        "--out", str(tmp_path / "analyze.json")],
            "audit": ["audit", str(log), "--out", str(tmp_path / "audit.csv")],
            "optimize": ["optimize", "--out", str(tmp_path / "optimize.json")]}[command]
    # only a command given --config parses YAML
    unused = UNUSED_MODULES[command] + ([] if with_config else ["yaml"])
    argv += ["--config", DEFAULT_YAML] if with_config else []
    code = f"import bellsim.cli; assert bellsim.cli.main({argv!r}) == 0"
    assert loaded_in_fresh_interpreter(code, unused) == []


def test_the_model_build_loads_no_statistics_and_no_hash():
    # what every model-building command pays before its first trial
    code = ("from bellsim import config, engine\n"
            f"cfg = config.load_config({DEFAULT_YAML!r})\n"
            "cfg.heralded_state()\n"
            "engine.outcome_distribution(cfg)")
    assert loaded_in_fresh_interpreter(
        code, ["bellsim.bell_stats", "bellsim.optimizer", "hashlib"]) == []


def test_annotations_resolve_with_the_type_checking_imports():
    # numpy and QuantumState are imported only for type checkers, so that the
    # certification loads no physics; with the flag set before bellsim loads (a
    # fresh interpreter), every public annotation of these modules resolves
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = """
import dataclasses, importlib, inspect, typing
typing.TYPE_CHECKING = True
for name in ("heralding", "randomness", "readout", "bell_stats", "optimizer"):
    module = importlib.import_module("bellsim." + name)
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        named_tuple = inspect.isclass(obj) and issubclass(obj, tuple) and hasattr(obj, "_fields")
        if inspect.isfunction(inspect.unwrap(obj)) or dataclasses.is_dataclass(obj) or named_tuple:
            typing.get_type_hints(obj)
            print(name + "." + attr)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    resolved = set(done.stdout.split())
    assert {"heralding.HeraldResult", "heralding.event_ready_state", "randomness.setting_bits",
            "readout.expected_correlations", "bell_stats.complete_pvalue",
            "optimizer.optimize"} <= resolved


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the tests imported do not count
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, bellsim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
