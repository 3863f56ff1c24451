import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellsim import cli
from bellsim import spacetime as sp
from bellsim.config import ConfigError, LinkConfig, config_from_dict, default_config
from bellsim.engine import record_events, run_experiment
from bellsim.logio import LogFormatError, read_log, write_log

GEOMETRY = sp.Geometry()
BUDGET = sp.TimingBudget()


def nominal_schedule(choice_ns=0.0, readout_ns=3700.0, herald_ns=None, choice_delay=2500.0):
    """Nominal (herald, choice A, choice B, done A, done B): both choices at the
    same time, herald on the fibre delay."""
    t_choice = choice_delay + choice_ns
    t_read = t_choice + 480.0 + readout_ns
    t_herald = 4168.0 if herald_ns is None else herald_ns
    return (t_herald, t_choice, t_choice, t_read, t_read)


# ---- light time -----------------------------------------------------------------


def test_light_time_site_separation():
    assert abs(sp.light_time_ns(GEOMETRY, "A", "B") - 4269.6) < 0.1


def test_light_time_zero_distance():
    assert sp.light_time_ns(GEOMETRY, "A", "A") == 0.0


def test_light_time_definition_of_c():
    g = sp.Geometry(ab_m=299.792458, ac_m=1.0, cb_m=1.0)
    assert abs(sp.light_time_ns(g, "A", "B") - 1000.0) < 1e-9


def test_unknown_site_rejected():
    with pytest.raises(sp.AuditError):
        sp.light_time_ns(GEOMETRY, "A", "D")


# ---- audit ------------------------------------------------------------------------


def test_nominal_schedule_passes_with_ninety_ns_margin():
    report = sp.audit_trial(nominal_schedule(), GEOMETRY, BUDGET)
    assert report.all_pass
    readout_margins = [c.margin_ns for c in report.checks if c.label.startswith("readout")]
    for margin in readout_margins:
        assert abs(margin - 89.6) < 0.1  # raw margin, before the 16 ns allowance
    assert abs(min(readout_margins) - 90.0) < 0.5


def test_stretched_readout_fails_with_exact_margin():
    # oracle arithmetic: 4269.62 - (480 + 4300) = -510.4
    report = sp.audit_trial(nominal_schedule(readout_ns=4300.0), GEOMETRY, BUDGET)
    for check in report.checks:
        if check.label.startswith("readout"):
            assert not check.passed
            assert abs(check.margin_ns - (-510.4)) < 0.1


def test_zero_duration_everything_passes_with_full_window():
    report = sp.audit_trial((0.0, 0.0, 0.0, 1e-9, 1e-9), GEOMETRY, BUDGET)
    assert report.all_pass
    for check in report.checks:
        if check.label.startswith("readout"):
            assert abs(check.margin_ns - sp.light_time_ns(GEOMETRY, "A", "B")) < 1e-6


def test_herald_condition_uses_midpoint_light_cones():
    # choice fires early enough that its light cone reaches C before the herald
    report = sp.audit_trial(nominal_schedule(choice_delay=1000.0), GEOMETRY, BUDGET)
    herald_check = [c for c in report.checks if c.label.startswith("herald")][0]
    # margin = 1000 + 2134.8 - 4168 = -1033.2
    assert abs(herald_check.margin_ns - (-1033.2)) < 0.1
    assert not herald_check.passed


@given(st.floats(-1e6, 1e6))
def test_margins_are_translation_invariant(shift):
    base = sp.audit_trial(nominal_schedule(), GEOMETRY, BUDGET)
    shifted = sp.audit_trial(tuple(t + shift for t in nominal_schedule()), GEOMETRY, BUDGET)
    for a, b in zip(base.checks, shifted.checks):
        assert abs(a.margin_ns - b.margin_ns) < 1e-6


def test_mirrored_sites_give_mirrored_reports():
    herald, choice_a, choice_b, done_a, done_b = nominal_schedule(readout_ns=3650.0)
    # perturb A's choice so the two readout conditions differ
    choice_a += 7.0
    mirrored_geometry = sp.Geometry(ab_m=GEOMETRY.ab_m, ac_m=GEOMETRY.cb_m, cb_m=GEOMETRY.ac_m)
    base = sp.audit_trial((herald, choice_a, choice_b, done_a, done_b), GEOMETRY, BUDGET)
    mirror = sp.audit_trial((herald, choice_b, choice_a, done_b, done_a), mirrored_geometry,
                            BUDGET)
    assert abs(base.checks[0].margin_ns - mirror.checks[1].margin_ns) < 1e-9
    assert abs(base.checks[1].margin_ns - mirror.checks[0].margin_ns) < 1e-9
    assert abs(base.checks[2].margin_ns - mirror.checks[2].margin_ns) < 1e-9


def test_pass_iff_every_margin_clears_allowance():
    report = sp.audit_trial(nominal_schedule(), GEOMETRY, BUDGET)
    for check in report.checks:
        assert check.passed == (check.margin_ns > BUDGET.sync_allowance_ns)


def test_validation():
    with pytest.raises(sp.AuditError):
        sp.Geometry(ab_m=-1.0)
    with pytest.raises(ConfigError, match="readout_a: readout duration must be positive"):
        config_from_dict({"readout_a": {"duration_us": -5.0}})
    with pytest.raises(sp.AuditError, match="jitter_ns"):
        sp.TimingBudget(jitter_ns=-0.5)


# ---- event times in a log ----------------------------------------------------------


@pytest.mark.parametrize("side", ["A", "B"])
def test_readout_window_moves_only_its_own_readout_margin(tmp_path, capsys, side):
    # the readout end is placed by the window the fidelity model is calibrated
    # at: 10 us instead of 3.7 us ends this site's readout 6,300 ns later
    stretched = config_from_dict({f"readout_{side.lower()}": {"duration_us": 10.0}})
    base_log = run_experiment(default_config(), n_trials=20, seed=59)
    log = run_experiment(stretched, n_trials=20, seed=59)
    own = "AB".index(side)
    for base_rec, rec in zip(base_log.records, log.records):
        before = sp.audit_trial(record_events(base_rec), GEOMETRY, BUDGET).checks
        after = sp.audit_trial(record_events(rec), GEOMETRY, BUDGET).checks
        assert before[own].passed and not after[own].passed
        assert after[own].margin_ns == pytest.approx(before[own].margin_ns - 6300.0, abs=1e-6)
        assert after[1 - own] == before[1 - own]  # the other site's readout
        assert after[2] == before[2]  # the herald
    path = tmp_path / "stretched.jsonl"
    write_log(log, path)
    assert cli.main(["audit", str(path)]) == 3
    failing = {line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]
               if line.endswith(",fail")}
    assert failing == {f"readout-{side}-before-signal-from-choice-{'BA'[own]}"}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_log_time_is_a_data_error(tmp_path, capsys, token):
    link = LinkConfig(collection_efficiency=1.0, detector_efficiency=1.0, loss_db_per_km=0.0)
    log = run_experiment(dataclasses.replace(default_config(), link=link), n_trials=3, seed=2)
    path = tmp_path / "log.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    lines[2] = re.sub(r'"t_herald_ns":[^,]+', f'"t_herald_ns":{token}', lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError, match="line 3: event times must be finite"):
        read_log(path)
    for command in ("audit", "analyze"):
        assert cli.main([command, str(path)]) == 2
        assert "line 3" in capsys.readouterr().err
