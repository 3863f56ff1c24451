import dataclasses
import gc
import hashlib
import importlib.util
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bellsim import cli
from bellsim import spacetime as sp
from bellsim.config import ConfigError, LinkConfig, config_from_dict, default_config
from bellsim.engine import record_events, run_experiment
from bellsim.logio import LogFormatError, TrialLog, TrialRecord, read_log, write_log

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
    assert abs(GEOMETRY.light_times_ns[0] - 4269.6) < 0.1


def test_light_time_definition_of_c():
    g = sp.Geometry(ab_m=299.792458, ac_m=1.0, cb_m=1.0)
    assert abs(g.light_times_ns[0] - 1000.0) < 1e-9


@pytest.mark.parametrize("distances", [(1280.0, 640.0, 640.0), (299.792458, 1.0, 1.0),
                                       (1e-3, 7.0e5, 7.0e5 - 1e-3)])
def test_light_times_are_computed_once_per_geometry_and_bitwise_the_division(distances):
    g = sp.Geometry(*distances)
    times = g.light_times_ns
    assert g.light_times_ns is times and g.__dict__["light_times_ns"] is times
    assert [t.hex() for t in times] == [(d / sp.SPEED_OF_LIGHT_M_PER_S * 1e9).hex()
                                        for d in distances]
    # no field or equality sees it, and a replaced geometry computes its own
    assert g == sp.Geometry(*distances) and len(dataclasses.fields(g)) == 3
    moved = dataclasses.replace(g, ab_m=2 * distances[0])
    assert "light_times_ns" not in moved.__dict__
    assert moved.light_times_ns[0] == 2 * distances[0] / sp.SPEED_OF_LIGHT_M_PER_S * 1e9


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
            assert abs(check.margin_ns - GEOMETRY.light_times_ns[0]) < 1e-6


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


def _perfbench_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checks_follow_the_benchmark_label_order():
    report = sp.audit_trial(nominal_schedule(), GEOMETRY, BUDGET)
    assert tuple(c.label for c in report.checks) == _perfbench_checks().AUDIT_LABELS == sp.LABELS
    assert [c.margin_ns for c in report.checks] == list(report[:3])


def test_a_report_leaves_the_gc_one_object():
    report = sp.audit_trial(nominal_schedule(), GEOMETRY, BUDGET)
    assert len(report) == 4 and report.allowance_ns == BUDGET.sync_allowance_ns
    # besides its own class, which every instance of a Python class refers to,
    # a report refers only to floats, which the GC never tracks
    referents = [r for r in gc.get_referents(report) if r is not sp.LocalityReport]
    assert len(referents) == 4
    assert not any(gc.is_tracked(r) for r in referents)
    assert all(type(r) is float for r in referents)


def test_a_margin_equal_to_the_allowance_fails():
    report = sp.LocalityReport(16.0, 16.5, math.nextafter(16.0, 0.0), 16.0)
    assert [c.passed for c in report.checks] == [False, True, False]
    assert not report.all_pass and report.min_margin_ns == math.nextafter(16.0, 0.0)
    # and through audit_trial: an allowance of exactly A's readout margin fails A alone;
    # sites half a light-second apart make each light time 5e8 ns, so each margin is exact
    geometry = sp.Geometry(149_896_229.0, 149_896_229.0, 149_896_229.0)
    herald, choice_a, choice_b, done_a, done_b = nominal_schedule()
    times = (herald, choice_a + 3.0, choice_b, done_a, done_b)  # B's margin 3 ns wider
    margin_a = sp.audit_trial(times, geometry, BUDGET).readout_a_ns
    report = sp.audit_trial(times, geometry, sp.TimingBudget(sync_allowance_ns=margin_a))
    assert report.readout_a_ns == report.allowance_ns == margin_a
    assert [c.passed for c in report.checks] == [False, True, True]
    assert not report.all_pass
    assert sp.LocalityReport(16.5, 17.0, 18.0, 16.0).all_pass


event_time = st.floats(-1e7, 1e7)


@seed(20151021)
@settings(max_examples=300, deadline=None)
@given(st.tuples(event_time, event_time, event_time, event_time, event_time),
       st.floats(0.0, 5e3))
def test_report_summaries_agree_with_its_checks(times, allowance):
    report = sp.audit_trial(times, GEOMETRY, sp.TimingBudget(sync_allowance_ns=allowance))
    checks = report.checks
    assert [c.passed for c in checks] == [c.margin_ns > allowance for c in checks]
    assert report.all_pass == all(c.passed for c in checks)
    assert report.min_margin_ns == min(c.margin_ns for c in checks)


# ---- near-ties: the exact margin decides -------------------------------------------

GEOMETRY_1300 = sp.Geometry(ab_m=1300.0, ac_m=650.0, cb_m=650.0)
# (geometry, times, the tied margin's index, whether its exact value clears 16 ns); the
# float sum of each tied margin lands on the other side of the allowance
NEAR_TIES = {
    "readout-A-1300m": (GEOMETRY_1300, (3000.0, 2500.0, 1871.134110573756,
                                        6191.467348149733, 6700.0), 0, False),
    "readout-A-default": (GEOMETRY, (3000.0, 2500.0, 2419.9896669125183,
                                     6673.610085448864, 6700.0), 0, True),
    "herald-default": (GEOMETRY, (4671.565109268173, 2552.7549, 2600.0, 6700.0, 6700.0),
                       2, True),
}


def exact_margins(times, geometry):
    """The three margins from Fractions of the times and of d * 10^9 / c."""
    t_h, t_ca, t_cb, t_da, t_db = map(Fraction, times)
    lt_ab, lt_ac, lt_cb = (Fraction(d) * 10**9 / 299_792_458
                           for d in (geometry.ab_m, geometry.ac_m, geometry.cb_m))
    return (t_cb + lt_ab - t_da, t_ca + lt_ab - t_db,
            min(t_ca + lt_ac - t_h, t_cb + lt_cb - t_h))


@pytest.mark.parametrize("case", NEAR_TIES)
def test_a_near_tie_is_decided_by_the_exact_margin(case):
    geometry, times, tied, passes = NEAR_TIES[case]
    exact = exact_margins(times, geometry)
    assert (exact[tied] > 16) is passes and abs(exact[tied] - 16) < Fraction(1, 10**12)
    t_h, t_ca, t_cb, t_da, t_db = times
    lt_ab, lt_ac, lt_cb = geometry.light_times_ns
    rounded = (t_cb + lt_ab - t_da, t_ca + lt_ab - t_db,
               min(t_ca + lt_ac - t_h, t_cb + lt_cb - t_h))
    assert (rounded[tied] > 16.0) is not passes  # the float sums decide it wrongly
    report = sp.audit_trial(times, geometry, BUDGET)
    assert [c.passed for c in report.checks] == [m > 16 for m in exact]
    assert report.all_pass is passes
    # the tied margin is moved just onto its exact side; the others stay the float sums
    assert report[tied] == (math.nextafter(16.0, math.inf) if passes else 16.0)
    assert [m for i, m in enumerate(report[:3]) if i != tied] == [
        m for i, m in enumerate(rounded) if i != tied]


def test_validation():
    with pytest.raises(sp.AuditError):
        sp.Geometry(ab_m=-1.0)
    with pytest.raises(ConfigError, match="readout_a: readout duration must be positive"):
        config_from_dict({"readout_a": {"duration_us": -5.0}})
    with pytest.raises(sp.AuditError, match="jitter_ns"):
        sp.TimingBudget(jitter_ns=-0.5)


@pytest.mark.parametrize("kwargs", [
    dict(ab_m=math.inf, ac_m=math.inf, cb_m=math.inf),
    dict(ab_m=math.nan),
    dict(cb_m=math.nan),
    dict(ac_m=math.inf),
], ids=["all-inf", "ab-nan", "cb-nan", "ac-inf"])
def test_non_finite_geometry_is_rejected(kwargs):
    with pytest.raises(sp.AuditError, match="positive and finite"):
        sp.Geometry(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(sp.TimingBudget)])
def test_non_finite_timing_budget_is_rejected(name, value):
    with pytest.raises(sp.AuditError, match=f"finite: {name}$"):
        sp.TimingBudget(**{name: value})


# ---- the audit pinned bit for bit -------------------------------------------------


def test_audit_csv_is_pinned_by_digest(tmp_path):
    # the default-config seed-59 log of 245 trials, audited by the command
    write_log(run_experiment(default_config(), n_trials=245, seed=59), tmp_path / "run.jsonl")
    assert cli.main(["audit", str(tmp_path / "run.jsonl"), "--out", str(tmp_path / "a.csv")]) == 0
    assert (hashlib.sha256((tmp_path / "a.csv").read_bytes()).hexdigest()
            == "3678f291ad27f185824dc9310025e50f218a6772858bad929e5763e72aa3f16e")


def test_audit_margins_of_a_long_log_are_pinned_by_digest(tmp_path):
    # a budget-cut run of about 19k trials, as the long-run benchmark makes it:
    # every margin's float.hex and every pass flag, read back from the log
    herald_p = 0.25 * (3.83e-3 * 10.0 ** (-0.8 * 0.85) * 0.2) ** 2
    hours = 0.95 * 20_000 / herald_p * 20_000.0 / 3.6e12
    cfg = default_config()
    write_log(run_experiment(cfg, n_trials=20_000, hours=hours, seed=(1, 0)),
              tmp_path / "long.jsonl")
    back = read_log(tmp_path / "long.jsonl")
    assert (len(back), back.partial) == (19_217, True)
    geometry, budget = cfg.spacetime_geometry(), cfg.timing_budget()
    digest = hashlib.sha256()
    for rec in back.records:
        for check in sp.audit_trial(record_events(rec), geometry, budget).checks:
            digest.update(f"{check.margin_ns.hex()} {check.passed:d}\n".encode())
    assert digest.hexdigest() == "80bbf9d3f7e0dc444b9ac611be76fadc3b1010d317cb486275364fd5cdef3ce8"


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


def test_audit_fails_a_trial_that_rounding_alone_lifts_over_the_allowance(tmp_path, capsys):
    config = tmp_path / "ab1300.yaml"
    config.write_text("geometry: {ab_m: 1300.0, ac_m: 650.0, cb_m: 650.0}\n")
    log = TrialLog(config_hash=config_from_dict(
        {"geometry": {"ab_m": 1300.0, "ac_m": 650.0, "cb_m": 650.0}}).config_hash, seed=0)
    log.records.append(TrialRecord(0, 0, 0, 1, 1, *NEAR_TIES["readout-A-1300m"][1], 1))
    write_log(log, tmp_path / "near.jsonl")
    assert cli.main(["audit", str(tmp_path / "near.jsonl"), "--config", str(config)]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "0,readout-A-before-signal-from-choice-B,16.0,fail"
    assert err == ""


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
