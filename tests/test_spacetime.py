import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellsim import spacetime as sp

GEOMETRY = sp.Geometry()
BUDGET = sp.TimingBudget()


def nominal_schedule(choice_ns=0.0, readout_ns=3700.0, herald_ns=None, choice_delay=2500.0):
    """Nominal event set: both choices at the same time, herald on the fibre delay."""
    t_choice = choice_delay + choice_ns
    t_read = t_choice + 480.0 + readout_ns
    t_herald = 4168.0 if herald_ns is None else herald_ns
    return (
        sp.SpacetimeEvent("choice-A", "A", t_choice),
        sp.SpacetimeEvent("choice-B", "B", t_choice),
        sp.SpacetimeEvent("readout-done-A", "A", t_read),
        sp.SpacetimeEvent("readout-done-B", "B", t_read),
        sp.SpacetimeEvent("herald-C", "C", t_herald),
    )


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
    events = (
        sp.SpacetimeEvent("choice-A", "A", 0.0),
        sp.SpacetimeEvent("choice-B", "B", 0.0),
        sp.SpacetimeEvent("readout-done-A", "A", 1e-9),
        sp.SpacetimeEvent("readout-done-B", "B", 1e-9),
        sp.SpacetimeEvent("herald-C", "C", 0.0),
    )
    report = sp.audit_trial(events, GEOMETRY, BUDGET)
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


def test_missing_event_names_the_label():
    events = nominal_schedule()[:-1]
    with pytest.raises(sp.AuditError, match="herald-C"):
        sp.audit_trial(events, GEOMETRY, BUDGET)


@given(st.floats(-1e6, 1e6))
def test_margins_are_translation_invariant(shift):
    base = sp.audit_trial(nominal_schedule(), GEOMETRY, BUDGET)
    shifted_events = tuple(
        sp.SpacetimeEvent(e.label, e.site, e.t_ns + shift) for e in nominal_schedule()
    )
    shifted = sp.audit_trial(shifted_events, GEOMETRY, BUDGET)
    for a, b in zip(base.checks, shifted.checks):
        assert abs(a.margin_ns - b.margin_ns) < 1e-6


def test_mirrored_sites_give_mirrored_reports():
    events = nominal_schedule(readout_ns=3650.0)
    # perturb A's choice so the two readout conditions differ
    events = tuple(
        sp.SpacetimeEvent(e.label, e.site, e.t_ns + (7.0 if e.label == "choice-A" else 0.0))
        for e in events
    )
    swapped = []
    for e in events:
        label = e.label.replace("-A", "-tmp").replace("-B", "-A").replace("-tmp", "-B")
        site = {"A": "B", "B": "A"}.get(e.site, e.site)
        swapped.append(sp.SpacetimeEvent(label, site, e.t_ns))
    mirrored_geometry = sp.Geometry(ab_m=GEOMETRY.ab_m, ac_m=GEOMETRY.cb_m, cb_m=GEOMETRY.ac_m)
    base = sp.audit_trial(events, GEOMETRY, BUDGET)
    mirror = sp.audit_trial(tuple(swapped), mirrored_geometry, BUDGET)
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
    with pytest.raises(sp.AuditError):
        sp.TimingBudget(readout_duration_ns=-5.0)
    with pytest.raises(sp.AuditError):
        sp.SpacetimeEvent("not-a-label", "A", 0.0)
