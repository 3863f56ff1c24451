"""Locality auditing: light-travel times and per-trial margins.

A trial is audited from its five event times in one common frame (see
``audit_trial``). Three conditions are checked:

  (i)  the readout at A completes before a light-speed signal could carry
       B's basis choice to A;
  (ii) the mirror condition for B;
  (iii) the herald at the midpoint C lies outside the future light cone of
        both basis choices.

A readout ends ``choice_to_readout_ns`` plus its site's modelled window
(``readout_*.duration_us``, the fidelity calibration point) after its choice.
Margins are reported raw (signed nanoseconds of headroom); a condition
passes when its margin exceeds the synchronisation/position allowance.
All checks are translation invariant in time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0


class AuditError(ValueError):
    """Invalid geometry or timing budget."""


@dataclass(frozen=True)
class Geometry:
    """Site separations in metres: the A-B axis plus the A-C / C-B paths."""

    ab_m: float = 1280.0
    ac_m: float = 640.0
    cb_m: float = 640.0

    def __post_init__(self):
        if min(self.ab_m, self.ac_m, self.cb_m) <= 0:
            raise AuditError("distances must be positive")


def light_time_ns(geometry: Geometry, site_x: str, site_y: str) -> float:
    """Light travel time between two sites in nanoseconds."""
    x, y = sorted((site_x.upper(), site_y.upper()))
    if x == y:
        return 0.0
    metres = {("A", "B"): geometry.ab_m, ("A", "C"): geometry.ac_m, ("B", "C"): geometry.cb_m}
    if (x, y) not in metres:
        raise AuditError(f"unknown site in pair ({x}, {y})")
    return metres[x, y] / SPEED_OF_LIGHT_M_PER_S * 1e9


@dataclass(frozen=True)
class TimingBudget:
    """Per-trial schedule in ns: choice start to readout start, synchronisation
    allowance, choice start after the emission round starts, uniform event jitter."""

    choice_to_readout_ns: float = 480.0
    sync_allowance_ns: float = 16.0
    choice_delay_ns: float = 2500.0
    jitter_ns: float = 5.0

    def __post_init__(self):
        negative = [f.name for f in dataclasses.fields(self) if getattr(self, f.name) < 0]
        if negative:
            raise AuditError(f"must be non-negative: {', '.join(negative)}")


class LocalityCheck(NamedTuple):
    label: str
    margin_ns: float
    passed: bool


class LocalityReport(NamedTuple):
    checks: tuple[LocalityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def min_margin_ns(self) -> float:
        return min(c.margin_ns for c in self.checks)


_new = tuple.__new__


def audit_trial(times: tuple[float, float, float, float, float], geometry: Geometry,
                budget: TimingBudget) -> LocalityReport:
    """Check the three locality conditions for one trial.

    ``times`` is (herald, choice A, choice B, readout done A, readout done B)
    in ns, the order ``logio.record_events`` returns.
    """
    t_herald, t_choice_a, t_choice_b, t_done_a, t_done_b = times
    allowance = budget.sync_allowance_ns
    lt_ab = geometry.ab_m / SPEED_OF_LIGHT_M_PER_S * 1e9
    m_a = t_choice_b + lt_ab - t_done_a
    m_b = t_choice_a + lt_ab - t_done_b
    m_c = min(t_choice_a + geometry.ac_m / SPEED_OF_LIGHT_M_PER_S * 1e9 - t_herald,
              t_choice_b + geometry.cb_m / SPEED_OF_LIGHT_M_PER_S * 1e9 - t_herald)
    # tuple.__new__ skips the NamedTuples' Python-level __new__: a quarter of the audit's time
    return _new(LocalityReport, ((
        _new(LocalityCheck, ("readout-A-before-signal-from-choice-B", m_a, m_a > allowance)),
        _new(LocalityCheck, ("readout-B-before-signal-from-choice-A", m_b, m_b > allowance)),
        _new(LocalityCheck, ("herald-outside-future-cone-of-choices", m_c, m_c > allowance)),
    ),))
