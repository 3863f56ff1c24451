"""Locality auditing: light-travel times, per-trial event checks, margins.

Three conditions are checked per trial, all in one common time frame:

  (i)  the readout at A completes before a light-speed signal could carry
       B's basis choice to A;
  (ii) the mirror condition for B;
  (iii) the herald at the midpoint C lies outside the future light cone of
        both basis choices.

Margins are reported raw (signed nanoseconds of headroom); a condition
passes when its margin exceeds the synchronisation/position allowance.
All checks are translation invariant in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

EVENT_LABELS = ("choice-A", "choice-B", "readout-done-A", "readout-done-B", "herald-C")


class AuditError(ValueError):
    """Invalid geometry, budget, or event set."""


@dataclass(frozen=True)
class Geometry:
    """Site separations in metres: the A-B axis plus the A-C / C-B paths."""

    ab_m: float = 1280.0
    ac_m: float = 640.0
    cb_m: float = 640.0

    def __post_init__(self):
        if min(self.ab_m, self.ac_m, self.cb_m) <= 0:
            raise AuditError("distances must be positive")

    def distance_m(self, x: str, y: str) -> float:
        x, y = x.upper(), y.upper()
        if x == y:
            return 0.0
        pair = frozenset((x, y))
        table = {
            frozenset(("A", "B")): self.ab_m,
            frozenset(("A", "C")): self.ac_m,
            frozenset(("B", "C")): self.cb_m,
        }
        if pair not in table:
            raise AuditError(f"unknown site in pair ({x}, {y})")
        return table[pair]


def light_time_ns(geometry: Geometry, site_x: str, site_y: str) -> float:
    """Light travel time between two sites in nanoseconds."""
    return geometry.distance_m(site_x, site_y) / SPEED_OF_LIGHT_M_PER_S * 1e9


@dataclass(frozen=True)
class TimingBudget:
    """Durations of the per-trial steps and the synchronisation allowance (ns)."""

    choice_to_readout_ns: float = 480.0
    readout_duration_ns: float = 3700.0
    sync_allowance_ns: float = 16.0

    def __post_init__(self):
        if min(self.choice_to_readout_ns, self.readout_duration_ns,
               self.sync_allowance_ns) < 0:
            raise AuditError("budget durations must be non-negative")


@dataclass(frozen=True)
class SpacetimeEvent:
    label: str
    site: str
    t_ns: float

    def __post_init__(self):
        if self.label not in EVENT_LABELS:
            raise AuditError(f"unknown event label {self.label!r}")
        if not math.isfinite(self.t_ns):
            raise AuditError(f"event {self.label} has non-finite time")


@dataclass(frozen=True)
class LocalityCheck:
    label: str
    margin_ns: float
    passed: bool


@dataclass(frozen=True)
class LocalityReport:
    checks: tuple[LocalityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def min_margin_ns(self) -> float:
        return min(c.margin_ns for c in self.checks)


def _event_times(events: Iterable[SpacetimeEvent]) -> dict[str, float]:
    times: dict[str, float] = {}
    for ev in events:
        times[ev.label] = ev.t_ns
    missing = [lab for lab in EVENT_LABELS if lab not in times]
    if missing:
        raise AuditError(f"missing event(s): {', '.join(missing)}")
    return times


def audit_trial(events: Sequence[SpacetimeEvent], geometry: Geometry,
                budget: TimingBudget) -> LocalityReport:
    """Check the three locality conditions for one trial's event set.

    Margins are raw signed headroom in ns; a check passes when the margin
    exceeds the synchronisation allowance.
    """
    t = _event_times(events)
    allowance = budget.sync_allowance_ns
    lt_ab = light_time_ns(geometry, "A", "B")
    checks = []
    m = t["choice-B"] + lt_ab - t["readout-done-A"]
    checks.append(LocalityCheck("readout-A-before-signal-from-choice-B", m, m > allowance))
    m = t["choice-A"] + lt_ab - t["readout-done-B"]
    checks.append(LocalityCheck("readout-B-before-signal-from-choice-A", m, m > allowance))
    m = min(
        t["choice-A"] + light_time_ns(geometry, "A", "C") - t["herald-C"],
        t["choice-B"] + light_time_ns(geometry, "B", "C") - t["herald-C"],
    )
    checks.append(LocalityCheck("herald-outside-future-cone-of-choices", m, m > allowance))
    return LocalityReport(tuple(checks))
