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

A ``LocalityReport`` is one flat tuple of four floats, the three margins and
the allowance, so an audit of many trials leaves one object per trial for the
cyclic GC to walk; its ``LocalityCheck`` rows are built when ``checks`` is read.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
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
        # written so that NaN fails it too
        if not all(0 < d < math.inf for d in (self.ab_m, self.ac_m, self.cb_m)):
            raise AuditError("distances must be positive and finite")

    @cached_property  # once per geometry: a replaced geometry is a new object
    def light_times_ns(self) -> tuple[float, float, float]:
        """Light travel times in ns over the A-B, A-C and C-B paths."""
        return tuple(d / SPEED_OF_LIGHT_M_PER_S * 1e9 for d in (self.ab_m, self.ac_m, self.cb_m))


@dataclass(frozen=True)
class TimingBudget:
    """Per-trial schedule in ns: choice start to readout start, synchronisation
    allowance, choice start after the emission round starts, uniform event jitter."""

    choice_to_readout_ns: float = 480.0
    sync_allowance_ns: float = 16.0
    choice_delay_ns: float = 2500.0
    jitter_ns: float = 5.0

    def __post_init__(self):
        bad = [f.name for f in dataclasses.fields(self)
               if not 0 <= getattr(self, f.name) < math.inf]
        if bad:
            raise AuditError(f"must be non-negative and finite: {', '.join(bad)}")


class LocalityCheck(NamedTuple):
    label: str
    margin_ns: float
    passed: bool


LABELS = ("readout-A-before-signal-from-choice-B",
          "readout-B-before-signal-from-choice-A",
          "herald-outside-future-cone-of-choices")


class LocalityReport(NamedTuple):
    """One trial's signed margins in ns, in ``LABELS`` order, and the allowance
    that each must exceed to pass."""

    readout_a_ns: float
    readout_b_ns: float
    herald_ns: float
    allowance_ns: float

    @property
    def checks(self) -> tuple[LocalityCheck, ...]:
        return tuple(LocalityCheck(label, margin, margin > self.allowance_ns)
                     for label, margin in zip(LABELS, self[:3]))

    @property
    def all_pass(self) -> bool:
        a = self.allowance_ns
        return self.readout_a_ns > a and self.readout_b_ns > a and self.herald_ns > a

    @property
    def min_margin_ns(self) -> float:
        return min(self.readout_a_ns, self.readout_b_ns, self.herald_ns)


_new = tuple.__new__


def audit_trial(times: tuple[float, float, float, float, float], geometry: Geometry,
                budget: TimingBudget) -> LocalityReport:
    """Check the three locality conditions for one trial.

    ``times`` is (herald, choice A, choice B, readout done A, readout done B)
    in ns, the order ``logio.record_events`` returns.
    """
    t_herald, t_choice_a, t_choice_b, t_done_a, t_done_b = times
    lt_ab, lt_ac, lt_cb = geometry.light_times_ns
    m_a = t_choice_b + lt_ab - t_done_a
    m_b = t_choice_a + lt_ab - t_done_b
    m_c = min(t_choice_a + lt_ac - t_herald, t_choice_b + lt_cb - t_herald)
    # tuple.__new__ skips the NamedTuple's Python-level __new__: a quarter of the audit's time
    return _new(LocalityReport, (m_a, m_b, m_c, budget.sync_allowance_ns))
