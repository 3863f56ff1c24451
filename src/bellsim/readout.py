"""Single-shot spin readout, and what the readouts measure on a state.

The bright spin level scatters photons at a constant rate until an optional
spin-flip (decay/ionisation) interrupts it; the dark level produces only
false counts. Outcome +1 is assigned when at least one count arrives inside
the readout window, -1 otherwise. A model's fidelities are those at its own
window, where ``calibrate_readout`` solves the bright rate. Reading out
along a tilted axis in the Z-X plane means rotating the spin first and then
thresholding along Z; the simulator uses the result only as the (I, Z, X)
components of the observable it measures. From those components and a
state's correlation tensor come the predicted correlation E(a, b) of each
setting pair and their CHSH combination S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .quantum import QuantumState

SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
CHSH_SIGNS = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}


class ReadoutError(ValueError):
    """Invalid readout model input."""


@dataclass(frozen=True)
class ReadoutModel:
    """Count rates (per microsecond) and the readout window duration."""

    bright_rate_per_us: float
    dark_rate_per_us: float = 0.0
    flip_rate_per_us: float = 0.0
    duration_us: float = 3.7

    def __post_init__(self):
        if not all(map(math.isfinite, (self.bright_rate_per_us, self.dark_rate_per_us,
                                       self.flip_rate_per_us, self.duration_us))):
            raise ReadoutError("rates and duration must be finite")
        if min(self.bright_rate_per_us, self.dark_rate_per_us, self.flip_rate_per_us) < 0:
            raise ReadoutError("rates must be non-negative")
        if self.duration_us <= 0:
            raise ReadoutError("readout duration must be positive")

    @cached_property  # once per model: a replaced model is a new object
    def fidelities(self) -> tuple[float, float]:
        """(F+, F-) at the model's own window. F+ = P(+1 | bright) is one minus the
        no-count probability: bright emission runs until an exponential spin flip
        truncates it, dark counts for the whole window. F- = P(-1 | dark) decays
        only through dark counts. F+ rises and F- falls with the window."""
        r_b, r_d, r_f, t_us = (self.bright_rate_per_us, self.dark_rate_per_us,
                               self.flip_rate_per_us, self.duration_us)
        total = r_b + r_f
        if total > 0:
            # E[exp(-r_b * min(t, T_flip))], flip time exponential with rate r_f
            survival = (r_f / total) * (1.0 - math.exp(-total * t_us)) + math.exp(-total * t_us)
        else:
            survival = 1.0
        f_minus = math.exp(-r_d * t_us)
        return 1.0 - f_minus * survival, f_minus


def calibrate_readout(mean_fidelity: float, duration_us: float = 3.7,
                      dark_fidelity: float = 0.995,
                      flip_rate_per_us: float = 0.02) -> ReadoutModel:
    """Build a rate model hitting a measured average readout fidelity.

    The dark-state fidelity at the working duration is pinned (default 0.995,
    which keeps it above 0.98), fixing the dark-count rate; the bright rate is
    then solved so that (F+ + F-)/2 equals ``mean_fidelity`` at ``duration_us``.
    """
    if not 0.5 < mean_fidelity < 1.0:
        raise ReadoutError("mean fidelity must be in (0.5, 1)")
    if not 0.0 < dark_fidelity <= 1.0:
        raise ReadoutError("dark fidelity must be in (0, 1]")
    if not duration_us > 0:
        raise ReadoutError("readout duration must be positive")
    r_d = -math.log(dark_fidelity) / duration_us
    target_plus = 2.0 * mean_fidelity - dark_fidelity
    if not 0.0 < target_plus < 1.0:
        raise ReadoutError(
            f"anchor F+={target_plus} out of range; lower dark_fidelity or mean_fidelity"
        )

    def gap(r_b: float) -> float:
        return ReadoutModel(r_b, r_d, flip_rate_per_us, duration_us).fidelities[0] - target_plus

    lo, hi = 1e-9, 1e6
    if gap(hi) < 0:
        raise ReadoutError(
            f"anchor F+={target_plus:.6f} unreachable: spin flips cap the bright "
            f"fidelity at {gap(hi) + target_plus:.6f}"
        )
    # F+ does not decrease in the bright rate: bisect down to adjacent floats
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return ReadoutModel(hi, r_d, flip_rate_per_us, duration_us)


def observable_components(model: ReadoutModel, theta: float) -> tuple[float, float, float]:
    """(I, Z, X) components of the noisy observable E+ - E- along ``theta``, as floats.

    The readout POVM is E+ = F+ P+ + (1 - F-) P- and E- = I - E+, on the
    projectors P+- = (I +- (cos theta Z + sin theta X)) / 2 along the tilted
    axis. So E+ - E- = (F+ - F-) I + (F+ + F- - 1) (cos theta Z + sin theta X).
    """
    f_plus, f_minus = model.fidelities
    contrast = f_plus + f_minus - 1.0
    return f_plus - f_minus, contrast * math.cos(theta), contrast * math.sin(theta)


@dataclass(frozen=True)
class ReadoutBasisSet:
    """The four readout angles, in radians from Z."""

    a0: float = 0.0
    a1: float = math.pi / 2
    b0: float = -3 * math.pi / 4
    b1: float = 3 * math.pi / 4

    def __post_init__(self):
        for name in ("a0", "a1", "b0", "b1"):
            if not math.isfinite(getattr(self, name)):
                raise ReadoutError(f"angle {name} must be finite")

    @classmethod
    def from_tilt(cls, epsilon: float) -> "ReadoutBasisSet":
        """Tilted set: a0=0, a1=pi/2, b0=-3pi/4-eps, b1=3pi/4+eps."""
        return cls(0.0, math.pi / 2, -3 * math.pi / 4 - epsilon,
                   3 * math.pi / 4 + epsilon)


def expected_correlations(state: QuantumState, readout_a: ReadoutModel,
                          readout_b: ReadoutModel,
                          basis: ReadoutBasisSet) -> dict[tuple[int, int], float]:
    """Predicted E(a,b) from the state, the readout POVMs, and the angles,
    all four from the state's one correlation tensor."""
    from .quantum import times_tensor  # a config load builds no state
    tensor = state.correlation_tensor
    row_a = [times_tensor(observable_components(readout_a, theta), tensor)
             for theta in (basis.a0, basis.a1)]
    u_b = [observable_components(readout_b, theta) for theta in (basis.b0, basis.b1)]
    return {(a, b): row_a[a][0] * u_b[b][0] + row_a[a][1] * u_b[b][1] + row_a[a][2] * u_b[b][2]
            for a, b in SETTING_PAIRS}


def chsh_combination(correlations: Mapping[tuple[int, int], float]) -> float:
    """S from a full table of per-setting correlations, summed left to right
    (the builtin ``sum`` rounds floats differently from CPython 3.12 on)."""
    missing = [p for p in SETTING_PAIRS if p not in correlations]
    if missing:
        raise ReadoutError(f"correlation table is missing {missing}")
    s = 0.0
    for p in SETTING_PAIRS:
        s += CHSH_SIGNS[p] * correlations[p]
    return s
