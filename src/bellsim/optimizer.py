"""Readout-angle optimisation for a characterised state and readout model.

The working parametrisation is the symmetric tilt: angles 0 and pi/2 on side
A, -(3/4)pi - eps and (3/4)pi + eps on side B. A positive tilt trades some of
the weaker X-X correlation for the stronger Z-Z correlation, which pays off
exactly when interference visibility (not readout) limits the state.

No search is needed: every correlation is bilinear in the state's (I, Z, X)
correlation tensor and the readout components (F+ - F-, (F+ + F- - 1) cos
theta, (F+ + F- - 1) sin theta), so S(eps) = c0 + c1 cos eps + c2 sin eps
exactly. The optimum is atan2(c2, c1), moved into the bounds at the point
nearest to it modulo 2 pi.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# the spec and its error live with the config section that checks the spec
from .config import OBJECTIVES, OptimizationSpec, OptimizerError
from .quantum import QuantumState
from .readout import (ReadoutBasisSet, ReadoutModel, chsh_combination, correlations_from_rows,
                      expected_correlations, observable_components, times_tensor)

TSIRELSON = 2.0 * math.sqrt(2.0)

DEGENERACY_SPAN = 1e-9  # S flatter than this over the bounds carries no tilt preference


def expected_s(state: QuantumState, readout_a: ReadoutModel, readout_b: ReadoutModel,
               basis: ReadoutBasisSet) -> float:
    """Predicted CHSH combination for the given angles."""
    return chsh_combination(expected_correlations(state, readout_a, readout_b, basis))


def tilt_coefficients(rows: list[tuple[float, float, float]],
                      readout_b: ReadoutModel) -> tuple[float, float, float]:
    """(c0, c1, c2) with S(eps) = c0 + c1 cos eps + c2 sin eps for the symmetric tilt.

    ``rows`` are v_a = u_A(a) T at A's angles 0 and pi/2. With u_B(-+beta) = (g0,
    g1 cos beta, -+g1 sin beta) and beta = 3pi/4 + eps: S = 2 g0 v_0[I] + 2 g1
    (v_0[Z] cos beta - v_1[X] sin beta).
    """
    v0, v1 = rows
    g0, g1, _ = observable_components(readout_b, 0.0)
    zz, xx = v0[1], v1[2]
    root2_g1 = math.sqrt(2.0) * g1
    return 2.0 * g0 * v0[0], -root2_g1 * (zz + xx), root2_g1 * (xx - zz)


def _nearest_in(lo: float, hi: float, target: float) -> float:
    """The point of [lo, hi] nearest to ``target`` modulo 2 pi."""
    inside = target + 2.0 * math.pi * math.ceil((lo - target) / (2.0 * math.pi))
    if inside <= hi:
        return inside
    return min((lo, hi), key=lambda x: abs(math.remainder(x - target, 2.0 * math.pi)))


def _significance_rate(s: float) -> float:
    """Large-deviation exponent of the memory-robust test per trial.

    KL(q || 3/4) for the win rate q = 1/2 + S/8 above the local bound 3/4,
    zero at or below it: non-decreasing in S, so both objectives share their
    maximiser. S is checked against the Tsirelson bound first, so q < 1.
    """
    q, q0 = 0.5 + s / 8.0, 0.75
    if q <= q0:
        return 0.0
    return q * math.log(q / q0) + (1 - q) * math.log((1 - q) / (1 - q0))


class OptimizationResult(NamedTuple):
    """The chosen tilt, its readout angles, the objective and S there."""

    epsilon: float
    basis: ReadoutBasisSet
    objective_value: float
    expected_s: float
    degenerate: bool


def optimize(spec: OptimizationSpec, state: QuantumState,
             readout_a: ReadoutModel, readout_b: ReadoutModel) -> OptimizationResult:
    """The tilt maximising the configured objective, in closed form.

    Both objectives are non-decreasing in S, so this is the S maximiser in
    [epsilon_min, epsilon_max]. S spreading by less than ``DEGENERACY_SPAN``
    over the bounds is flagged degenerate and the canonical tilt 0 (or the
    lower bound, if 0 is outside) is returned, with ``expected_s`` there.
    """
    tensor = state.correlation_tensor
    rows = [times_tensor(observable_components(readout_a, theta), tensor)
            for theta in (0.0, math.pi / 2)]  # A's angles in every tilted set
    _, c1, c2 = tilt_coefficients(rows, readout_b)
    lo, hi = spec.epsilon_min, spec.epsilon_max
    peak = math.atan2(c2, c1)
    eps, trough = _nearest_in(lo, hi, peak), _nearest_in(lo, hi, peak + math.pi)
    degenerate = (c1 * (math.cos(eps) - math.cos(trough))
                  + c2 * (math.sin(eps) - math.sin(trough))) < DEGENERACY_SPAN
    if degenerate:
        eps = 0.0 if lo <= 0.0 <= hi else lo
    basis = ReadoutBasisSet.from_tilt(eps)
    s = chsh_combination(correlations_from_rows(rows, readout_b, basis))  # expected_s, bit for bit
    if not math.isfinite(s):
        raise OptimizerError(f"objective is not finite at eps={eps}")
    if s > TSIRELSON + 1e-9:
        raise OptimizerError(f"expected S={s} above the quantum ceiling")
    value = s if spec.objective == "expected-s" else _significance_rate(s)
    return OptimizationResult(eps, basis, value, s, degenerate)
