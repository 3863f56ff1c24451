"""Correctness checks computed apart from bellsim.

Each check recomputes a quantity from first principles (mpmath, numpy, the
raw JSON-lines bytes) and compares it with what the program produced. Every
check returns a list of failure messages; an empty list is a pass.

The working point of ``configs/default.yaml`` is restated below, so that no
check reads its inputs through the program's config loader.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0
AB_M, AC_M, CB_M = 1280.0, 640.0, 640.0
SYNC_ALLOWANCE_NS = 16.0
ATTEMPT_PERIOD_NS = 20_000.0
RAW_BIAS, RAW_BITS_PER_OUTPUT = 0.1, 32
WIN_ADJUSTMENT = 3.0
TSIRELSON = 2.0 * math.sqrt(2.0)
# 0.25 (eta_c 10^(-0.8 * 0.85) eta_d)^2: pattern probability times both arms
HERALD_P = 0.25 * (3.83e-3 * 10.0 ** (-0.8 * 0.85) * 0.2) ** 2
TAU_OUT = 0.5 * (2.0 * RAW_BIAS) ** RAW_BITS_PER_OUTPUT
AUDIT_LABELS = ("readout-A-before-signal-from-choice-B",
                "readout-B-before-signal-from-choice-A",
                "herald-outside-future-cone-of-choices")
CHI2_MIN_P = 1e-6


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def binomial_tail(k: int, n: int, tau: float = TAU_OUT) -> float:
    """P(X >= k) for X ~ Binomial(n, 3/4 + 3 tau), to 50 digits with mpmath."""
    if k <= 0:
        return 1.0
    with mpmath.workdps(50):
        q = mpmath.mpf(3) / 4 + mpmath.mpf(WIN_ADJUSTMENT) * mpmath.mpf(tau)
        return float(mpmath.betainc(k, n - k + 1, 0, q, regularized=True))


def pvalue(p: float, k: int, n: int) -> list[str]:
    oracle = binomial_tail(k, n)
    if _rel_err(p, oracle) > 1e-12:
        return [f"p_complete {p!r} != binomial tail {oracle!r} at k={k}, n={n}"]
    return []


class Tally:
    """Setting-pair agree/disagree counts, from which n, k and S follow."""

    def __init__(self):
        self.cells = np.zeros((2, 2, 2), dtype=np.int64)  # [a, b, x == y]
        self.attempts = 0

    def add(self, a: int, b: int, x: int, y: int, attempts: int) -> None:
        self.cells[a, b, 1 if x == y else 0] += 1
        self.attempts += attempts

    @property
    def pair_counts(self) -> np.ndarray:
        return self.cells.sum(axis=2)

    @property
    def n(self) -> int:
        return int(self.cells.sum())

    @property
    def k(self) -> int:
        # a win is (-1)^(ab) x y = 1: agreement, except disagreement at a = b = 1
        c = self.cells
        return int(c[:, :, 1].sum() - c[1, 1, 1] + c[1, 1, 0])

    @property
    def s(self) -> float:
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = (self.cells[:, :, 1] - self.cells[:, :, 0]) / self.pair_counts
        return float(corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1])

    def stats(self, k: int, s: float, n: int) -> list[str]:
        errors = []
        if (n, k) != (self.n, self.k):
            errors.append(f"program (n, k) = ({n}, {k}), recount ({self.n}, {self.k})")
        if not abs(s - self.s) <= 1e-12:
            errors.append(f"program S = {s!r}, recount {self.s!r}")
        return errors


def tally_records(records) -> Tally:
    tally = Tally()
    for r in records:
        tally.add(r.a, r.b, r.x, r.y, r.attempts)
    return tally


class LogScan(Tally):
    """Counts and audit margins recomputed from the bytes of a JSON-lines log."""

    def __init__(self, path):
        super().__init__()
        lt_ab = AB_M / SPEED_OF_LIGHT_M_PER_S * 1e9
        lt_ac = AC_M / SPEED_OF_LIGHT_M_PER_S * 1e9
        lt_cb = CB_M / SPEED_OF_LIGHT_M_PER_S * 1e9
        margins = []
        with open(path, "r", encoding="utf-8") as fh:
            self.header = json.loads(fh.readline())
            for line in fh:
                r = json.loads(line)
                self.add(r["a"], r["b"], r["x"], r["y"], r["attempts"])
                margins.append((
                    r["t_choice_b_ns"] + lt_ab - r["t_read_done_a_ns"],
                    r["t_choice_a_ns"] + lt_ab - r["t_read_done_b_ns"],
                    min(r["t_choice_a_ns"] + lt_ac, r["t_choice_b_ns"] + lt_cb) - r["t_herald_ns"],
                ))
        self.margins = np.array(margins, dtype=float).reshape(-1, 3)

    def audit(self, program_margins, tolerance_ns: float) -> list[str]:
        """Program margins (n x 3, AUDIT_LABELS order) against the recount."""
        errors = []
        program = np.asarray(program_margins, dtype=float).reshape(-1, 3)
        if program.shape != self.margins.shape:
            return [f"audit has {program.shape[0]} trials, log {self.margins.shape[0]}"]
        worst = float(np.max(np.abs(program - self.margins), initial=0.0))
        if worst > tolerance_ns:
            errors.append(f"audit margins differ from the recount by up to {worst:.3g} ns")
        failing = int(np.sum(self.margins <= SYNC_ALLOWANCE_NS))
        if failing:
            errors.append(f"{failing} locality conditions fail on recomputed margins")
        return errors


def audit_passed(reports) -> list[str]:
    failing = sum(not c.passed for rep in reports for c in rep.checks)
    return [f"program audit fails {failing} conditions"] if failing else []


def attempts(total: int, n: int) -> list[str]:
    """Mean attempts per trial within 5 standard errors of the geometric mean 1/p."""
    if n == 0:
        return ["no trials"]
    mean = total / n
    se = math.sqrt(1.0 - HERALD_P) / HERALD_P / math.sqrt(n)
    if abs(mean - 1.0 / HERALD_P) > 5.0 * se:
        return [f"mean attempts {mean:.4g} is {abs(mean - 1 / HERALD_P) / se:.1f} SE from 1/p"]
    return []


def uniform_settings(pair_counts) -> list[str]:
    """Chi-square test (3 degrees of freedom) of the setting pairs against uniform."""
    counts = np.asarray(pair_counts, dtype=float).ravel()
    expected = counts.sum() / 4.0
    x = float(((counts - expected) ** 2 / expected).sum())
    p = math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    if p < CHI2_MIN_P:
        return [f"setting pairs {counts.tolist()} fail uniformity: chi2 = {x:.2f}, p = {p:.2g}"]
    return []


def budget(total_attempts: int, n: int, n_target: int, hours: float, partial: bool) -> list[str]:
    errors = []
    if total_attempts * ATTEMPT_PERIOD_NS > hours * 3600.0 * 1e9:
        errors.append("attempts overrun the hours budget")
    if not partial or n >= n_target:
        errors.append(f"budget cut-off not reported: partial={partial}, {n} of {n_target} trials")
    return errors


def readout_fidelities(rates) -> tuple[float, float]:
    """(F+, F-) of a rate model (bright, dark, flip per us; duration us)."""
    r_b, r_d, r_f, t = rates
    total = r_b + r_f
    survival = (r_f / total) * (1.0 - math.exp(-total * t)) + math.exp(-total * t)
    f_minus = math.exp(-r_d * t)
    return 1.0 - f_minus * survival, f_minus


def calibration(rates, mean_fidelity: float) -> list[str]:
    f_plus, f_minus = readout_fidelities(rates)
    if abs(0.5 * (f_plus + f_minus) - mean_fidelity) > 1e-9:
        return [f"calibrated readout averages {0.5 * (f_plus + f_minus)!r}, "
                f"anchor {mean_fidelity!r}"]
    return []


def _observable(fidelities, theta: float) -> np.ndarray:
    f_plus, f_minus = fidelities
    c, s = math.cos(theta), math.sin(theta)
    return (f_plus - f_minus) * np.eye(2) + (f_plus + f_minus - 1.0) * np.array([[c, s], [s, -c]])


def expected_s(rho: np.ndarray, fid_a, fid_b, epsilon: float) -> float:
    """CHSH S of the two-spin state under the tilted angles and noisy readout."""
    angles_a = (0.0, math.pi / 2)
    angles_b = (-0.75 * math.pi - epsilon, 0.75 * math.pi + epsilon)
    s = 0.0
    for a in (0, 1):
        for b in (0, 1):
            op = np.kron(_observable(fid_a, angles_a[a]), _observable(fid_b, angles_b[b]))
            s += (-1.0 if a == b == 1 else 1.0) * float(np.real(np.trace(rho @ op)))
    return s


def optimizer(result_epsilon: float, result_s: float, rho, fid_a, fid_b,
              configured_epsilon: float) -> list[str]:
    errors = []
    own = expected_s(rho, fid_a, fid_b, result_epsilon)
    if abs(own - result_s) > 1e-9:
        errors.append(f"optimizer reports S = {result_s!r}, recomputed {own!r}")
    floor = expected_s(rho, fid_a, fid_b, configured_epsilon)
    if not floor - 1e-12 <= result_s <= TSIRELSON + 1e-12:
        errors.append(f"optimized S = {result_s!r} outside [{floor!r}, 2 sqrt 2]")
    return errors


def singlet_fidelity(rho: np.ndarray) -> float:
    return float(np.real(rho[1, 1] + rho[2, 2] - rho[1, 2] - rho[2, 1])) / 2.0


def visibility_law(rho: np.ndarray, visibility: float) -> list[str]:
    f = singlet_fidelity(rho)
    if abs(f - (1.0 + visibility) / 2.0) > 1e-12:
        return [f"zero-error fidelity {f!r} != (1+V)/2 at V = {visibility!r}"]
    return []


def curve(rows, k: int, n: int, p_complete: float) -> list[str]:
    """Rows (k, I, p_complete, p_conventional) of the p-versus-I curve."""
    errors = []
    if [r[0] for r in rows] != list(range(n + 1)):
        return [f"curve rows are not k = 0..{n}"]
    ps = [r[2] for r in rows]
    if any(later > earlier for earlier, later in zip(ps, ps[1:])):
        errors.append("curve p_complete increases with k")
    if ps[k] != p_complete:
        errors.append(f"curve row k={k} has p = {ps[k]!r}, analysis {p_complete!r}")
    if any(abs(r[1] - 8.0 * (r[0] / n - 0.5)) > 1e-12 for r in rows):
        errors.append("curve I column is not 8 (k/n - 1/2)")
    return errors
