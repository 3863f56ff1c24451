"""CHSH estimators and hypothesis tests for event-ready trial logs.

Two significance analyses are provided. The conventional one assumes i.i.d.
trials, Gaussian statistics, and perfect input randomness: a one-sided normal
tail at z = (S - 2) / sigma_S. The complete one allows arbitrary memory in
the devices and partially predictable inputs: with uniform settings, no local
realist strategy can win a trial (in the sense (-1)^(a b) x y = 1) with
probability above 3/4 regardless of history, so the number of wins k out of
n is stochastically dominated by a binomial, and its exact tail is a valid
p-value bound. Input predictability tau relaxes the per-trial win bound to
3/4 + c tau (the adjustment coefficient is configurable and conservative).

Every p-value of the complete analysis is the smallest float >= the exact
binomial tail, so it is conservative and one defined float. The tail is
summed from the top twice on 128-bit integer mantissas with binary
exponents, once rounding every step down and once up; when both bounds
round up to the same float, that float is the answer (the exact tail lies
between them). Otherwise the exact tail, whose numerator over D^n (win bound
q = Q/D) is summed on plain integers by Horner's rule, is rounded up.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .readout import ReadoutBasisSet, ReadoutModel, observable_components

if TYPE_CHECKING:
    from .quantum import QuantumState

SETTING_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
CHSH_SIGNS = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}

DEFAULT_WIN_ADJUSTMENT = 3.0  # conservative: every favourable pair may gain tau


class StatisticsError(ValueError):
    """Invalid estimator input."""


class MissingSettingError(StatisticsError):
    """A setting pair has no trials, leaving S undefined."""


@dataclass(frozen=True)
class SettingCell:
    """Per-setting-pair counts and correlation estimate."""

    n: int
    n_agree: int
    n_disagree: int
    correlation: float
    std_error: float


@dataclass(frozen=True)
class ChshEstimate:
    cells: tuple[tuple[tuple[int, int], SettingCell], ...]
    s: float
    sigma_s: float


_CELL = attrgetter("a", "b", "x", "y")


def _cell_counts(records: Iterable) -> Counter:
    """Trials per distinct (a, b, x, y) cell, keys in first-occurrence order.

    A per-trial expression evaluated once per cell and weighted by its count
    gives the same integers as one trial at a time. Settings that are not a
    setting pair raise at the cell of the first record that has them.
    """
    cells = Counter(map(_CELL, records))
    for a, b, _, _ in cells:
        if (a, b) not in CHSH_SIGNS:
            raise StatisticsError(f"invalid settings {(a, b)}")
    return cells


def _estimate(counted: Counter) -> ChshEstimate:
    counts = {pair: [0, 0] for pair in SETTING_PAIRS}  # [agree, disagree]
    for (a, b, x, y), n in counted.items():
        counts[a, b][0 if x * y == 1 else 1] += n
    missing = [pair for pair, (agree, dis) in counts.items() if agree + dis == 0]
    if missing:
        raise MissingSettingError(
            "no trials for setting pair(s): " + ", ".join(str(p) for p in missing)
        )
    cells = []
    s = 0.0
    var = 0.0
    for pair in SETTING_PAIRS:
        agree, dis = counts[pair]
        n = agree + dis
        e = (agree - dis) / n
        se = math.sqrt(max(0.0, 1.0 - e * e) / n)
        cells.append((pair, SettingCell(n, agree, dis, e, se)))
        s += CHSH_SIGNS[pair] * e
        var += se * se
    return ChshEstimate(tuple(cells), s, math.sqrt(var))


def _wins(counted: Counter) -> int:
    return sum(n for (a, b, x, y), n in counted.items() if (-1) ** (a * b) * x * y == 1)


def chsh_estimate(records: Sequence) -> ChshEstimate:
    """Correlation table, S, and its standard error from trial records.

    E(a,b) = (N_agree - N_disagree) / n(a,b), S = E00 + E01 + E10 - E11,
    per-cell standard error sqrt((1 - E^2)/n), sigma_S the root sum square.
    """
    return _estimate(_cell_counts(records))


def win_count(records: Iterable) -> int:
    """Number of trials with (-1)^(a b) x y = 1; settings are checked as in ``chsh_estimate``."""
    return _wins(_cell_counts(records))


def i_statistic(k: int, n: int) -> float:
    """I = 8 (k/n - 1/2), computed exactly before the final float conversion."""
    if n < 1:
        raise StatisticsError("n must be >= 1")
    if not 0 <= k <= n:
        raise StatisticsError(f"k={k} outside [0, {n}]")
    return (8 * k - 4 * n) / n  # int / int is correctly rounded


def conventional_pvalue(s: float, sigma_s: float) -> float:
    """One-sided Gaussian tail at z = (S - 2) / sigma_S."""
    if sigma_s <= 0:
        raise StatisticsError("sigma_S must be positive")
    z = (s - 2.0) / sigma_s
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _scaled_tails(n: int, q: Fraction, k: int) -> Iterator[tuple[int, int]]:
    """Yield (j, A_j) for j = n, n-1, ..., k, with P(X >= j) = A_j Q^j / D^n.

    X ~ Binomial(n, Q/D) and R = D - Q. A_j = sum_{i >= j} C(n, i) Q^(i-j)
    R^(n-i) is summed on integers by Horner's rule from the top, updating
    C(n, j) and R^(n-j) one step at a time; no gcd is ever taken.
    """
    big_q, big_r = q.numerator, q.denominator - q.numerator
    acc, comb, r_pow = 0, 1, 1
    for j in range(n, k - 1, -1):
        acc = acc * big_q + comb * r_pow
        yield j, acc
        comb = comb * j // (n - j + 1)
        r_pow *= big_r


_BITS = 128  # mantissa bits kept by the enclosure; its relative width is about n 2^-128


def _shift(m: int, s: int, up: bool) -> int:
    """m / 2^s rounded down or up."""
    return -(-m >> s) if up else m >> s


def _ratio(num: int, den: int, up: bool) -> tuple[int, int]:
    """(m, e) with m 2^e = num/den rounded down or up and m >= 2^_BITS; num/den < 2^_BITS."""
    s = _BITS + 1 + den.bit_length() - num.bit_length()
    return (-(-(num << s) // den) if up else (num << s) // den), -s


def _product(a: tuple[int, int], b: tuple[int, int], up: bool) -> tuple[int, int]:
    """a b rounded down or up to _BITS + 1 bits."""
    m, e = a[0] * b[0], a[1] + b[1]
    s = m.bit_length() - _BITS - 1
    return (_shift(m, s, up), e + s) if s > 0 else (m, e)


def _tail_bounds(n: int, q: Fraction, k: int, up: bool) -> Iterator[tuple[int, int, int]]:
    """Yield (j, S, e) for j = n, n-1, ..., k, with S 2^e <= P(X >= j) (``up`` false)
    or >= it (``up`` true), X ~ Binomial(n, q) and 0 < q < 1.

    The terms t_n = q^n and t_(j-1) = t_j j rho / (n - j + 1), rho = (1 - q)/q,
    are summed from the top. Every value is an integer mantissa with a binary
    exponent, and every step rounds in one direction, so the sum is a bound.
    The running sum shares the term's exponent; both shift right together
    when the term passes 2^(_BITS + 8). For n >= 1, q^n starts with more than
    _BITS bits and the sum never drops below 2^_BITS, so e stays negative.
    """
    big_q, big_d = q.numerator, q.denominator
    rho, rho_e = _ratio(big_d - big_q, big_q, up)
    power, base, bits = (1, 0), _ratio(big_q, big_d, up), n
    while bits:  # q^n by squaring, each product rounded in the pass's direction
        if bits & 1:
            power = _product(power, base, up)
        bits >>= 1
        if bits:
            base = _product(base, base, up)
    term, e = power
    total, limit = 0, 1 << (_BITS + 8)
    for j in range(n, k - 1, -1):
        total += term
        yield j, total, e
        # t j rho / (n - j + 1): the shift and the division round the same way
        if up:
            term = -((-term * j * rho >> -rho_e) // (n - j + 1))
        else:
            term = (term * j * rho >> -rho_e) // (n - j + 1)
        if term >= limit:
            s = term.bit_length() - _BITS - 1
            term, total, e = _shift(term, s, up), _shift(total, s, up), e + s


def _float_up(num: int, den: int) -> float:
    """The smallest float >= num/den (num >= 0, den > 0), subnormals included."""
    p = num / den  # int / int is correctly rounded, so at most one step below
    a, b = p.as_integer_ratio()
    return math.nextafter(p, math.inf) if a * den < num * b else p


def _tails_up(n: int, q: Fraction, ks: Iterable[int]) -> dict[int, float]:
    """{j: the smallest float >= P(X >= j)} for X ~ Binomial(n, q), 0 < q < 1.

    The two directed-rounding passes enclose each tail; where both round up
    to one float, that float is the answer (the exact tail lies between
    them). Elsewhere the exact integer tail is rounded up.
    """
    wanted = set(ks)
    lowest = min(wanted)
    lower = {j: _float_up(s, 1 << -e)
             for j, s, e in _tail_bounds(n, q, lowest, up=False) if j in wanted}
    upper = {j: min(_float_up(s, 1 << -e), 1.0)
             for j, s, e in _tail_bounds(n, q, lowest, up=True) if j in wanted}
    tails = {j: p for j, p in lower.items() if upper[j] == p}
    unsettled = wanted - tails.keys()
    if unsettled:
        denominator = q.denominator**n
        for j, acc in _scaled_tails(n, q, min(unsettled)):
            if j in unsettled:
                tails[j] = _float_up(acc * q.numerator**j, denominator)
    return tails


def win_probability_bound(tau_out: float,
                          win_adjustment: float = DEFAULT_WIN_ADJUSTMENT) -> Fraction:
    """Per-trial local-realist win bound 3/4 + c tau, capped at 1."""
    if not 0.0 <= tau_out < 0.25:
        raise StatisticsError("tau_out must be in [0, 1/4)")
    if win_adjustment < 0:
        raise StatisticsError("win adjustment must be non-negative")
    q = Fraction(3, 4) + Fraction(win_adjustment) * Fraction(tau_out)
    return min(q, Fraction(1))


# Replicas of one size repeat their k: 38 distinct k in 1,000 default replicas.
# typed: an int k cached first must not answer a float k, which raises.
@lru_cache(maxsize=1024, typed=True)
def complete_pvalue(k: int, n: int, tau_out: float = 0.0,
                    win_adjustment: float = DEFAULT_WIN_ADJUSTMENT) -> float:
    """Memory-robust p-value bound: exact binomial tail at the win bound.

    Valid against any local realist model with memory; decreasing in k at
    fixed (n, tau), increasing in tau at fixed (k, n). The result is the
    smallest float >= the exact tail, so it never understates it (a tail
    below every positive float gives the smallest one, never 0.0). A win
    bound >= 1 degenerates to p = 1. A pure function of its arguments, so
    results are cached; bad arguments raise on every call.
    """
    if n < 1:
        raise StatisticsError("n must be >= 1")
    if not 0 <= k <= n:
        raise StatisticsError(f"k={k} outside [0, {n}]")
    q = win_probability_bound(tau_out, win_adjustment)
    if q >= 1:
        return 1.0
    return _tails_up(n, q, (k,))[k]


@dataclass(frozen=True)
class CurveRow:
    k: int
    i: float
    p_complete: float
    p_conventional: float


def p_vs_i_curve(n: int, tau_out: float = 0.0,
                 k_values: Sequence[int] | None = None,
                 win_adjustment: float = DEFAULT_WIN_ADJUSTMENT) -> list[CurveRow]:
    """Significance versus the I statistic for a grid of win counts.

    ``p_conventional`` is the Gaussian-tail equivalent for the same win
    statistic under the i.i.d. null (mean n q, variance n q (1-q), q = 3/4).
    """
    if n < 1:
        raise StatisticsError("n must be >= 1")
    if k_values is None:
        k_values = range(n + 1)
    k_values = list(k_values)
    for k in k_values:
        if not 0 <= k <= n:
            raise StatisticsError(f"k={k} outside [0, {n}]")
    q = win_probability_bound(tau_out, win_adjustment)
    # every row from one enclosure pass; empty when the win bound reaches 1
    p_complete = _tails_up(n, q, k_values) if q < 1 and k_values else {}
    q0 = 0.75
    sd = math.sqrt(n * q0 * (1 - q0))
    rows = []
    for k in k_values:
        z = (k - n * q0) / sd
        rows.append(CurveRow(int(k), i_statistic(k, n), p_complete.get(k, 1.0),
                             0.5 * math.erfc(z / math.sqrt(2.0))))
    return rows


def expected_correlations(state: QuantumState, readout_a: ReadoutModel,
                          readout_b: ReadoutModel,
                          basis: ReadoutBasisSet) -> dict[tuple[int, int], float]:
    """Predicted E(a,b) from the state, the readout POVMs, and the angles,
    all four from one :func:`correlation_tensor` of the state."""
    from .quantum import correlation_tensor  # the statistics alone load no numpy
    tensor = correlation_tensor(state)
    row_a = [observable_components(readout_a, basis.angle("A", a)) @ tensor for a in (0, 1)]
    u_b = [observable_components(readout_b, basis.angle("B", b)) for b in (0, 1)]
    return {(a, b): float(row_a[a] @ u_b[b]) for a, b in SETTING_PAIRS}


def chsh_combination(correlations: Mapping[tuple[int, int], float]) -> float:
    """S from a full table of per-setting correlations."""
    missing = [p for p in SETTING_PAIRS if p not in correlations]
    if missing:
        raise MissingSettingError(f"correlation table is missing {missing}")
    return sum(CHSH_SIGNS[p] * correlations[p] for p in SETTING_PAIRS)


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the analysis pipeline reports for one trial log."""

    n: int
    k: int
    s: float
    sigma_s: float
    i: float
    p_conventional: float
    p_complete: float
    tau_out: float
    cells: tuple[tuple[tuple[int, int], SettingCell], ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "S": self.s,
            "sigma_S": self.sigma_s,
            "I": self.i,
            "p_conventional": self.p_conventional,
            "p_complete": self.p_complete,
            "tau_out": self.tau_out,
            "correlations": {
                f"{a}{b}": {
                    "n": c.n,
                    "agree": c.n_agree,
                    "disagree": c.n_disagree,
                    "E": c.correlation,
                    "std_error": c.std_error,
                }
                for (a, b), c in self.cells
            },
        }


def analyze_records(records: Sequence, tau_out: float = 0.0,
                    win_adjustment: float = DEFAULT_WIN_ADJUSTMENT) -> AnalysisResult:
    """Full analysis of a sequence of trial records, counted once for S and k."""
    counted = _cell_counts(records)
    est = _estimate(counted)
    n = len(records)
    k = _wins(counted)
    if est.sigma_s > 0:
        p_conv = conventional_pvalue(est.s, est.sigma_s)
    else:
        # degenerate log with |E| = 1 in every cell
        p_conv = 0.0 if est.s > 2 else (1.0 if est.s < 2 else 0.5)
    return AnalysisResult(
        n=n,
        k=k,
        s=est.s,
        sigma_s=est.sigma_s,
        i=i_statistic(k, n),
        p_conventional=p_conv,
        p_complete=complete_pvalue(k, n, tau_out, win_adjustment),
        tau_out=tau_out,
        cells=est.cells,
    )
