import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bellsim import bell_stats as bs
from bellsim import quantum as q
from bellsim.config import load_config
from bellsim.readout import ReadoutBasisSet, ReadoutError, ReadoutModel, calibrate_readout

from test_quantum import singlet

SQRT2 = math.sqrt(2.0)
DEFAULT_TAU = load_config(
    Path(__file__).resolve().parents[1] / "configs" / "default.yaml").rng.tau_out


@dataclass
class Rec:
    a: int
    b: int
    x: int
    y: int


def synthetic_log(cell_counts):
    """Records from {(a, b): (n_agree, n_disagree)} in a fixed order."""
    records = []
    for (a, b), (agree, disagree) in cell_counts.items():
        records += [Rec(a, b, 1, 1)] * agree + [Rec(a, b, 1, -1)] * disagree
    return records


# ---- CHSH estimate -----------------------------------------------------------


def test_ideal_correlation_pattern_gives_tsirelson():
    # E = +1/sqrt2 on the three plus-signed cells, -1/sqrt2 on the minus cell
    n = 1_000_000  # large synthetic counts so E is close to 1/sqrt2 exactly
    agree_plus = round(n * (1 + 1 / SQRT2) / 2)
    records = []
    for a, b in ((0, 0), (0, 1), (1, 0)):
        records += synthetic_log({(a, b): (agree_plus, n - agree_plus)})
    records += synthetic_log({(1, 1): (n - agree_plus, agree_plus)})
    est = bs.chsh_estimate(records)
    assert abs(est.s - 2 * SQRT2) < 4 * 2 / n * 8  # rounding of counts only


def test_equal_cell_identity_s_equals_i():
    # equal per-cell counts: S computed from correlations equals 8(k/n - 1/2)
    counts = {(0, 0): (50, 11), (0, 1): (48, 13), (1, 0): (52, 9), (1, 1): (10, 51)}
    records = synthetic_log(counts)
    est = bs.chsh_estimate(records)
    k = bs.win_count(records)
    n = len(records)
    assert abs(est.s - bs.i_statistic(k, n)) < 1e-12


def test_headline_count_pattern():
    # equal cells, k = 196 of n = 245 -> S = I = 2.4
    counts = {(0, 0): (49, 12), (0, 1): (49, 12), (1, 0): (49, 12), (1, 1): (12, 49)}
    records = synthetic_log(counts)
    assert len(records) == 244  # 61 per cell at 196/244 wins is closest equal split
    est = bs.chsh_estimate(records)
    k = bs.win_count(records)
    assert k == 196
    assert abs(est.s - bs.i_statistic(k, len(records))) < 1e-12


def test_missing_cell_raises_and_names_it():
    records = synthetic_log({(0, 0): (5, 5), (0, 1): (5, 5), (1, 0): (5, 5)})
    with pytest.raises(bs.MissingSettingError, match=r"\(1, 1\)"):
        bs.chsh_estimate(records)


def test_cell_standard_error_formula():
    records = synthetic_log({(0, 0): (75, 25), (0, 1): (50, 50),
                             (1, 0): (60, 40), (1, 1): (40, 60)})
    est = bs.chsh_estimate(records)
    cell = dict(est.cells)[(0, 0)]
    assert abs(cell.std_error - math.sqrt((1 - 0.5**2) / 100)) < 1e-12
    expected_sigma = math.sqrt(sum(c.std_error**2 for _, c in est.cells))
    assert abs(est.sigma_s - expected_sigma) < 1e-12


def chsh_estimate_reference(records):
    """The per-record loop chsh_estimate ran before it counted cells: the oracle."""
    counts = {pair: [0, 0] for pair in bs.SETTING_PAIRS}  # [agree, disagree]
    for rec in records:
        pair = (rec.a, rec.b)
        if pair not in counts:
            raise bs.StatisticsError(f"invalid settings {pair}")
        counts[pair][0 if rec.x * rec.y == 1 else 1] += 1
    missing = [pair for pair, (agree, dis) in counts.items() if agree + dis == 0]
    if missing:
        raise bs.MissingSettingError(
            "no trials for setting pair(s): " + ", ".join(str(p) for p in missing))
    cells, s, var = [], 0.0, 0.0
    for pair in bs.SETTING_PAIRS:
        agree, dis = counts[pair]
        n = agree + dis
        e = (agree - dis) / n
        se = math.sqrt(max(0.0, 1.0 - e * e) / n)
        cells.append((pair, bs.SettingCell(n, agree, dis, e, se)))
        s += bs.CHSH_SIGNS[pair] * e
        var += se * se
    return bs.ChshEstimate(tuple(cells), s, math.sqrt(var))


def win_count_reference(records):
    """The per-record win loop, with chsh_estimate_reference's settings check."""
    wins = 0
    for rec in records:
        if (rec.a, rec.b) not in bs.CHSH_SIGNS:
            raise bs.StatisticsError(f"invalid settings {(rec.a, rec.b)}")
        wins += (-1) ** (rec.a * rec.b) * rec.x * rec.y == 1
    return wins


def outcome_or_error(fn, records):
    try:
        return fn(records)
    except bs.StatisticsError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Rec, st.sampled_from([0, 1, 0, 1, 0, 1, 2, -1]),
                          st.sampled_from([0, 1, 0, 1, 0, 1, 3]),
                          st.sampled_from([1, -1]), st.sampled_from([1, -1])),
                max_size=60))
def test_cell_counts_match_the_per_record_loops(records):
    est = outcome_or_error(bs.chsh_estimate, records)
    ref = outcome_or_error(chsh_estimate_reference, records)
    assert est == ref
    if isinstance(est, bs.ChshEstimate):  # equal floats, to the bit
        assert (est.s.hex(), est.sigma_s.hex()) == (ref.s.hex(), ref.sigma_s.hex())
    assert outcome_or_error(bs.win_count, records) == outcome_or_error(win_count_reference,
                                                                       records)


def test_cell_counts_match_the_per_record_loops_on_a_run():
    rng = np.random.default_rng(18)
    records = [Rec(int(a), int(b), int(x), int(y)) for a, b, x, y in zip(
        rng.integers(0, 2, 5000), rng.integers(0, 2, 5000),
        rng.choice([1, -1], 5000), rng.choice([1, -1], 5000))]
    assert bs.chsh_estimate(records) == chsh_estimate_reference(records)
    assert bs.win_count(records) == win_count_reference(records)
    bad = records[:100] + [Rec(1, 2, 1, 1), Rec(2, 0, 1, 1)] + records[100:]
    for fn in (bs.chsh_estimate, bs.win_count):
        with pytest.raises(bs.StatisticsError, match=r"^invalid settings \(1, 2\)$"):
            fn(bad)


def test_win_count_rejects_a_setting_that_is_not_a_bit():
    # (-1) ** (2 * 0) == 1 would count this trial as a win
    records = synthetic_log({(0, 0): (3, 1)}) + [Rec(2, 0, 1, 1)]
    with pytest.raises(bs.StatisticsError, match=r"invalid settings \(2, 0\)"):
        bs.win_count(records)
    with pytest.raises(bs.StatisticsError, match=r"invalid settings \(2, 0\)"):
        bs.chsh_estimate(records)


# ---- I statistic ----------------------------------------------------------------


def test_i_statistic_headline_value_exact():
    assert bs.i_statistic(196, 245) == 2.4


def test_i_statistic_extremes():
    assert bs.i_statistic(245, 245) == 4.0
    assert bs.i_statistic(100, 200) == 0.0


def test_i_statistic_validation():
    with pytest.raises(bs.StatisticsError):
        bs.i_statistic(5, 0)
    with pytest.raises(bs.StatisticsError):
        bs.i_statistic(10, 5)


# ---- conventional p-value ---------------------------------------------------------


def gaussian_tail_oracle(z):
    """Numeric integration of the standard normal density."""
    val, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), z, 40.0)
    return val


def test_conventional_pvalue_headline():
    p = bs.conventional_pvalue(2.42, 0.20)
    assert 0.017 <= p <= 0.020
    assert abs(p - gaussian_tail_oracle(2.1)) < 1e-9


def test_conventional_pvalue_at_the_bound_is_half():
    assert bs.conventional_pvalue(2.0, 0.37) == 0.5


def test_conventional_pvalue_three_sigma():
    p = bs.conventional_pvalue(2.0 + 3 * 0.1, 0.1)
    assert abs(p - 0.0013499) < 1e-6
    assert abs(p - gaussian_tail_oracle(3.0)) < 1e-12


def test_conventional_pvalue_tail_symmetry():
    for z in (0.3, 1.0, 2.5):
        p_hi = bs.conventional_pvalue(2.0 + z, 1.0)
        p_lo = bs.conventional_pvalue(2.0 - z, 1.0)
        assert abs(p_hi + p_lo - 1.0) < 1e-14


def test_conventional_pvalue_needs_positive_sigma():
    with pytest.raises(bs.StatisticsError):
        bs.conventional_pvalue(2.42, 0.0)


# ---- complete p-value ----------------------------------------------------------------


def mp_binomial_tail(k, n, q):
    """Arbitrary-precision oracle via the regularised incomplete beta."""
    mp.mp.dps = 60
    if k == 0:
        return mp.mpf(1)
    return mp.betainc(k, n - k + 1, 0, q, regularized=True)


def test_complete_pvalue_headline_matches_oracle():
    p = bs.complete_pvalue(196, 245, 0.0)
    oracle = float(mp_binomial_tail(196, 245, mp.mpf(3) / 4))
    assert abs(p - oracle) / oracle < 1e-12
    assert 0.03 <= p <= 0.05
    assert p == 0.039077671389657224  # the exact tail rounded up


def test_complete_pvalue_all_wins_closed_form():
    for n in (5, 50, 245):
        assert abs(bs.complete_pvalue(n, n, 0.0) - 0.75**n) < 1e-15 * 0.75**n + 1e-300


def test_complete_pvalue_matches_oracle_on_grid_up_to_n_1000():
    cases = [(10, 20), (19, 20), (100, 245), (196, 245), (245, 245),
             (600, 1000), (760, 1000), (900, 1000), (0, 7)]
    for k, n in cases:
        for tau in (0.0, 0.01, 0.05):
            p = bs.complete_pvalue(k, n, tau)
            q_bound = 0.75 + 3.0 * tau
            oracle = float(mp_binomial_tail(k, n, mp.mpf(q_bound)))
            if oracle > 0:
                assert abs(p - oracle) / oracle < 1e-12


def test_complete_pvalue_monotone_in_k_and_tau():
    n = 144
    for tau in (0.0, 0.02, 0.08):
        ps = [bs.complete_pvalue(k, n, tau) for k in range(0, n + 1, 8)]
        assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))
    for k in (100, 120, 130):
        ps = [bs.complete_pvalue(k, n, tau) for tau in (0.0, 0.01, 0.03, 0.07)]
        assert all(b >= a - 1e-15 for a, b in zip(ps, ps[1:]))


def test_complete_pvalue_degenerate_bound():
    # win bound reaches 1 -> the test has no power, p = 1
    assert bs.complete_pvalue(240, 245, 0.09, win_adjustment=3.0) == 1.0


def best_local_win_rate(tau: Fraction) -> Fraction:
    """Best win rate of the 16 deterministic strategies against biased settings.

    Each side's setting is 1 with a probability in [1/2 - tau, 1/2 + tau]. The
    win rate is linear in each, so the adversary's extreme points are 1/2 +- tau.
    """
    half = Fraction(1, 2)
    rates = []
    for xs, ys in product(product((1, -1), repeat=2), repeat=2):  # x(a) and y(b)
        for p_a, p_b in product((half - tau, half + tau), repeat=2):
            rates.append(sum((p_a if a else 1 - p_a) * (p_b if b else 1 - p_b)
                             for a, b in product((0, 1), repeat=2)
                             if (-1) ** (a * b) * xs[a] * ys[b] == 1))
    return max(rates)


@pytest.mark.parametrize("tau", [0.0, 0.01, 0.02, 0.1, 0.2, 0.249])
def test_win_bound_holds_against_every_deterministic_strategy(tau):
    exact = Fraction(tau)
    best = best_local_win_rate(exact)
    assert best == 1 - (Fraction(1, 2) - exact) ** 2
    for c in (1.0, 1.5, 2.0, 3.0):
        assert best <= Fraction(3, 4) + Fraction(c) * exact
        assert best <= bs.win_probability_bound(tau, c)
    # tight at c = 1 - tau, so no adjustment below that is valid
    assert best == Fraction(3, 4) + (1 - exact) * exact


@pytest.mark.parametrize("c", [0.0, 0.5, math.nan, math.inf])
def test_a_win_adjustment_below_one_is_rejected_where_the_bound_is_computed(c):
    # below c = 1 the bound misses the biased-settings strategy above; a NaN
    # or an infinite c must not slip through to Fraction's own errors
    with pytest.raises(bs.StatisticsError, match="win adjustment"):
        bs.win_probability_bound(0.01, c)
    with pytest.raises(bs.StatisticsError, match="win adjustment"):
        bs.complete_pvalue(200, 245, 0.01, win_adjustment=c)
    with pytest.raises(bs.StatisticsError, match="win adjustment"):
        bs.p_vs_i_curve(10, tau_out=0.01, win_adjustment=c)


def test_complete_pvalue_validation():
    with pytest.raises(bs.StatisticsError):
        bs.complete_pvalue(10, 5, 0.0)
    with pytest.raises(bs.StatisticsError):
        bs.complete_pvalue(5, 10, 0.6)
    with pytest.raises(bs.StatisticsError, match="n must be >= 1"):
        bs.complete_pvalue(0, 0)
    with pytest.raises(bs.StatisticsError, match="n must be >= 1"):
        bs.p_vs_i_curve(0)


@pytest.mark.parametrize("tau", [0.25, 0.3, 0.5])
def test_a_tau_whose_win_bound_reaches_one_gives_p_one(tau):
    # 3/4 + c tau >= 1 for every allowed c >= 1: no local bound is left to beat
    for c in (1.0, 3.0):
        assert bs.win_probability_bound(tau, c) == 1
        assert bs.complete_pvalue(196, 245, tau, c) == 1.0
        assert {r.p_complete for r in bs.p_vs_i_curve(245, tau, c)} == {1.0}


def exact_tail(k, n, q):
    """P(X >= k) for X ~ Binomial(n, q) as a Fraction, from the integer tail sum
    that complete_pvalue rounds up when its enclosure does not settle a float."""
    for _, acc in bs._scaled_tails(n, q, k):
        pass
    return Fraction(acc * q.numerator**k, q.denominator**n)


def test_exact_tail_is_a_fraction():
    tail = exact_tail(3, 4, Fraction(1, 2))
    assert tail == Fraction(5, 16)


def fraction_sum_tail(k, n, q):
    """Term-by-term Fraction sum: the tail as the package computed it before."""
    total = Fraction(0)
    for j in range(k, n + 1):
        total += math.comb(n, j) * q**j * (1 - q)**(n - j)
    return total


@pytest.mark.parametrize("q_win", [
    Fraction(1, 3), Fraction(7, 10), Fraction(3, 4) + 3 * Fraction(2.1e-23),
    Fraction(0), Fraction(1),
])
def test_binomial_tail_equals_fraction_sum(q_win):
    for n in (0, 1, 2, 7, 40):
        for k in {k for k in (0, n // 3, n // 2, n - 1, n) if k >= 0}:
            assert exact_tail(k, n, q_win) == fraction_sum_tail(k, n, q_win)


def is_rounded_up(p, num, den):
    """p is the smallest float >= num/den: Fraction(p) >= it > the float below p."""
    a, b = p.as_integer_ratio()
    c, d = math.nextafter(p, 0.0).as_integer_ratio()
    return a * den >= num * b and c * den < num * d


TAU_GRID = (0.0, DEFAULT_TAU, 0.01, 0.07)


def test_complete_pvalue_is_the_exact_tail_rounded_up():
    for tau in TAU_GRID:
        q_win = bs.win_probability_bound(tau)
        for k, n in ((196, 245), (0, 245), (245, 245), (1, 1), (150, 300), (7, 10)):
            tail = fraction_sum_tail(k, n, q_win)
            assert is_rounded_up(bs.complete_pvalue(k, n, tau), tail.numerator, tail.denominator)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), tau=st.sampled_from(TAU_GRID), data=st.data())
def test_every_tail_is_the_exact_tail_rounded_up(n, tau, data):
    k = data.draw(st.integers(0, n), label="k")
    q_win = bs.win_probability_bound(tau)
    tail = exact_tail(k, n, q_win)
    p = bs.complete_pvalue(k, n, tau)
    assert is_rounded_up(p, tail.numerator, tail.denominator)
    rows = bs.p_vs_i_curve(n, tau)
    assert rows[k].p_complete == p
    # every row against the exact integer tail P(X >= j) = A_j Q^j / D^n
    denominator = q_win.denominator**n
    for j, acc in bs._scaled_tails(n, q_win, 0):
        assert is_rounded_up(rows[j].p_complete, acc * q_win.numerator**j, denominator)


def assert_passes_enclose_the_exact_tail(n, q_win):
    """Down pass <= P(X >= j) <= up pass at every j, against the exact integer tail."""
    denominator = q_win.denominator**n
    exact = {j: acc * q_win.numerator**j for j, acc in bs._scaled_tails(n, q_win, 0)}
    lower = dict(bs._tail_bounds(n, q_win, 0, bs._DOWN))
    upper = dict(bs._tail_bounds(n, q_win, 0, bs._UP))
    assert lower.keys() == upper.keys() == exact.keys()
    for j, tail in exact.items():
        num, den = lower[j].as_integer_ratio()
        assert num * denominator <= tail * den
        num, den = upper[j].as_integer_ratio()
        assert num * denominator >= tail * den


@pytest.mark.parametrize("q_win", [
    Fraction(2, 3), Fraction(3, 4), Fraction(9, 10),
    bs.win_probability_bound(DEFAULT_TAU), bs.win_probability_bound(0.07),
])
def test_the_two_passes_enclose_the_exact_tail(q_win):
    for n in (1, 7, 60, 245, 400):
        assert_passes_enclose_the_exact_tail(n, q_win)


@settings(max_examples=60, deadline=None)
@given(q_win=st.fractions(min_value=0, max_value=1, max_denominator=10**6)
       .filter(lambda q: 0 < q < 1), n=st.integers(1, 400))
def test_the_two_passes_enclose_the_exact_tail_at_any_rational_win_bound(q_win, n):
    assert_passes_enclose_the_exact_tail(n, q_win)


def test_each_bound_rounds_up_from_its_digits_as_from_its_exact_ratio():
    # the enclosure converts a bound from its decimal digits; the exact ratio,
    # a gcd on integers of thousands of bits at n = 20,000, must give every bit
    q_win = bs.win_probability_bound(DEFAULT_TAU)
    underflows = 0
    for n in (1, 2, 10, 245, 1000, 20000):
        for ctx in (bs._DOWN, bs._UP):
            for j, b in bs._tail_bounds(n, q_win, 0, ctx):
                p = bs._decimal_up(b)
                assert p == bs._float_up(*b.as_integer_ratio()), (n, ctx.rounding, j)
                underflows += p == math.ulp(0.0)
    # q^20000 is about 1e-2499: far below the smallest subnormal, which it rounds up to
    assert underflows


def decimal_context_fields():
    ctx = decimal.getcontext()
    return ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax


def test_the_callers_decimal_context_is_never_changed():
    before = decimal_context_fields()
    bs.complete_pvalue.cache_clear()
    bs.complete_pvalue(196, 245, DEFAULT_TAU)
    assert decimal_context_fields() == before
    bs.p_vs_i_curve(245, DEFAULT_TAU)
    assert decimal_context_fields() == before
    # a pass abandoned part-way sets nothing to restore: between its yields the
    # caller's own arithmetic rounds as the caller's context says
    for ctx in (bs._DOWN, bs._UP):
        bounds = bs._tail_bounds(245, bs.win_probability_bound(DEFAULT_TAU), 0, ctx)
        next(bounds)
        assert decimal_context_fields() == before
        prec, rounding, _, _ = before
        assert decimal.Decimal(2) / 3 == decimal.Context(prec, rounding).divide(2, 3)
        next(bounds)
        bounds.close()
        assert decimal_context_fields() == before


def test_the_callers_decimal_context_does_not_move_a_pvalue():
    bs.complete_pvalue.cache_clear()
    expected = [r.p_complete for r in bs.p_vs_i_curve(245, DEFAULT_TAU)]
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding, ctx.Emin = 3, decimal.ROUND_UP, -10
        assert [r.p_complete for r in bs.p_vs_i_curve(245, DEFAULT_TAU)] == expected
        assert bs.complete_pvalue(196, 245, DEFAULT_TAU) == 0.039077671389657224
    bs.complete_pvalue.cache_clear()


def test_tail_exactly_a_float_takes_the_exact_sum(monkeypatch):
    # at tau = 0 and n <= 26 the tail is m / 4^n, itself a float: the upper
    # bound rounds up past it, so the enclosure cannot settle and the exact sum must
    bs.complete_pvalue.cache_clear()  # an earlier test may have cached these tails
    calls = []
    exact = bs._scaled_tails
    monkeypatch.setattr(bs, "_scaled_tails", lambda *args: calls.append(args) or exact(*args))
    tail = fraction_sum_tail(7, 10, Fraction(3, 4))
    assert bs.complete_pvalue(7, 10, 0.0) == tail  # exactly representable
    assert calls
    calls.clear()
    assert bs.complete_pvalue(196, 245, DEFAULT_TAU) == 0.039077671389657224
    assert not calls  # the enclosure settles the headline on its own


@pytest.mark.parametrize("tau", [0.0, DEFAULT_TAU])
def test_cached_pvalue_equals_a_fresh_one_bitwise(tau):
    bs.complete_pvalue.cache_clear()
    fresh = [bs.complete_pvalue(k, 245, tau).hex() for k in range(246)]
    assert bs.complete_pvalue.cache_info().misses == 246
    cached = [bs.complete_pvalue(k, 245, tau).hex() for k in range(246)]
    assert bs.complete_pvalue.cache_info().hits == 246
    assert cached == fresh
    assert fresh == [bs.complete_pvalue.__wrapped__(k, 245, tau).hex() for k in range(246)]


def test_cached_pvalue_still_rejects_bad_arguments():
    bs.complete_pvalue(196, 245, DEFAULT_TAU)
    for _ in range(2):  # errors are never cached
        with pytest.raises(bs.StatisticsError):
            bs.complete_pvalue(246, 245, DEFAULT_TAU)
        with pytest.raises(bs.StatisticsError):
            bs.complete_pvalue(196, 245, 0.6)
    # an int k cached first does not answer a float k, which the tail loop rejects
    with pytest.raises(TypeError):
        bs.complete_pvalue(196.0, 245, DEFAULT_TAU)


def test_complete_pvalue_matches_oracle_at_n_4000():
    q_win = bs.win_probability_bound(DEFAULT_TAU)
    mp.mp.dps = 60
    oracle = float(mp_binomial_tail(3100, 4000, mp.mpf(q_win.numerator) / q_win.denominator))
    assert abs(bs.complete_pvalue(3100, 4000, DEFAULT_TAU) - oracle) / oracle < 1e-12


def test_complete_pvalue_matches_oracle_at_n_20000():
    # I_q(a, b) = q^a (1 - q)^b / (a B(a, b)) 2F1(a + b, 1; a + 1; q), a series of
    # positive terms (the series betainc sums cancels and does not converge here)
    q_win = bs.win_probability_bound(DEFAULT_TAU)
    mp.mp.dps = 60
    x = mp.mpf(q_win.numerator) / q_win.denominator
    a, b = 15668, 20000 - 15668 + 1
    oracle = float(x**a * (1 - x)**b / (a * mp.beta(a, b)) * mp.hyp2f1(a + b, 1, a + 1, x))
    assert abs(bs.complete_pvalue(15668, 20000, DEFAULT_TAU) - oracle) / oracle < 1e-12


def test_complete_pvalue_below_every_float_rounds_up_to_the_smallest():
    # 0.75^20000 is about 1e-2499: never 0.0, which would understate the tail
    assert bs.complete_pvalue(20000, 20000, DEFAULT_TAU) == math.ulp(0.0) > 0


# ---- p versus I curve -------------------------------------------------------------------


def test_curve_row_consistency_with_complete_pvalue():
    for tau in (0.0, DEFAULT_TAU):
        rows = bs.p_vs_i_curve(245, tau)
        assert [r.k for r in rows] == list(range(246))
        for r in rows:
            assert r.p_complete == bs.complete_pvalue(r.k, 245, tau)
    assert rows[196].i == 2.4


def test_curve_subset_of_k_matches_full_curve():
    # one enclosure pass over any subset of k, in any order, gives the full curve's rows
    full = bs.p_vs_i_curve(245, DEFAULT_TAU)
    q = bs.win_probability_bound(DEFAULT_TAU)
    assert bs._tails_up(245, q, [200, 196, 240]) == \
        {k: full[k].p_complete for k in (200, 196, 240)}


def test_curve_endpoints():
    rows = bs.p_vs_i_curve(245, 0.0)
    assert rows[0].p_complete == 1.0
    assert abs(rows[-1].p_complete - 0.75**245) < 1e-40
    assert rows[0].i == -4.0 and rows[-1].i == 4.0


def test_curve_monotone_in_i():
    rows = bs.p_vs_i_curve(245, 0.0)
    ps = [r.p_complete for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))


def test_curve_at_n_1000_is_non_increasing_from_one():
    ps = [r.p_complete for r in bs.p_vs_i_curve(1000, DEFAULT_TAU)]
    assert ps[0] == 1.0
    assert all(b <= a for a, b in zip(ps, ps[1:]))


def test_curve_median_sits_at_the_classical_bound():
    # the binomial median is at k ~ n q0, i.e. I ~ 2: p crosses 1/2 there
    rows = {r.k: r for r in bs.p_vs_i_curve(245, 0.0)}
    assert rows[184].p_complete > 0.5 > rows[185].p_complete
    assert abs(rows[184].i - 2.0) < 0.02


def test_curve_conventional_column_is_gaussian_equivalent():
    rows = {r.k: r for r in bs.p_vs_i_curve(245, 0.0)}
    z = (196 - 245 * 0.75) / math.sqrt(245 * 0.75 * 0.25)
    assert abs(rows[196].p_conventional - gaussian_tail_oracle(z)) < 1e-9


# ---- expected correlations ------------------------------------------------------------


def perfect_readout():
    return ReadoutModel(1e9, 0.0, 0.0, duration_us=10.0)


def test_expected_correlations_ideal_pattern():
    e = bs.expected_correlations(singlet(), perfect_readout(), perfect_readout(),
                                 ReadoutBasisSet.from_tilt(0.0))
    for pair, sign in (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)):
        assert abs(e[pair] - sign / SQRT2) < 1e-9
    assert abs(bs.chsh_combination(e) - 2 * SQRT2) < 1e-9


def test_chsh_combination_rejects_a_table_missing_a_pair():
    table = {(0, 0): 0.7, (0, 1): 0.7, (1, 0): 0.7}
    with pytest.raises(ReadoutError, match=r"\(1, 1\)"):
        bs.chsh_combination(table)


def test_expected_correlations_fully_mixed_state():
    mixed = q.QuantumState(np.eye(4).ravel() / 4)
    e = bs.expected_correlations(mixed, calibrate_readout(0.971), calibrate_readout(0.963),
                                 ReadoutBasisSet.from_tilt(0.026 * math.pi))
    offset = np.mean(list(e.values()))  # readout asymmetry adds a constant
    for v in e.values():
        assert abs(v - offset) < 1e-12
    assert abs(offset) < 0.01


def test_expected_correlations_affine_in_fidelity():
    # E is affine in each readout fidelity: second difference vanishes
    basis = ReadoutBasisSet.from_tilt(0.0)
    psi = singlet()

    def e00(delta):
        bright = calibrate_readout(0.9 + delta)
        return bs.expected_correlations(psi, bright, perfect_readout(), basis)[(0, 0)]

    # vary the f+ anchor linearly via mean fidelity at fixed dark fidelity:
    # mean enters F+ linearly, so E must be affine in it
    d = 0.02
    second = e00(+d) - 2 * e00(0.0) + e00(-d)
    assert abs(second) < 1e-9


def test_analyze_records_bundle():
    counts = {(0, 0): (49, 12), (0, 1): (49, 12), (1, 0): (49, 12), (1, 1): (12, 49)}
    records = synthetic_log(counts)
    res = bs.analyze_records(records, tau_out=0.0)
    assert res.n == 244 and res.k == 196
    assert abs(res.i - bs.i_statistic(196, 244)) < 1e-15
    assert res.p_complete == bs.complete_pvalue(196, 244, 0.0)
    assert 0.0 < res.p_conventional < 0.05


def test_analyze_records_degenerate_sigma():
    records = synthetic_log({(0, 0): (10, 0), (0, 1): (10, 0),
                             (1, 0): (10, 0), (1, 1): (0, 10)})
    res = bs.analyze_records(records, tau_out=0.0)
    assert res.sigma_s == 0.0 and res.s == 4.0
    assert res.p_conventional == 0.0
