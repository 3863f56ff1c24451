"""The complete test's exact level over every local strategy with memory.

A strategy that wins each trial with probability w = 1 - (1/2 - tau)^2, at the
default tau_out and win adjustment, either plays a planned 245 trials or stops
the run at the first trial count whose tail p-value is at most alpha. The first
is the fixed-n level, which the complete test keeps below alpha. The second is
the worst case over every stopping time: the tail at the count the run ended on
is not valid then, and this documents that defect of certifying a run its
budget stopped. The expected values and tolerances were fixed before the first
run.
"""

import pytest
from scipy.stats import binom

from bellsim.config import default_config

from exact_adversary import fixed_n_levels, tail_at_n_rule, worst_case_level

N_TRIALS = 245
CFG = default_config()
TAU = CFG.rng.tau_out
WIN_ADJUSTMENT = CFG.statistics.win_adjustment
W = 1.0 - (0.5 - TAU) ** 2


def rule(alpha):
    return tail_at_n_rule(alpha, N_TRIALS, TAU, WIN_ADJUSTMENT)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_the_tail_rejects_every_k_above_one_it_rejects(alpha):
    # the backward induction's best play is to win at the bound only for such a rule
    for rejects in rule(alpha):
        assert rejects == sorted(rejects)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_the_fixed_n_complete_test_has_level_at_most_alpha(alpha):
    levels = fixed_n_levels(rule(alpha), W)
    assert len(levels) == N_TRIALS + 1
    assert max(levels) <= alpha


@pytest.mark.parametrize("alpha, level", [(0.01, 0.0085), (0.05, 0.0391), (0.1, 0.0968)])
def test_the_fixed_n_level_at_245_is_the_binomial_tail(alpha, level):
    reject = rule(alpha)
    k_alpha = reject[N_TRIALS].index(True)
    at_n = fixed_n_levels(reject, W)[N_TRIALS]
    assert abs(at_n - binom.sf(k_alpha - 1, N_TRIALS, W)) <= 1e-12
    assert abs(at_n - level) <= 5e-5
    # a rule that may reject only at the planned count gives the adversary no stopping time
    only_at_n = [[False] * (t + 1) for t in range(N_TRIALS)] + [reject[N_TRIALS]]
    assert abs(worst_case_level(only_at_n, W) - at_n) <= 1e-12


@pytest.mark.parametrize("alpha, level", [(0.01, 0.0607), (0.05, 0.2310), (0.1, 0.3847)])
def test_stopping_when_lucky_breaks_the_tail_at_n(alpha, level):
    worst = worst_case_level(rule(alpha), W)
    assert worst > alpha
    assert abs(worst - level) <= 1e-4
