"""The complete p-value against adversarial local strategies.

The paper's p-value is a bound that must hold against every local model with
memory: with uniform settings no local strategy wins a trial with probability
above 3/4, whatever happened before. Two strategies play at that bound over
many 245-trial replicas, each replica analysed as a log would be, and the
complete test may reject no more often than its level allows:

- i.i.d. at the bound: every trial plays a uniformly random optimal
  deterministic strategy, so it wins with probability exactly 3/4;
- lose in the most-sampled cell: every trial plays the optimal deterministic
  strategy whose one losing setting pair is the pair with the most trials so
  far (ties to the lowest pair), so each loss weighs least in the per-cell S.

The second one uses memory, and the Gaussian test, which assumes i.i.d.
trials, over-rejects under it; asserting that shows the harness can catch an
invalid test.

A third strategy exploits biased settings. The settings come from the parity
extractor over two raw bits of excess predictability 0.1, so each setting is
0 with probability 1/2 + tau_out, tau_out = 0.02. Playing x = y = +1 always
loses only at a = b = 1 and wins with probability 1 - (1/2 - tau_out)^2 =
0.7696, above 3/4: analysed at tau = 0 the complete test over-rejects, and at
the configured tau_out with the win adjustment 3 (bound 3/4 + 3 tau_out =
0.81) it stays valid.

The seeds, the replica count and the margin were fixed before the first run.
"""

import math
from collections import namedtuple
from itertools import product

import numpy as np
import pytest
from scipy.stats import binom

from bellsim import bell_stats as bs
from bellsim.randomness import RngModel, setting_bits

N_TRIALS = 245
REPLICAS = 2000
ALPHAS = (0.01, 0.05, 0.1)
# a valid test rejecting at rate alpha exceeds the allowed count with at most this chance
FALSE_ALARM = 1e-6
IID_SEED, MEMORY_SEED, BIAS_SEED = 1508, 5949, 3605
# two raw bits of excess predictability 0.1 per setting: tau_out = 2 * 0.1^2
BIASED = RngModel(excess_predictability=0.1, raw_bits_per_output=2)
WIN_ADJUSTMENT = 3.0

Trial = namedtuple("Trial", "a b x y")

# the 16 local deterministic strategies: (x for a = 0, 1), (y for b = 0, 1)
DETERMINISTIC = [((x0, x1), (y0, y1)) for x0, x1, y0, y1 in product((1, -1), repeat=4)]


def losing_pairs(strategy):
    (xs, ys) = strategy
    return [(a, b) for a, b in bs.SETTING_PAIRS if (-1) ** (a * b) * xs[a] * ys[b] != 1]


# the optimal ones lose exactly one pair; LOSER[2a + b] is the first that loses (a, b)
OPTIMAL = [s for s in DETERMINISTIC if len(losing_pairs(s)) == 1]
LOSER = [next(i for i, s in enumerate(OPTIMAL) if losing_pairs(s) == [pair])
         for pair in bs.SETTING_PAIRS]
X_TABLE = np.array([s[0] for s in OPTIMAL])  # [strategy, a]
Y_TABLE = np.array([s[1] for s in OPTIMAL])  # [strategy, b]


def allowed(alpha: float) -> int:
    """The most rejections out of REPLICAS that a test valid at level alpha may show."""
    return int(binom.isf(FALSE_ALARM, REPLICAS, alpha))


def play(strategies, cells):
    """Replicas of trials: the strategy index and the setting pair index 2a + b per trial."""
    a, b = cells // 2, cells % 2
    return a, b, X_TABLE[strategies, a], Y_TABLE[strategies, b]


def analyse(a, b, x, y, tau_out=0.0):
    """(k, p_complete, p_conventional) per replica, each from its list of trials."""
    results = []
    for row in zip(a.tolist(), b.tolist(), x.tolist(), y.tolist()):
        res = bs.analyze_records(list(map(Trial._make, zip(*row))), tau_out=tau_out,
                                 win_adjustment=WIN_ADJUSTMENT)
        results.append((res.k, res.p_complete, res.p_conventional))
    return np.array(results).T


def iid_at_the_bound():
    rng = np.random.default_rng(IID_SEED)
    cells = rng.integers(0, 4, size=(REPLICAS, N_TRIALS))
    return play(rng.integers(0, len(OPTIMAL), size=(REPLICAS, N_TRIALS)), cells)


def lose_in_the_most_sampled_cell():
    rng = np.random.default_rng(MEMORY_SEED)
    cells = rng.integers(0, 4, size=(REPLICAS, N_TRIALS))
    seen = cells[..., None] == np.arange(4)
    before = np.cumsum(seen, axis=1) - seen  # trials per pair before this one
    return play(np.array(LOSER)[np.argmax(before, axis=2)], cells)


def always_plus_one_under_biased_settings():
    rng = np.random.default_rng(BIAS_SEED)
    a = setting_bits(BIASED, REPLICAS * N_TRIALS, rng).reshape(REPLICAS, N_TRIALS)
    b = setting_bits(BIASED, REPLICAS * N_TRIALS, rng).reshape(REPLICAS, N_TRIALS)
    ones = np.ones((REPLICAS, N_TRIALS), dtype=int)
    return a, b, ones, ones


def test_no_deterministic_local_strategy_wins_more_than_three_pairs():
    assert len(DETERMINISTIC) == 16
    assert min(len(losing_pairs(s)) for s in DETERMINISTIC) == 1
    assert len(OPTIMAL) == 8


@pytest.mark.parametrize("strategy", [iid_at_the_bound, lose_in_the_most_sampled_cell])
def test_complete_pvalue_is_valid_against_a_local_strategy(strategy):
    k, p_complete, p_conventional = analyse(*strategy())
    # the strategy plays at the bound: its pooled win rate is 3/4 within 5 sigma
    trials = REPLICAS * N_TRIALS
    assert abs(k.sum() / trials - 0.75) < 5 * math.sqrt(0.75 * 0.25 / trials)
    for alpha in ALPHAS:
        assert np.count_nonzero(p_complete <= alpha) <= allowed(alpha), alpha
    if strategy is lose_in_the_most_sampled_cell:
        for alpha in ALPHAS:
            assert np.count_nonzero(p_conventional <= alpha) > allowed(alpha), alpha


def test_bias_strategy_is_caught_only_at_the_configured_tau():
    tau = BIASED.tau_out
    assert abs(tau - 0.02) < 1e-15
    trials = REPLICAS * N_TRIALS
    records = always_plus_one_under_biased_settings()
    k, p_at_zero, _ = analyse(*records)
    win = 1 - (0.5 - tau) ** 2  # 0.7696, inside the bound 3/4 + 3 tau = 0.81
    assert abs(k.sum() / trials - win) < 5 * math.sqrt(win * (1 - win) / trials)
    # ignoring the bias, the complete test rejects a local strategy too often
    assert np.count_nonzero(p_at_zero <= 0.05) > allowed(0.05)
    _, p_at_tau, _ = analyse(*records, tau_out=tau)
    for alpha in ALPHAS:
        assert np.count_nonzero(p_at_tau <= alpha) <= allowed(alpha), alpha
