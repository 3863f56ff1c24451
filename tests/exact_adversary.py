"""The exact worst case of an analysis rule over every local strategy with memory.

A rule decides from (n, k) alone: ``reject[t][k]`` for t trials and k wins. Whatever
happened before, a local strategy wins a trial with probability at most
w = 1 - (1/2 - tau)^2, the threat model in ``bell_stats``' docstring. It also
chooses when the run ends, since it controls the heralds. The largest rejection
probability over every such strategy and stopping time is a small optimal-stopping
problem, solved by backward induction over (t, k):

    V(t, k) = max(reject(t, k), w V(t+1, k+1) + (1 - w) V(t+1, k)).

For a rule that rejects every k above one it rejects, V increases in k, so winning
with probability w is the best play and the bound is attained. Grounding: Gill,
arXiv:quant-ph/0301059; Bierhorst, arXiv:1311.3605.
"""

from functools import cache

from bellsim import bell_stats as bs


@cache
def complete_tail_rows(n_max, tau_out, win_adjustment):
    """The complete p-value of every (n, k), n = 1..n_max, from ``p_vs_i_curve``."""
    return tuple(tuple(row.p_complete for row in bs.p_vs_i_curve(n, tau_out, win_adjustment))
                 for n in range(1, n_max + 1))


def tail_at_n_rule(alpha, n_max, tau_out, win_adjustment):
    """reject[t][k]: the complete tail at the trial count t is at most alpha (t = 0..n_max)."""
    rows = complete_tail_rows(n_max, tau_out, win_adjustment)
    return [[False]] + [[p <= alpha for p in row] for row in rows]


def worst_case_level(reject, w):
    """The largest rejection probability of ``reject`` when the strategy may stop at any t."""
    n_max = len(reject) - 1
    value = [float(r) for r in reject[n_max]]
    for t in range(n_max - 1, -1, -1):
        value = [1.0 if reject[t][k] else w * value[k + 1] + (1.0 - w) * value[k]
                 for k in range(t + 1)]
    return value[0]


def fixed_n_levels(reject, w):
    """The rejection probability at each fixed n = 0..n_max, for wins ~ Binomial(n, w)."""
    dist, levels = [1.0], []
    for t, rejects in enumerate(reject):
        if t:
            dist = [(1.0 - w) * a + w * b for a, b in zip(dist + [0.0], [0.0] + dist)]
        levels.append(sum(p for p, r in zip(dist, rejects) if r))
    return levels
