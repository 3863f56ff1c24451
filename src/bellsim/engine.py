"""Event-ready experiment loop: attempts, heralds, choices, readout, logging.

Each trial begins with a geometrically distributed number of entanglement
generation attempts (success probability composed from the pattern
probability and the per-arm link budget). On the heralding attempt both
nodes draw a basis bit through the parity extractor, read their spin out in
the chosen basis, and the choice, herald and readout-end timestamps come from
the timing budget, each site's modelled readout window and a configurable jitter.
The outcome pair is drawn from a table built from the heralded state's
(I, Z, X) correlation tensor and the readout observables, the same
contraction every predicted correlation uses; its cumulative form is summed
once per config object and kept on it, so a run neither hashes the config
tree for a cache lookup nor re-sums the table.

Every logged trial carries all of a, b, x, y: there is no no-answer branch
anywhere, so discarded-trial selection effects cannot arise by construction.
Each purpose has its own random stream, and each stream is drawn once per
block of trials; because the streams are independent, this yields the same
values as drawing trial by trial, and records come out in trial order.
A trial is a ``logio.TrialRecord`` row, built per block from numpy columns.
The rows keep the log's row rules by construction (settings are XORs of 0/1
bits, outcomes index the ±1 pairs, attempts start at 1), and ``SimulationConfig``
refuses at load event times that overflow or a readout that can end before its choice.
Replicas may run in parallel with independently derived seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig, herald_probability
# record_events: also reached as engine.record_events
from .logio import BLOCK_TRIALS, EngineError, TrialLog, TrialRecord, _new_record, record_events
from .randomness import setting_bits
from .readout import observable_components

OUTCOME_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
_OUTCOME_X, _OUTCOME_Y = np.array(OUTCOME_PAIRS).T
_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class TrialStreams:
    """Independent random streams, one per sampling purpose."""

    settings_a: np.random.Generator
    settings_b: np.random.Generator
    outcomes: np.random.Generator
    timing: np.random.Generator
    attempts: np.random.Generator

    @classmethod
    def from_seed(cls, seed) -> "TrialStreams":
        # the five children SeedSequence(seed).spawn(5) returns, without mixing
        # the parent's own pool first
        return cls(*(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
                     for i in range(5)))


def replica_seed(master_seed: int, replica: int):
    """Derived seed for one replica of the experiment."""
    return (master_seed, replica)


def outcome_distribution(cfg: SimulationConfig) -> np.ndarray:
    """P[a, b, outcome-pair] over OUTCOME_PAIRS from the heralded state.

    With T the state's correlation tensor and u the (I, Z, X) components of
    E+ - E- for one side's readout, the effect of outcome x is w(x) . (I, Z, X)
    with w(x) = ((1, 0, 0) + x u) / 2, so P(x, y | a, b) = w_A(x) T w_B(y).
    The table is read-only; ``run_experiment`` keeps its running sum on the config.
    """
    tensor = cfg.heralded_state().spin_state.correlation_tensor
    basis = cfg.basis_set()

    def weights(side, angles):  # w[setting, x] for x = +1, -1 in OUTCOME_PAIRS order
        u = np.array([observable_components(cfg.readout_model(side), theta) for theta in angles])
        return (np.eye(3)[0] + np.array([[1.0], [-1.0]]) * u[:, None]) / 2

    table = np.einsum("axi,ij,byj->abxy", weights("A", (basis.a0, basis.a1)), tensor,
                      weights("B", (basis.b0, basis.b1))).reshape(2, 2, 4)
    table = np.maximum(table, 0.0)
    table /= table.sum(axis=2, keepdims=True)
    table.setflags(write=False)
    return table


def _timestamps(cfg: SimulationConfig, timing_rng: np.random.Generator,
                count: int) -> np.ndarray:
    """The five timestamp columns of ``count`` trials, as the rows of a (5, count)
    array in TrialRecord field order."""
    t = cfg.timing
    # at zero jitter every draw is +0.0, which leaves each time as it is
    jitter = timing_rng.uniform(-t.jitter_ns, t.jitter_ns, size=(count, 5)).T
    times = np.empty((5, count))
    np.add(cfg.herald_delay_ns(), jitter[2], out=times[0])
    np.add(t.choice_delay_ns, jitter[:2], out=times[1:3])
    # each readout end sums ((choice + choice_to_readout) + window) + jitter
    np.add(times[1:3], t.choice_to_readout_ns, out=times[3:])
    times[3:] += [[1e3 * cfg.readout_model(side).duration_us] for side in "AB"]
    times[3:] += jitter[3:]
    return times


def _sample_block(cfg: SimulationConfig, streams: TrialStreams, cumulative: np.ndarray,
                  attempts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The block's columns a, b, x, y, times and attempts, for the trials that drew
    ``attempts``; ``times`` is the (5, m) array of ``_timestamps``."""
    m = len(attempts)
    a = setting_bits(cfg.rng, m, streams.settings_a)
    b = setting_bits(cfg.rng, m, streams.settings_b)
    u = streams.outcomes.random(m)
    # outcome-pair index: searchsorted(side="right") of u in each trial's row,
    # without the last threshold, which can round to 1 - 1 ulp
    pairs = (cumulative[a, b, :3] <= u[:, None]).sum(axis=1)
    return a, b, _OUTCOME_X[pairs], _OUTCOME_Y[pairs], _timestamps(cfg, streams.timing, m), attempts


def _rows(start: int, a, b, x, y, times, attempts):
    """The TrialRecord rows of one block's columns, numbered from ``start``."""
    return map(_new_record, zip(range(start, start + len(a)), a.tolist(), b.tolist(),
                                x.tolist(), y.tolist(), *times.tolist(), attempts.tolist()))


def run_experiment(cfg: SimulationConfig, n_trials: int | None = None,
                   hours: float | None = None, seed=None) -> TrialLog:
    """Run trials until the target count or the wall-clock budget is reached.

    The simulated wall clock advances by attempt_period_ns per attempt. If
    the hours budget runs out before ``n_trials`` heralds, the log is
    returned with its ``partial`` flag set.
    """
    if n_trials is None and hours is None:
        n_trials = cfg.experiment.trials
        hours = cfg.experiment.hours
    if seed is None:
        seed = cfg.experiment.seed
    if n_trials is not None and n_trials < 0:
        raise EngineError("trial count must be non-negative")
    streams = TrialStreams.from_seed(seed)
    p = herald_probability(cfg.link)
    if cfg._cumulative_outcomes is None:  # kept on cfg, as cfg.config_hash is
        cumulative = outcome_distribution(cfg).cumsum(axis=2)
        cumulative.setflags(write=False)
        object.__setattr__(cfg, "_cumulative_outcomes", cumulative)
    cumulative = cfg._cumulative_outcomes
    period_ns = cfg.link.attempt_period_ns
    budget_ns = np.inf if hours is None else hours * 3600.0 * 1e9
    log = TrialLog(config_hash=cfg.config_hash, seed=seed)
    records = log.records
    elapsed_ns = 0.0
    while n_trials is None or len(records) < n_trials:
        size = BLOCK_TRIALS if n_trials is None else min(BLOCK_TRIALS, n_trials - len(records))
        attempts = streams.attempts.geometric(p, size=size)
        if attempts.max() == _INT64_MAX:  # numpy saturates there at a tiny p
            raise EngineError(f"attempt count reached the int64 ceiling at p = {p!r}")
        # same left-to-right running sum as adding one trial at a time; a clock that
        # overflows to inf is past any finite budget, and no sum is past an inf one
        with np.errstate(over="ignore"):
            steps = attempts * period_ns
            steps[0] += elapsed_ns
            elapsed = np.cumsum(steps)
        m = int(np.searchsorted(elapsed, budget_ns, side="right"))  # trials that fit
        records += _rows(len(records), *_sample_block(cfg, streams, cumulative, attempts[:m]))
        if m < size:
            log.partial = n_trials is not None
            break
        elapsed_ns = float(elapsed[-1])
    return log
