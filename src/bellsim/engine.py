"""Event-ready experiment loop: attempts, heralds, choices, readout, logging.

Each trial begins with a geometrically distributed number of entanglement
generation attempts (success probability composed from the pattern
probability and the per-arm link budget). On the heralding attempt both
nodes draw a basis bit through the parity extractor, read their spin out in
the chosen basis, and the choice, herald and readout-end timestamps come from
the timing budget, each site's modelled readout window and a configurable jitter.
The outcome pair is drawn from a table built from the heralded state's
(I, Z, X) correlation tensor and the readout observables, the same
contraction every predicted correlation uses.

Every logged trial carries all of a, b, x, y: there is no no-answer branch
anywhere, so discarded-trial selection effects cannot arise by construction.
Each purpose has its own random stream, and each stream is drawn once per
block of trials; because the streams are independent, this yields the same
values as drawing trial by trial, and records come out in trial order.
A trial is a ``logio.TrialRecord`` row, built per block from numpy columns.
The columns are checked against the rules of ``logio.check_record``, the log
format's one row validator, before they become rows; a block that fails is
run through ``check_record`` row by row, so its error is the bad row's own.
Replicas may run in parallel with independently derived seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .config import SimulationConfig, config_hash, herald_probability
from .logio import (BLOCK_TRIALS, EngineError, TrialLog, TrialRecord, check_record,
                    record_events)  # record_events: also reached as engine.record_events
from .quantum import correlation_tensor
from .randomness import setting_bits
from .readout import observable_components

OUTCOME_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
_OUTCOME_X, _OUTCOME_Y = np.array(OUTCOME_PAIRS).T
_INT64_MAX = np.iinfo(np.int64).max
_new_record = partial(tuple.__new__, TrialRecord)  # from exactly 11 values, unchecked


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
        children = np.random.SeedSequence(seed).spawn(5)
        return cls(*(np.random.default_rng(c) for c in children))


def replica_seed(master_seed: int, replica: int):
    """Derived seed for one replica of the experiment."""
    return (master_seed, replica)


@lru_cache(maxsize=16)
def outcome_distribution(cfg: SimulationConfig) -> np.ndarray:
    """P[a, b, outcome-pair] over OUTCOME_PAIRS from the heralded state.

    With T the state's correlation tensor and u the (I, Z, X) components of
    E+ - E- for one side's readout, the effect of outcome x is w(x) . (I, Z, X)
    with w(x) = ((1, 0, 0) + x u) / 2, so P(x, y | a, b) = w_A(x) T w_B(y).
    Cached per config; the table is read-only because every caller shares it.
    """
    tensor = correlation_tensor(cfg.heralded_state().spin_state)
    basis = cfg.basis_set()

    def weights(side):  # w[setting, x] for x = +1, -1 in OUTCOME_PAIRS order
        model = cfg.readout_model(side)
        u = np.array([observable_components(model, basis.angle(side, s)) for s in (0, 1)])
        return (np.eye(3)[0] + np.array([[1.0], [-1.0]]) * u[:, None]) / 2

    table = np.einsum("axi,ij,byj->abxy", weights("A"), tensor, weights("B")).reshape(2, 2, 4)
    table = np.maximum(table, 0.0)
    table /= table.sum(axis=2, keepdims=True)
    table.setflags(write=False)
    return table


_last_cumulative: tuple = (None, None)  # the last read-only outcome table and its running sum


def _cumulative_outcomes(table: np.ndarray) -> np.ndarray:
    """``table.cumsum(axis=2)``, read-only; kept for the last read-only table, which
    cannot change, so a run of the same config sums its table once."""
    global _last_cumulative
    last_table, cumulative = _last_cumulative
    if last_table is not table:
        cumulative = table.cumsum(axis=2)
        cumulative.setflags(write=False)
        if not table.flags.writeable:
            _last_cumulative = (table, cumulative)
    return cumulative


def _timestamps(cfg: SimulationConfig, timing_rng: np.random.Generator,
                count: int) -> np.ndarray:
    """The five timestamp columns of ``count`` trials, as the rows of a (5, count)
    array in TrialRecord field order."""
    t = cfg.timing
    jitter = timing_rng.uniform(-t.jitter_ns, t.jitter_ns, size=(count, 5)) \
        if t.jitter_ns > 0 else np.zeros((count, 5))
    t_choice_a = t.choice_delay_ns + jitter[:, 0]
    t_choice_b = t.choice_delay_ns + jitter[:, 1]
    window_a, window_b = (1e3 * cfg.readout_model(side).duration_us for side in "AB")
    return np.stack((cfg.herald_delay_ns() + jitter[:, 2], t_choice_a, t_choice_b,
                     t_choice_a + t.choice_to_readout_ns + window_a + jitter[:, 3],
                     t_choice_b + t.choice_to_readout_ns + window_b + jitter[:, 4]))


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


def _block_valid(a, b, x, y, times, attempts) -> bool:
    """``check_record``'s rules on one block's columns at once (idx is a range)."""
    return bool(all(col.dtype.kind in "iu" for col in (a, b, x, y, attempts))
                and times.dtype.kind == "f"
                and ((a == 0) | (a == 1)).all() and ((b == 0) | (b == 1)).all()
                and (abs(x) == 1).all() and (abs(y) == 1).all()
                and (attempts >= 1).all()
                and np.isfinite(times).all()
                and (times[1] < times[3]).all() and (times[2] < times[4]).all())


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
    cumulative = _cumulative_outcomes(outcome_distribution(cfg))
    period_ns = cfg.link.attempt_period_ns
    budget_ns = None if hours is None else hours * 3600.0 * 1e9
    log = TrialLog(config_hash=config_hash(cfg), seed=seed)
    records = log.records
    elapsed_ns = 0.0
    while n_trials is None or len(records) < n_trials:
        size = BLOCK_TRIALS if n_trials is None else min(BLOCK_TRIALS, n_trials - len(records))
        attempts = streams.attempts.geometric(p, size=size)
        if attempts.max() == _INT64_MAX:  # numpy saturates there at a tiny p
            raise EngineError(f"attempt count reached the int64 ceiling at p = {p!r}")
        m = size  # trials of this block that fit the budget
        if budget_ns is not None:
            # same left-to-right running sum as adding one trial at a time
            steps = attempts * period_ns
            steps[0] += elapsed_ns
            elapsed = np.cumsum(steps)
            m = int(np.searchsorted(elapsed, budget_ns, side="right"))
            if m < size:
                log.partial = n_trials is not None
            else:
                elapsed_ns = float(elapsed[-1])
        columns = _sample_block(cfg, streams, cumulative, attempts[:m])
        if not _block_valid(*columns):
            for rec in _rows(len(records), *columns):
                check_record(rec)  # raises the first bad row's own error
            raise EngineError("a trial block failed the column check, but check_record "
                              "accepts its rows")
        records += _rows(len(records), *columns)
        if m < size:
            break
    return log
