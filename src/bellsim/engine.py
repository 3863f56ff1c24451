"""Event-ready experiment loop: attempts, heralds, choices, readout, logging.

Each trial begins with a geometrically distributed number of entanglement
generation attempts (success probability composed from the pattern
probability and the per-arm link budget). On the heralding attempt both
nodes draw a basis bit through the parity extractor, read their spin out in
the chosen basis, and the timestamps of the choice, herald, and readout
completion are synthesised from the timing budget with a configurable jitter.

Every logged trial carries all of a, b, x, y: there is no no-answer branch
anywhere, so discarded-trial selection effects cannot arise by construction.
Each purpose has its own random stream, and each stream is drawn once per
block of trials; because the streams are independent, this yields the same
values as drawing trial by trial, and records come out in trial order.
Replicas of a whole experiment may run in parallel with independently
derived seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import SimulationConfig, config_hash
from .randomness import setting_bits
from .readout import rotated_povm

OUTCOME_PAIRS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

# Trials sampled per block by run_experiment; any size gives the same records.
BLOCK_TRIALS = 4096

# Probability that a two-photon attempt gives one of the heralding click patterns.
PATTERN_PROBABILITY = 0.25


class EngineError(ValueError):
    """Invalid engine input or exhausted budget."""


@dataclass(frozen=True)
class TrialRecord:
    """One event-ready Bell trial; all four values are always present.

    Timestamps are nanoseconds in a common frame whose origin is the start
    of the successful entanglement attempt.
    """

    idx: int
    a: int
    b: int
    x: int
    y: int
    t_herald_ns: float
    t_choice_a_ns: float
    t_choice_b_ns: float
    t_read_done_a_ns: float
    t_read_done_b_ns: float
    attempts: int

    def __post_init__(self):
        if not all(map(math.isfinite, record_events(self))):
            raise EngineError("event times must be finite")
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise EngineError(f"settings must be bits, got a={self.a}, b={self.b}")
        if self.x not in (-1, 1) or self.y not in (-1, 1):
            raise EngineError(f"outcomes must be +-1, got x={self.x}, y={self.y}")
        if self.attempts < 1:
            raise EngineError("attempt count must be >= 1")
        if not (self.t_choice_a_ns < self.t_read_done_a_ns
                and self.t_choice_b_ns < self.t_read_done_b_ns):
            raise EngineError("per-site ordering violated: choice must precede readout end")


@dataclass
class TrialLog:
    """Trials in index order plus the metadata to re-run them.

    ``seed`` is the master seed as given: an integer for a plain run, or a
    (master, replica) pair for one replica of a parallel batch.
    """

    config_hash: str
    seed: int | tuple
    records: list[TrialRecord] = field(default_factory=list)
    partial: bool = False
    created: str | None = None
    format_version: int = 1

    def __len__(self) -> int:
        return len(self.records)


def herald_probability(link) -> float:
    """Herald probability per attempt: pattern probability times both arms.

    Each arm multiplies collection efficiency, fibre transmission
    10^(-loss_db_per_km * km / 10), and detector efficiency. A configured
    ``herald_probability`` bypasses the budget composition entirely. The
    link config checks every factor's range at construction.
    """
    if link.herald_probability is not None:
        return float(link.herald_probability)
    transmission = 10.0 ** (-link.loss_db_per_km * link.fibre_km_per_arm / 10.0)
    arm = link.collection_efficiency * transmission * link.detector_efficiency
    return PATTERN_PROBABILITY * arm * arm


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

    Born probabilities of the two commuting one-sided POVMs; identical to
    measuring the sides one after the other. Cached per config; the table is
    read-only because every caller shares it.
    """
    rho = cfg.heralded_state().spin_state.density_matrix()
    basis = cfg.basis_set()
    model_a = cfg.readout_model("A")
    model_b = cfg.readout_model("B")
    table = np.zeros((2, 2, 4))
    for a in (0, 1):
        ea = rotated_povm(model_a, basis.angle("A", a))
        for b in (0, 1):
            eb = rotated_povm(model_b, basis.angle("B", b))
            for i, (x, y) in enumerate(OUTCOME_PAIRS):
                eff = np.kron(ea[0 if x == 1 else 1], eb[0 if y == 1 else 1])
                table[a, b, i] = max(0.0, float(np.real(np.trace(rho @ eff))))
            table[a, b] /= table[a, b].sum()
    table.setflags(write=False)
    return table


def _timestamps(cfg: SimulationConfig, timing_rng: np.random.Generator,
                count: int) -> dict[str, list[float]]:
    """Timestamp columns of ``count`` trials, keyed and ordered as TrialRecord fields."""
    t = cfg.timing
    jitter = timing_rng.uniform(-t.jitter_ns, t.jitter_ns, size=(count, 5)) \
        if t.jitter_ns > 0 else np.zeros((count, 5))
    t_choice_a = t.choice_delay_ns + jitter[:, 0]
    t_choice_b = t.choice_delay_ns + jitter[:, 1]
    columns = {
        "t_herald_ns": cfg.herald_delay_ns() + jitter[:, 2],
        "t_choice_a_ns": t_choice_a,
        "t_choice_b_ns": t_choice_b,
        "t_read_done_a_ns": t_choice_a + t.choice_to_readout_ns + t.readout_duration_ns
        + jitter[:, 3],
        "t_read_done_b_ns": t_choice_b + t.choice_to_readout_ns + t.readout_duration_ns
        + jitter[:, 4],
    }
    return {key: col.tolist() for key, col in columns.items()}


def record_events(record: TrialRecord) -> tuple[float, float, float, float, float]:
    """One trial's five event times in ns, in field order, as ``audit_trial`` takes them."""
    return (record.t_herald_ns, record.t_choice_a_ns, record.t_choice_b_ns,
            record.t_read_done_a_ns, record.t_read_done_b_ns)


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
    cumulative = outcome_distribution(cfg).cumsum(axis=2)
    period_ns = cfg.link.attempt_period_ns
    budget_ns = None if hours is None else hours * 3600.0 * 1e9
    log = TrialLog(config_hash=config_hash(cfg), seed=seed)
    records = log.records
    elapsed_ns = 0.0
    while n_trials is None or len(records) < n_trials:
        size = BLOCK_TRIALS if n_trials is None else min(BLOCK_TRIALS, n_trials - len(records))
        attempts = streams.attempts.geometric(p, size=size)
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
        a = setting_bits(cfg.rng, m, streams.settings_a)
        b = setting_bits(cfg.rng, m, streams.settings_b)
        u = streams.outcomes.random(m)
        # outcome-pair index: searchsorted(side="right") of u in each trial's row
        pairs = (cumulative[a, b] <= u[:, None]).sum(axis=1)
        times = _timestamps(cfg, streams.timing, m)
        for a_i, b_i, pair, n_att, *t in zip(a.tolist(), b.tolist(), pairs.tolist(),
                                             attempts[:m].tolist(), *times.values()):
            x, y = OUTCOME_PAIRS[pair]
            records.append(TrialRecord(len(records), a_i, b_i, x, y, *t, attempts=n_att))
        if m < size:
            break
    return log
