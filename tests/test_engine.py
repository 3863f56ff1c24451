import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from bellsim import bell_stats as bs
from bellsim import engine
from bellsim.config import BasisConfig, ConfigError, LinkConfig, ReadoutConfig, default_config
from bellsim.heralding import InterferenceModel, SpinPhotonErrorModel
from bellsim.logio import check_record, write_log
from bellsim.quantum import QuantumState, StateError
from bellsim.randomness import setting_bits
from bellsim.readout import ReadoutError, ReadoutModel

from test_quantum import embed, rotated_povm

SQRT2 = math.sqrt(2.0)

CFG = default_config()


def log_bytes(log, path) -> bytes:
    write_log(log, path)
    return path.read_bytes()


def fast_cfg(**experiment):
    """Default physics but a herald probability that keeps tests quick."""
    link = LinkConfig(collection_efficiency=1.0, detector_efficiency=1.0, loss_db_per_km=0.0)
    cfg = dataclasses.replace(CFG, link=link)
    if experiment:
        cfg = dataclasses.replace(cfg, experiment=dataclasses.replace(cfg.experiment, **experiment))
    return cfg


# ---- herald probability -------------------------------------------------------


def test_unit_efficiencies_reduce_to_pattern_probability():
    link = LinkConfig(collection_efficiency=1.0, fibre_km_per_arm=0.0,
                      loss_db_per_km=8.0, detector_efficiency=1.0)
    assert abs(engine.herald_probability(link) - 0.25) < 1e-12


def test_fibre_only_budget_composition():
    link = LinkConfig(collection_efficiency=1.0, fibre_km_per_arm=0.85,
                      loss_db_per_km=8.0, detector_efficiency=1.0)
    per_arm = 10 ** (-0.68)
    assert abs(engine.herald_probability(link) - 0.25 * per_arm**2) < 1e-12
    assert abs(engine.herald_probability(link) - 1.0912895806e-2) < 1e-9


def test_calibrated_budget_reproduces_headline_rate():
    p = engine.herald_probability(CFG.link)
    assert 6.4e-9 / 2 <= p <= 6.4e-9 * 2
    assert abs(p - 6.4e-9) / 6.4e-9 < 0.01  # fitted default lands on the target


def test_expected_heralds_in_a_long_run():
    p = engine.herald_probability(CFG.link)
    attempts_per_hour = 3600.0 * 1e9 / CFG.link.attempt_period_ns
    heralds_220h = 220.0 * attempts_per_hour * p
    assert 200 <= heralds_220h <= 300  # a few event-ready signals per hour


# ---- run_trial: the sequential-collapse oracle -----------------------------------


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def measure_in_basis(state: QuantumState, theta: float, model: ReadoutModel,
                     rng: np.random.Generator,
                     subsystem: str = "spin") -> tuple[int, QuantumState]:
    """Sample one readout outcome on the named spin of a (possibly joint) state.

    Returns the outcome in {+1, -1} and the post-measurement state of the
    full system (collapsed with the square-root instrument). Deterministic
    given the random generator's state.
    """
    if dict(state.subsystems)[subsystem] != 2:
        raise StateError(f"subsystem {subsystem!r} is not a qubit")
    e_plus, e_minus = rotated_povm(model, theta)
    rho = state.density_matrix()
    big_plus = embed(e_plus, state, subsystem)
    p_plus = float(np.real(np.trace(rho @ big_plus)))
    p_plus = min(max(p_plus, 0.0), 1.0)
    if rng.random() < p_plus:
        outcome, effect, p = +1, e_plus, p_plus
    else:
        outcome, effect, p = -1, e_minus, 1.0 - p_plus
    if p < 1e-15:
        raise ReadoutError("attempted collapse onto a zero-probability outcome")
    k = embed(_sqrt_psd(effect), state, subsystem)
    post = k @ rho @ k.conj().T / p
    return outcome, QuantumState(post, state.subsystems)


def run_trial(cfg, idx, streams, force_settings=None):
    """One event-ready trial, sampled with sequential readout collapse.

    Side A is measured on the heralded state and side B on the post-measurement
    state, one trial at a time; the engine's outcome table must agree with it.
    Settings and timestamps come from the same helpers as the block loop.
    """
    attempts = int(streams.attempts.geometric(engine.herald_probability(cfg.link)))
    if force_settings is not None:
        a, b = force_settings
    else:
        a = setting_bits(cfg.rng, 1, streams.settings_a)[0]
        b = setting_bits(cfg.rng, 1, streams.settings_b)[0]
    basis = cfg.basis_set()
    state = cfg.heralded_state().spin_state
    x, post = measure_in_basis(state, basis.angle("A", a), cfg.readout_model("A"),
                               streams.outcomes, subsystem="spin_a")
    y, _ = measure_in_basis(post, basis.angle("B", b), cfg.readout_model("B"),
                            streams.outcomes, subsystem="spin_b")
    times = engine._timestamps(cfg, streams.timing, 1)[:, 0].tolist()
    return engine.TrialRecord(idx, int(a), int(b), int(x), int(y), *times, attempts=attempts)


def test_forced_settings_correlation_matches_closed_form():
    cfg = fast_cfg()
    streams = engine.TrialStreams.from_seed(123)
    n = 4000
    products = []
    for i in range(n):
        rec = run_trial(cfg, i, streams, force_settings=(0, 0))
        products.append(rec.x * rec.y)
    observed = np.mean(products)
    expected = bs.expected_correlations(
        cfg.heralded_state().spin_state, cfg.readout_model("A"), cfg.readout_model("B"),
        cfg.basis_set()
    )[(0, 0)]
    assert abs(expected - 1 / SQRT2) < 0.08  # noisy model sits near +1/sqrt2
    assert abs(observed - expected) < 4 / math.sqrt(n)


def test_trial_record_fields_and_ordering():
    cfg = fast_cfg()
    rec = run_trial(cfg, 0, engine.TrialStreams.from_seed(7))
    assert rec.a in (0, 1) and rec.b in (0, 1)
    assert rec.x in (-1, 1) and rec.y in (-1, 1)
    assert rec.t_choice_a_ns < rec.t_read_done_a_ns
    assert rec.t_choice_b_ns < rec.t_read_done_b_ns
    assert rec.attempts >= 1


def test_run_trial_deterministic_given_seed():
    cfg = fast_cfg()
    rec1 = run_trial(cfg, 0, engine.TrialStreams.from_seed(42))
    rec2 = run_trial(cfg, 0, engine.TrialStreams.from_seed(42))
    assert rec1 == rec2


def test_fully_mixed_state_gives_zero_correlation():
    # force the heralded state to be uncorrelated via zero visibility and
    # half-probability spin-photon errors
    import bellsim.heralding as h

    cfg = fast_cfg()
    cfg = dataclasses.replace(
        cfg,
        interference=h.InterferenceModel(visibility=0.0),
        spin_photon_errors=h.SpinPhotonErrorModel(0.5, 0.5, 0.5, 0.5),
    )
    streams = engine.TrialStreams.from_seed(2)
    products = [run_trial(cfg, i, streams).x * run_trial(cfg, i, streams).y
                for i in range(1500)]
    assert abs(np.mean(products)) < 4 / math.sqrt(len(products))


# ---- run_experiment -----------------------------------------------------------------


def test_exact_trial_count_and_indices():
    cfg = fast_cfg()
    log = engine.run_experiment(cfg, n_trials=245, seed=1)
    assert len(log) == 245
    assert [r.idx for r in log.records] == list(range(245))


def test_single_trial_run():
    log = engine.run_experiment(fast_cfg(), n_trials=1, seed=9)
    assert len(log) == 1


def test_default_seed_run_violates_classical_bound():
    log = engine.run_experiment(CFG, n_trials=245, seed=CFG.experiment.seed)
    res = bs.analyze_records(log.records, tau_out=0.0)
    assert 2.1 <= res.s <= 2.6  # typical draw at the calibrated working point
    assert res.k == 196  # golden replay value for the default seed


def test_typical_runs_land_in_the_expected_band():
    # distributional reading of "typically": most seeds fall in [2.1, 2.6]
    values = sorted(
        bs.chsh_estimate(engine.run_experiment(CFG, n_trials=245, seed=s).records).s
        for s in range(100, 109)
    )
    median = values[len(values) // 2]
    assert 2.1 <= median <= 2.6


def test_unit_probability_makes_every_attempt_count():
    link = LinkConfig(herald_probability=1.0)
    assert engine.herald_probability(link) == 1.0
    cfg = dataclasses.replace(fast_cfg(), link=link)
    log = engine.run_experiment(cfg, n_trials=10, seed=3)
    assert [r.attempts for r in log.records] == [1] * 10  # degenerate geometric


def test_over_unit_budget_rejected():
    with pytest.raises(ConfigError, match="collection_efficiency"):
        LinkConfig(collection_efficiency=2.0, fibre_km_per_arm=0.0, detector_efficiency=2.0)
    with pytest.raises(ConfigError, match="detector_efficiency"):
        LinkConfig(fibre_km_per_arm=0.0, detector_efficiency=2.0)
    with pytest.raises(ConfigError, match="herald_probability"):
        LinkConfig(herald_probability=1.5)


def test_link_beyond_the_attempt_cap_rejected():
    from bellsim.config import MAX_EXPECTED_ATTEMPTS
    assert engine.herald_probability(LinkConfig(herald_probability=2 / MAX_EXPECTED_ATTEMPTS)) > 0
    with pytest.raises(ConfigError, match="expected attempts per trial"):
        LinkConfig(herald_probability=0.5 / MAX_EXPECTED_ATTEMPTS)
    with pytest.raises(ConfigError, match="expected attempts per trial"):
        LinkConfig(loss_db_per_km=200.0)  # p about 1.5e-41


def test_saturated_attempt_draw_raises(monkeypatch):
    # numpy's geometric draw returns 2**63 - 1 for every trial at this p
    monkeypatch.setattr(engine, "herald_probability", lambda link: 1.5e-41)
    with pytest.raises(engine.EngineError, match="int64 ceiling"):
        engine.run_experiment(CFG, n_trials=3, seed=1)


def test_geometric_attempt_statistics():
    cfg = fast_cfg()
    p = engine.herald_probability(cfg.link)
    log = engine.run_experiment(cfg, n_trials=10_000, seed=11)
    attempts = np.array([r.attempts for r in log.records], dtype=float)
    mean = attempts.mean()
    expected = 1.0 / p
    sigma = math.sqrt((1 - p) / p**2 / len(attempts))
    assert abs(mean - expected) < 3 * sigma


def test_setting_frequencies_uniform():
    cfg = fast_cfg()
    log = engine.run_experiment(cfg, n_trials=10_000, seed=13)
    for bits in (np.array([r.a for r in log.records]), np.array([r.b for r in log.records])):
        assert abs(bits.mean() - 0.5) < 3 * 0.5 / math.sqrt(len(bits))


def test_replay_is_byte_identical(tmp_path):
    cfg = fast_cfg()
    log1 = engine.run_experiment(cfg, n_trials=100, seed=21)
    log2 = engine.run_experiment(cfg, n_trials=100, seed=21)
    assert log_bytes(log1, tmp_path / "1.jsonl") == log_bytes(log2, tmp_path / "2.jsonl")


def test_different_seeds_differ(tmp_path):
    cfg = fast_cfg()
    log1 = engine.run_experiment(cfg, n_trials=100, seed=21)
    log2 = engine.run_experiment(cfg, n_trials=100, seed=22)
    assert log_bytes(log1, tmp_path / "1.jsonl") != log_bytes(log2, tmp_path / "2.jsonl")


@pytest.fixture(scope="module", params=[
    (dict(n_trials=245, seed=59), 245, False,
     "e529942fb0df213327ffbf65a1ed482b5d276755cafb5484657cb93f8cba45e0",
     "7c63d5b1e54e72202885842d61e48494e698620461259a5e6146fc5ce61dc7ec"),
    # 95 % of the expected duration of 20,000 trials: the budget ends the run
    (dict(n_trials=20_000, hours=0.95 * 20_000 / 6.4e-9 * 20_000 / 3.6e12, seed=(7, 0)),
     18_967, True,
     "01fbf519a227f06d5123379c2159d3587a24878a90097ce8a1baad861cb174df",
     "a5d30157e5387007b20be5b4f87c42752d53bb19cef3bb0ed4ac936a8ef4ce6d"),
], ids=["seed59", "budget-cut"])
def pinned_log(request, tmp_path_factory):
    """(log bytes, file digest, body digest) of a default-config run."""
    kwargs, n, partial, digest, body_digest = request.param
    log = engine.run_experiment(CFG, **kwargs)
    assert (len(log), log.partial) == (n, partial)
    return log_bytes(log, tmp_path_factory.mktemp("pinned") / "log.jsonl"), digest, body_digest


def test_logs_are_pinned_by_digest(pinned_log):
    data, digest, _ = pinned_log
    assert hashlib.sha256(data).hexdigest() == digest


def test_log_bodies_are_pinned_by_digest(pinned_log):
    # every line after the header: a config change that moves only the
    # header's config_hash leaves the trials themselves untouched
    data, _, body_digest = pinned_log
    assert hashlib.sha256(data.partition(b"\n")[2]).hexdigest() == body_digest


def exact_hours(budget_ns: float) -> float:
    """Hours that run_experiment turns into exactly ``budget_ns``."""
    hours = budget_ns / 3.6e12
    for _ in range(8):
        ns = hours * 3600.0 * 1e9
        if ns == budget_ns:
            return hours
        hours = math.nextafter(hours, math.inf if ns < budget_ns else 0.0)
    raise AssertionError(f"no hours value converts to {budget_ns!r} ns")


def test_budget_cut_late_in_the_run_keeps_the_leading_records():
    # The cut falls thousands of trials in, past the first sampling block. A
    # period of 0.3 ns makes the running total round, and the budget sits
    # exactly on the total of the first `cut` trials summed one at a time:
    # that trial still fits, and a budget one ulp shorter drops it.
    period = 0.3
    cfg = fast_cfg()
    cfg = dataclasses.replace(cfg, link=dataclasses.replace(cfg.link, attempt_period_ns=period))
    full = engine.run_experiment(cfg, n_trials=10_000, seed=17)
    cut = 7_000
    elapsed = list(itertools.accumulate(r.attempts * period for r in full.records))
    hours = exact_hours(elapsed[cut - 1])
    for budget, kept in ((hours, cut), (math.nextafter(hours, 0.0), cut - 1)):
        log = engine.run_experiment(cfg, n_trials=10_000, hours=budget, seed=17)
        assert log.partial
        assert log.records == full.records[:kept]
    unbounded = engine.run_experiment(cfg, n_trials=None, hours=hours, seed=17)
    assert not unbounded.partial
    assert unbounded.records == full.records[:cut]


def test_hours_budget_truncates_and_flags_partial():
    cfg = fast_cfg()
    p = engine.herald_probability(cfg.link)
    # budget worth ~20 trials out of 100 requested
    hours = 20.0 / p * cfg.link.attempt_period_ns / 3600e9
    log = engine.run_experiment(cfg, n_trials=100, hours=hours, seed=5)
    assert log.partial
    assert 0 < len(log) < 100


def test_pure_hours_budget_is_not_partial():
    cfg = fast_cfg()
    p = engine.herald_probability(cfg.link)
    hours = 50.0 / p * cfg.link.attempt_period_ns / 3600e9
    log = engine.run_experiment(cfg, n_trials=None, hours=hours, seed=5)
    assert not log.partial
    assert len(log) > 0


def test_outcome_distribution_matches_sequential_measurement():
    # the fast sampling table and the explicit two-step collapse agree
    cfg = fast_cfg()
    table = engine.outcome_distribution(cfg)
    streams = engine.TrialStreams.from_seed(31)
    n = 6000
    counts = np.zeros(4)
    for i in range(n):
        rec = run_trial(cfg, i, streams, force_settings=(0, 1))
        counts[engine.OUTCOME_PAIRS.index((rec.x, rec.y))] += 1
    freq = counts / n
    assert np.max(np.abs(freq - table[0, 1])) < 5 * math.sqrt(0.25 / n)


def kron_table(cfg) -> np.ndarray:
    """The outcome table from 2x2 POVM matrices: one kron product and one trace
    over the density matrix per (a, b, x, y), clamped and normalised per row."""
    rho = cfg.heralded_state().spin_state.density_matrix()
    basis = cfg.basis_set()
    table = np.zeros((2, 2, 4))
    for a in (0, 1):
        ea = rotated_povm(cfg.readout_model("A"), basis.angle("A", a))
        for b in (0, 1):
            eb = rotated_povm(cfg.readout_model("B"), basis.angle("B", b))
            for i, (x, y) in enumerate(engine.OUTCOME_PAIRS):
                eff = np.kron(ea[0 if x == 1 else 1], eb[0 if y == 1 else 1])
                table[a, b, i] = max(0.0, float(np.real(np.trace(rho @ eff))))
            table[a, b] /= table[a, b].sum()
    return table


def random_model_config(seed: int):
    """A config with a random heralded state, readout pair and tilt."""
    rng = np.random.default_rng(seed)
    return dataclasses.replace(
        CFG,
        interference=InterferenceModel(visibility=float(rng.uniform(0.0, 1.0)),
                                       dark_count_prob=float(rng.uniform(0.0, 0.05))),
        spin_photon_errors=SpinPhotonErrorModel(*map(float, rng.uniform(0.0, 0.5, 4))),
        readout_a=ReadoutConfig(mean_fidelity=float(rng.uniform(0.75, 0.99))),
        readout_b=ReadoutConfig(mean_fidelity=float(rng.uniform(0.75, 0.99)),
                                flip_rate_per_us=float(rng.uniform(0.0, 0.05))),
        basis=BasisConfig(epsilon_pi=float(rng.uniform(-1.0, 1.0))),
    )


@pytest.mark.parametrize("seed", range(24))
def test_outcome_table_matches_povm_reference_and_predicted_correlations(seed):
    cfg = random_model_config(seed)
    table = engine.outcome_distribution(cfg)
    assert np.max(np.abs(table - kron_table(cfg))) < 1e-14
    predicted = bs.expected_correlations(cfg.heralded_state().spin_state, cfg.readout_model("A"),
                                         cfg.readout_model("B"), cfg.basis_set())
    xy = np.array([x * y for x, y in engine.OUTCOME_PAIRS])
    for (a, b), e in predicted.items():
        assert abs(table[a, b] @ xy - e) < 1e-14


def test_uniform_above_the_last_cumulative_entry_draws_the_last_pair(monkeypatch):
    # every row sums to 1 - 1 ulp, and every outcome uniform lies in that gap
    top = 1.0 - 2.0**-53
    table = np.tile([0.25, 0.25, 0.25, 0.25 - 2.0**-53], (2, 2, 1))
    assert table.cumsum(axis=2)[1, 1, 3] == top
    monkeypatch.setattr(engine, "outcome_distribution", lambda cfg: table)

    class TopUniforms:
        def random(self, size):
            return np.full(size, top)

    from_seed = engine.TrialStreams.from_seed
    monkeypatch.setattr(engine.TrialStreams, "from_seed",
                        lambda seed: dataclasses.replace(from_seed(seed), outcomes=TopUniforms()))
    log = engine.run_experiment(fast_cfg(), n_trials=50, seed=3)
    assert len(log) == 50
    assert {(r.x, r.y) for r in log.records} == {(-1, -1)}


def test_outcome_distribution_is_cached_and_read_only():
    cfg = fast_cfg()
    table = engine.outcome_distribution(cfg)
    assert engine.outcome_distribution(dataclasses.replace(cfg)) is table
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0


def test_cumulative_outcome_table_is_kept_for_a_read_only_table():
    table = engine.outcome_distribution(fast_cfg())
    cumulative = engine._cumulative_outcomes(table)
    assert cumulative.tobytes() == table.cumsum(axis=2).tobytes()
    assert engine._cumulative_outcomes(table) is cumulative
    with pytest.raises(ValueError):
        cumulative[0, 0, 0] = 0.5
    # a writable table may change between runs, so its sum is taken afresh
    writable = np.array(table)
    engine._cumulative_outcomes(writable)
    writable[0, 0] = (1.0, 0.0, 0.0, 0.0)
    assert engine._cumulative_outcomes(writable)[0, 0].tolist() == [1.0, 1.0, 1.0, 1.0]


def test_record_events_are_the_five_times_in_field_order():
    rec = run_trial(fast_cfg(), 0, engine.TrialStreams.from_seed(1))
    assert engine.record_events(rec) == (rec.t_herald_ns, rec.t_choice_a_ns, rec.t_choice_b_ns,
                                         rec.t_read_done_a_ns, rec.t_read_done_b_ns)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["t_herald_ns", "t_choice_a_ns", "t_read_done_b_ns"])
def test_non_finite_event_time_rejected(tmp_path, field, value):
    rec = run_trial(fast_cfg(), 0, engine.TrialStreams.from_seed(1))._replace(**{field: value})
    with pytest.raises(engine.EngineError, match="finite"):
        engine.check_record(rec)
    log = engine.TrialLog(config_hash="manual", seed=0, records=[rec])
    with pytest.raises(engine.EngineError, match="finite"):
        write_log(log, tmp_path / "log.jsonl")


# ---- the block check: check_record's rules on each block's columns ---------------

A, B, X, Y, TIMES, ATTEMPTS = range(6)  # positions in engine._sample_block's result


def _set(index, value):
    def change(col):
        col = col.copy()
        col[index] = value
        return col
    return change


def _read_b_before_choice(times):
    times = times.copy()
    times[4, 11] = times[2, 11] - 1.0
    return times


BAD_COLUMNS = {
    "setting of 2": (A, _set(7, 2)),
    "outcome of 0": (X, _set(3, 0)),
    "zero attempts": (ATTEMPTS, _set(5, 0)),
    "nan time": (TIMES, _set((0, 9), math.nan)),
    "inf time": (TIMES, _set((3, 2), math.inf)),
    "readout end before its choice": (TIMES, _read_b_before_choice),
    "float settings column": (B, lambda col: col.astype(float)),
}


def inject(monkeypatch, column: int, change) -> list:
    """Pass one column of every block through ``change``; return the blocks' rows as
    check_record sees them, built here from the changed columns."""
    sample, rows = engine._sample_block, []

    def patched(*args):
        columns = list(sample(*args))
        columns[column] = change(columns[column])
        a, b, x, y, times, attempts = columns
        rows.extend(engine.TrialRecord(len(rows) + i, *values) for i, values in enumerate(
            zip(a.tolist(), b.tolist(), x.tolist(), y.tolist(), *times.tolist(),
                attempts.tolist())))
        return tuple(columns)

    monkeypatch.setattr(engine, "_sample_block", patched)
    return rows


def first_row_error(rows) -> str | None:
    for rec in rows:
        try:
            check_record(rec)
        except engine.EngineError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("case", BAD_COLUMNS)
def test_bad_column_raises_check_record_error_of_its_row(monkeypatch, case):
    rows = inject(monkeypatch, *BAD_COLUMNS[case])
    with pytest.raises(engine.EngineError) as info:
        engine.run_experiment(fast_cfg(), n_trials=50, seed=3)
    expected = first_row_error(rows)
    assert expected is not None
    assert str(info.value) == expected


def test_block_check_failure_raises_though_every_row_passes(monkeypatch):
    # integer times are valid rows, but the engine's times column must be float
    rows = inject(monkeypatch, TIMES, lambda t: t.astype(np.int64))
    with pytest.raises(engine.EngineError, match="column check"):
        engine.run_experiment(fast_cfg(), n_trials=50, seed=3)
    assert len(rows) == 50 and first_row_error(rows) is None


def test_valid_blocks_are_not_checked_row_by_row(monkeypatch):
    def refuse(rec):
        raise AssertionError("check_record ran on a valid block")

    monkeypatch.setattr(engine, "check_record", refuse)
    log = engine.run_experiment(fast_cfg(), n_trials=engine.BLOCK_TRIALS + 10, seed=3)
    assert [rec.idx for rec in log.records] == list(range(engine.BLOCK_TRIALS + 10))
    for rec in log.records:
        check_record(rec)
